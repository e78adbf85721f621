#include "parsim/wire/transport.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

namespace ab {
namespace wire {

const char* transport_name(TransportKind k) {
  switch (k) {
    case TransportKind::Board: return "board";
    case TransportKind::Shm: return "shm";
  }
  return "?";
}

TransportKind parse_transport(const std::string& name) {
  if (name == "board") return TransportKind::Board;
  if (name == "shm") return TransportKind::Shm;
  AB_REQUIRE(false,
             "unknown transport '" + name + "' (expected board or shm)");
  return TransportKind::Board;  // unreachable
}

TransportKind resolve_transport(TransportKind cfg) {
  if (const char* e = std::getenv("AB_TRANSPORT")) return parse_transport(e);
  return cfg;
}

namespace {

/// Ring header in the shared mapping. `tail` advances on the producer
/// side (release), `head` on the consumer side (release); each side reads
/// the other's cursor with acquire. Monotonic 64-bit cursors never wrap.
struct alignas(64) RingHeader {
  std::atomic<std::uint64_t> head;  // consumed bytes
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;  // produced bytes
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
};
static_assert(sizeof(RingHeader) == 128, "ring header layout");

/// Per-channel ring size: 64 KB at every process count, the hub's read
/// chunk. Cursors only advance, so a ring that carries traffic wraps
/// through, and keeps resident, every page it owns: the ring size sets
/// the wire's memory. 64 KB holds any frame of a rank step (≈2 KB
/// typical, 43 KB the largest on the 8-rank churn workload); a longer
/// message takes the spill path. A power of two for the cursor arithmetic.
constexpr std::size_t kRingBytes = std::size_t{1} << 16;
static_assert((kRingBytes & (kRingBytes - 1)) == 0, "ring size");
constexpr std::size_t kSlotBytes = sizeof(RingHeader) + kRingBytes;

/// Channel `c`'s header and ring bytes in the mapping at `base`.
RingHeader* header(std::uint8_t* base, std::size_t c) {
  return reinterpret_cast<RingHeader*>(base + c * kSlotBytes);
}
std::uint8_t* ring(std::uint8_t* base, std::size_t c) {
  return base + c * kSlotBytes + sizeof(RingHeader);
}

/// Copy up to `n` bytes into channel `c`'s ring; returns how many fit.
std::size_t push_ring(std::uint8_t* base, std::size_t c, const void* data,
                      std::size_t n) {
  RingHeader* h = header(base, c);
  const std::uint64_t tail = h->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = h->head.load(std::memory_order_acquire);
  std::size_t space = kRingBytes - static_cast<std::size_t>(tail - head);
  if (space == 0) return 0;
  if (space > n) space = n;
  const std::size_t at = static_cast<std::size_t>(tail % kRingBytes);
  const std::size_t first = std::min(space, kRingBytes - at);
  std::uint8_t* r = ring(base, c);
  std::memcpy(r + at, data, first);
  if (first < space)
    std::memcpy(r, static_cast<const std::uint8_t*>(data) + first,
                space - first);
  h->tail.store(tail + space, std::memory_order_release);
  return space;
}

}  // namespace

ShmRings::ShmRings(int npes) : npes_(npes) {
  AB_REQUIRE(npes_ >= 1, "ShmRings: npes must be >= 1");
  const std::size_t nchan =
      static_cast<std::size_t>(npes_) * static_cast<std::size_t>(npes_);
  map_bytes_ = nchan * kSlotBytes;
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  AB_REQUIRE(p != MAP_FAILED,
             std::string("ShmRings: mmap failed: ") + std::strerror(errno));
  base_ = static_cast<std::uint8_t*>(p);
  for (std::size_t c = 0; c < nchan; ++c) {
    auto* h = new (base_ + c * kSlotBytes) RingHeader;
    h->head.store(0, std::memory_order_relaxed);
    h->tail.store(0, std::memory_order_relaxed);
  }
  spills_.resize(nchan);
}

ShmRings::~ShmRings() { ::munmap(base_, map_bytes_); }

void ShmRings::send(int src, int dst, const void* data, std::size_t n) {
  const std::size_t c = index(src, dst);
  ByteQueue& spill = spills_[c];
  if (!spill.empty()) {
    // Order matters: never let fresh bytes overtake spilled ones.
    spill.push(data, n);
    flush_chan(c);
    return;
  }
  const std::size_t took = push_ring(base_, c, data, n);
  if (took < n)
    spill.push(static_cast<const std::uint8_t*>(data) + took, n - took);
}

std::size_t ShmRings::recv_some(int src, int dst, void* out,
                                std::size_t cap) {
  const std::size_t c = index(src, dst);
  RingHeader* h = header(base_, c);
  const std::uint64_t head = h->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = h->tail.load(std::memory_order_acquire);
  std::size_t avail = static_cast<std::size_t>(tail - head);
  if (avail == 0) return 0;
  if (avail > cap) avail = cap;
  const std::size_t at = static_cast<std::size_t>(head % kRingBytes);
  const std::size_t first = std::min(avail, kRingBytes - at);
  const std::uint8_t* r = ring(base_, c);
  std::memcpy(out, r + at, first);
  if (first < avail)
    std::memcpy(static_cast<std::uint8_t*>(out) + first, r, avail - first);
  h->head.store(head + avail, std::memory_order_release);
  return avail;
}

void ShmRings::flush() {
  for (std::size_t c = 0; c < spills_.size(); ++c)
    if (!spills_[c].empty()) flush_chan(c);
}

std::size_t ShmRings::pending_bytes() const {
  std::size_t n = 0;
  for (const ByteQueue& s : spills_) n += s.size();
  return n;
}

std::size_t ShmRings::index(int src, int dst) const {
  AB_REQUIRE(src >= 0 && src < npes_ && dst >= 0 && dst < npes_ &&
                 src != dst,
             "ShmRings: bad channel endpoints");
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(npes_) +
         static_cast<std::size_t>(dst);
}

void ShmRings::flush_chan(std::size_t c) {
  ByteQueue& spill = spills_[c];
  while (!spill.empty()) {
    const std::size_t took = push_ring(base_, c, spill.front(), spill.size());
    if (took == 0) return;  // ring full; consumer must drain first
    spill.drop(took);
  }
}

}  // namespace wire
}  // namespace ab
