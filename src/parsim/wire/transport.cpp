#include "parsim/wire/transport.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

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
    case TransportKind::Socket: return "socket";
    case TransportKind::Shm: return "shm";
  }
  return "?";
}

TransportKind parse_transport(const std::string& name) {
  if (name == "board") return TransportKind::Board;
  if (name == "socket") return TransportKind::Socket;
  if (name == "shm") return TransportKind::Shm;
  AB_REQUIRE(false, "unknown transport '" + name +
                        "' (expected board, socket, or shm)");
  return TransportKind::Board;  // unreachable
}

TransportKind resolve_transport(TransportKind cfg) {
  if (const char* e = std::getenv("AB_TRANSPORT")) return parse_transport(e);
  return cfg;
}

namespace {

// ---------------------------------------------------------------------------
// SocketTransport: one AF_UNIX stream socketpair per (src, dst) channel.
// ---------------------------------------------------------------------------

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(int npes) : npes_(npes) {
    AB_REQUIRE(npes_ >= 1, "SocketTransport: npes must be >= 1");
    chans_.resize(static_cast<std::size_t>(npes_) *
                  static_cast<std::size_t>(npes_));
    for (int s = 0; s < npes_; ++s) {
      for (int d = 0; d < npes_; ++d) {
        if (s == d) continue;
        int fds[2];
        AB_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                   std::string("SocketTransport: socketpair failed: ") +
                       std::strerror(errno));
        Chan& ch = chans_[index(s, d)];
        ch.wfd = fds[0];
        ch.rfd = fds[1];
        set_nonblocking(ch.wfd);
        set_nonblocking(ch.rfd);
        // Best effort: a roomy kernel buffer keeps bulk rounds off the
        // spill path entirely for typical payloads.
        const int want = 1 << 20;
        ::setsockopt(ch.wfd, SOL_SOCKET, SO_SNDBUF, &want, sizeof want);
        ::setsockopt(ch.rfd, SOL_SOCKET, SO_RCVBUF, &want, sizeof want);
      }
    }
  }

  ~SocketTransport() override {
    for (Chan& ch : chans_) {
      if (ch.wfd >= 0) ::close(ch.wfd);
      if (ch.rfd >= 0) ::close(ch.rfd);
    }
  }

  void send(int src, int dst, const void* data, std::size_t n) override {
    Chan& ch = chan(src, dst);
    if (!ch.spill.empty()) {
      // Order matters: never let fresh bytes overtake spilled ones.
      ch.spill.push(data, n);
      flush_chan(ch);
      return;
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
      const ssize_t w = ::write(ch.wfd, p, n);
      if (w > 0) {
        p += w;
        n -= static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      AB_REQUIRE(w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                 std::string("SocketTransport: write failed: ") +
                     std::strerror(errno));
      ch.spill.push(p, n);
      return;
    }
  }

  std::size_t recv_some(int src, int dst, void* out,
                        std::size_t cap) override {
    Chan& ch = chan(src, dst);
    for (;;) {
      const ssize_t r = ::read(ch.rfd, out, cap);
      if (r > 0) return static_cast<std::size_t>(r);
      if (r < 0 && errno == EINTR) continue;
      AB_REQUIRE(r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                 r == 0 ? std::string("SocketTransport: peer closed")
                        : std::string("SocketTransport: read failed: ") +
                              std::strerror(errno));
      return 0;
    }
  }

  void flush() override {
    for (Chan& ch : chans_)
      if (!ch.spill.empty()) flush_chan(ch);
  }

  std::size_t pending_bytes() const override {
    std::size_t n = 0;
    for (const Chan& ch : chans_) n += ch.spill.size();
    return n;
  }

  const char* name() const override { return "socket"; }

 private:
  struct Chan {
    int wfd = -1;
    int rfd = -1;
    ByteQueue spill;
  };

  static void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    AB_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "SocketTransport: cannot set O_NONBLOCK");
  }

  std::size_t index(int src, int dst) const {
    AB_REQUIRE(src >= 0 && src < npes_ && dst >= 0 && dst < npes_ &&
                   src != dst,
               "SocketTransport: bad channel endpoints");
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(npes_) +
           static_cast<std::size_t>(dst);
  }
  Chan& chan(int src, int dst) { return chans_[index(src, dst)]; }

  void flush_chan(Chan& ch) {
    while (!ch.spill.empty()) {
      const ssize_t w = ::write(ch.wfd, ch.spill.front(), ch.spill.size());
      if (w > 0) {
        ch.spill.drop(static_cast<std::size_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      AB_REQUIRE(w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                 std::string("SocketTransport: flush failed: ") +
                     std::strerror(errno));
      return;  // kernel buffer still full; try again later
    }
  }

  int npes_;
  std::vector<Chan> chans_;
};

// ---------------------------------------------------------------------------
// ShmRingTransport: SPSC byte rings in anonymous shared memory.
// ---------------------------------------------------------------------------

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

class ShmRingTransport final : public Transport {
 public:
  explicit ShmRingTransport(int npes) : npes_(npes) {
    AB_REQUIRE(npes_ >= 1, "ShmRingTransport: npes must be >= 1");
    const std::size_t nchan =
        static_cast<std::size_t>(npes_) * static_cast<std::size_t>(npes_);
    map_bytes_ = nchan * kSlotBytes;
    void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    AB_REQUIRE(p != MAP_FAILED,
               std::string("ShmRingTransport: mmap failed: ") +
                   std::strerror(errno));
    base_ = static_cast<std::uint8_t*>(p);
    for (std::size_t c = 0; c < nchan; ++c) {
      auto* h = new (base_ + c * kSlotBytes) RingHeader;
      h->head.store(0, std::memory_order_relaxed);
      h->tail.store(0, std::memory_order_relaxed);
    }
    spills_.resize(nchan);
  }

  ~ShmRingTransport() override { ::munmap(base_, map_bytes_); }

  void send(int src, int dst, const void* data, std::size_t n) override {
    const std::size_t c = index(src, dst);
    ByteQueue& spill = spills_[c];
    if (!spill.empty()) {
      spill.push(data, n);
      flush_chan(c);
      return;
    }
    const std::size_t took = push_ring(c, data, n);
    if (took < n)
      spill.push(static_cast<const std::uint8_t*>(data) + took, n - took);
  }

  std::size_t recv_some(int src, int dst, void* out,
                        std::size_t cap) override {
    const std::size_t c = index(src, dst);
    RingHeader* h = header(c);
    const std::uint64_t head = h->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = h->tail.load(std::memory_order_acquire);
    std::size_t avail = static_cast<std::size_t>(tail - head);
    if (avail == 0) return 0;
    if (avail > cap) avail = cap;
    copy_out(c, head, out, avail);
    h->head.store(head + avail, std::memory_order_release);
    return avail;
  }

  void flush() override {
    for (std::size_t c = 0; c < spills_.size(); ++c)
      if (!spills_[c].empty()) flush_chan(c);
  }

  std::size_t pending_bytes() const override {
    std::size_t n = 0;
    for (const ByteQueue& s : spills_) n += s.size();
    return n;
  }

  const char* name() const override { return "shm"; }

 private:
  std::size_t index(int src, int dst) const {
    AB_REQUIRE(src >= 0 && src < npes_ && dst >= 0 && dst < npes_ &&
                   src != dst,
               "ShmRingTransport: bad channel endpoints");
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(npes_) +
           static_cast<std::size_t>(dst);
  }
  RingHeader* header(std::size_t c) {
    return reinterpret_cast<RingHeader*>(base_ + c * kSlotBytes);
  }
  std::uint8_t* buf(std::size_t c) {
    return base_ + c * kSlotBytes + sizeof(RingHeader);
  }

  /// Copy up to `n` bytes into ring `c`; returns how many fit.
  std::size_t push_ring(std::size_t c, const void* data, std::size_t n) {
    RingHeader* h = header(c);
    const std::uint64_t tail = h->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = h->head.load(std::memory_order_acquire);
    std::size_t space =
        kRingBytes - static_cast<std::size_t>(tail - head);
    if (space == 0) return 0;
    if (space > n) space = n;
    const std::size_t at = static_cast<std::size_t>(tail % kRingBytes);
    const std::size_t first = std::min(space, kRingBytes - at);
    std::memcpy(buf(c) + at, data, first);
    if (first < space)
      std::memcpy(buf(c), static_cast<const std::uint8_t*>(data) + first,
                  space - first);
    h->tail.store(tail + space, std::memory_order_release);
    return space;
  }

  void copy_out(std::size_t c, std::uint64_t head, void* out,
                std::size_t n) {
    const std::size_t at = static_cast<std::size_t>(head % kRingBytes);
    const std::size_t first = std::min(n, kRingBytes - at);
    std::memcpy(out, buf(c) + at, first);
    if (first < n)
      std::memcpy(static_cast<std::uint8_t*>(out) + first, buf(c),
                  n - first);
  }

  void flush_chan(std::size_t c) {
    ByteQueue& spill = spills_[c];
    while (!spill.empty()) {
      const std::size_t took = push_ring(c, spill.front(), spill.size());
      if (took == 0) return;  // ring full; consumer must drain first
      spill.drop(took);
    }
  }

  int npes_;
  std::size_t map_bytes_ = 0;
  std::uint8_t* base_ = nullptr;
  std::vector<ByteQueue> spills_;  // process-local, per channel
};

}  // namespace

std::unique_ptr<Transport> make_transport(TransportKind kind, int npes) {
  switch (kind) {
    case TransportKind::Socket:
      return std::make_unique<SocketTransport>(npes);
    case TransportKind::Shm:
      return std::make_unique<ShmRingTransport>(npes);
    case TransportKind::Board:
      break;
  }
  AB_REQUIRE(false, "make_transport: the board path has no wire transport");
  return nullptr;  // unreachable
}

}  // namespace wire
}  // namespace ab
