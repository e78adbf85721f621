#include "parsim/wire/hub.hpp"

#include <chrono>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "util/crc32.hpp"

namespace ab {
namespace wire {

namespace {
/// Allocator whose argument-less construct default-initializes, so
/// `resize` grows a byte vector without writing zeros. A construct with
/// arguments is allocator_traits' own.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};
}  // namespace

struct WireHub::Chan {
  std::uint32_t send_seq = 0;
  /// Wire bytes; [rxhead, size) unparsed.
  std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>> rxbuf;
  std::size_t rxhead = 0;
  FrameSequencer sequencer;
  ByteQueue ready;  ///< in-order payload past the open receive
  std::vector<std::uint8_t> scratch;  ///< frame assembly (send side)
};

WireHub::WireHub(int npes) : npes_(npes), rings_(npes) {
  chans_.resize(static_cast<std::size_t>(npes_) *
                static_cast<std::size_t>(npes_));
}

WireHub::~WireHub() = default;

void WireHub::set_process(int w) {
  AB_REQUIRE(w >= -1 && w < npes_, "WireHub: process out of range");
  my_process_ = w;
}

WireHub::Chan& WireHub::chan(int src, int dst) {
  AB_REQUIRE(src >= 0 && src < npes_ && dst >= 0 && dst < npes_ &&
                 src != dst,
             "WireHub: bad channel endpoints");
  auto& slot = chans_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(npes_) +
                      static_cast<std::size_t>(dst)];
  if (slot == nullptr) slot = std::make_unique<Chan>();
  return *slot;
}

void WireHub::emit_frame(Chan& ch, int src, int dst, std::uint32_t seq,
                         const std::uint8_t* payload, std::size_t nbytes,
                         std::uint32_t crc_of, bool corrupt) {
  FrameHeader h;
  h.src = static_cast<std::uint16_t>(src);
  h.dst = static_cast<std::uint16_t>(dst);
  h.seq = seq;
  h.payload_bytes = static_cast<std::uint32_t>(nbytes);
  h.crc = crc_of;
  std::uint8_t hdr[kFrameHeaderBytes];
  encode_frame_header(h, hdr);
  // Header and payload go down as two sends on the same ordered stream —
  // the rings concatenate, and the payload never takes an assembly
  // copy on the clean path.
  rings_.send(src, dst, hdr, kFrameHeaderBytes);
  if (corrupt && nbytes > 0) {
    // One bit of in-flight damage; the header still carries the clean
    // payload's CRC, so the receiver's check rejects this frame.
    ch.scratch.assign(payload, payload + nbytes);
    ch.scratch[0] ^= 1u;
    rings_.send(src, dst, ch.scratch.data(), nbytes);
  } else if (nbytes > 0) {
    rings_.send(src, dst, payload, nbytes);
  }
  ++stats_.frames_sent;
  stats_.wire_bytes += static_cast<std::int64_t>(kFrameHeaderBytes + nbytes);
}

void WireHub::send(int src, int dst, const double* data, std::size_t n,
                   const WireFaults& wf) {
  if (n == 0 || !sends(src)) return;
  Chan& ch = chan(src, dst);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data);
  const std::size_t nbytes = n * sizeof(double);
  // Corrupted attempts precede the clean delivery, each carrying the
  // sequence number the eventual clean frame will use (a retransmission
  // reuses its seq; the receiver never sequences a CRC-rejected frame).
  for (int i = 0; i < wf.corrupted; ++i)
    emit_frame(ch, src, dst, ch.send_seq, bytes, nbytes, crc32(bytes, nbytes),
               /*corrupt=*/true);
  if (wf.reordered && n >= 2) {
    // Materialize the reorder: the payload splits into two frames sent
    // sequence-swapped; the receiver's window stashes the early half and
    // reassembles in sequence order.
    const std::size_t half = (n / 2) * sizeof(double);
    const std::uint32_t s0 = ch.send_seq++;
    const std::uint32_t s1 = ch.send_seq++;
    emit_frame(ch, src, dst, s1, bytes + half, nbytes - half,
               crc32(bytes + half, nbytes - half), false);
    emit_frame(ch, src, dst, s0, bytes, half, crc32(bytes, half), false);
    return;
  }
  const std::uint32_t s = ch.send_seq++;
  const std::uint32_t crc = crc32(bytes, nbytes);
  emit_frame(ch, src, dst, s, bytes, nbytes, crc, false);
  // A duplicate is the same frame twice; the receiver's window discards
  // the second copy by sequence number.
  if (wf.duplicated) emit_frame(ch, src, dst, s, bytes, nbytes, crc, false);
}

bool WireHub::pump(Chan& ch, int src, int dst, DirectFill& df) {
  constexpr std::size_t kChunk = 1 << 16;
  bool progress = false;
  // Read straight into the tail of the unparsed buffer — no bounce
  // buffer between the rings and the parser. The chunk is not zeroed:
  // the resize after the read drops whatever it did not fill.
  for (;;) {
    const std::size_t old = ch.rxbuf.size();
    ch.rxbuf.resize(old + kChunk);
    const std::size_t got =
        rings_.recv_some(src, dst, ch.rxbuf.data() + old, kChunk);
    ch.rxbuf.resize(old + got);
    if (got == 0) break;
    progress = true;
    if (got < kChunk) break;
  }
  // Parse complete frames from the head cursor; partial tails wait for
  // more bytes. In-order payloads flow out of rxbuf in one copy — into
  // the caller's buffer up to what it wants, into the ready queue past
  // that; only out-of-order frames are stashed aside.
  while (ch.rxbuf.size() - ch.rxhead >= kFrameHeaderBytes) {
    if (df.filled >= df.want)
      break;  // satisfied — later frames wait for the recv that wants them
    const FrameHeader h = decode_frame_header(ch.rxbuf.data() + ch.rxhead);
    AB_REQUIRE(h.src == src && h.dst == dst,
               "wire: frame addressed to the wrong channel");
    if (ch.rxbuf.size() - ch.rxhead - kFrameHeaderBytes < h.payload_bytes)
      break;
    const std::uint8_t* payload =
        ch.rxbuf.data() + ch.rxhead + kFrameHeaderBytes;
    ch.rxhead += kFrameHeaderBytes + h.payload_bytes;
    progress = true;
    if (crc32(payload, h.payload_bytes) != h.crc) {
      // In-flight corruption: reject before sequencing; the clean
      // retransmission (same seq) follows on the stream.
      ++stats_.crc_rejects;
      continue;
    }
    ch.sequencer.accept(
        h, payload, stats_, [&ch, &df](const std::uint8_t* p, std::size_t n) {
          const std::size_t take = std::min(n, df.want - df.filled);
          std::memcpy(df.out + df.filled, p, take);
          df.filled += take;
          if (take < n) ch.ready.push(p + take, n - take);
        });
  }
  if (ch.rxhead == ch.rxbuf.size()) {
    ch.rxbuf.clear();
    ch.rxhead = 0;
  }
  return progress;
}

void WireHub::recv(int src, int dst, double* out, std::size_t n) {
  if (n == 0 || !receives(dst)) return;
  Chan& ch = chan(src, dst);
  const std::size_t want = n * sizeof(double);
  // Whatever the channel already has staged comes first (stream order);
  // the rest lands in `out` directly as frames parse.
  const std::size_t staged = std::min(ch.ready.size(), want);
  ch.ready.pop_into(out, staged);
  if (staged == want) return;
  DirectFill df{reinterpret_cast<std::uint8_t*>(out), want, staged};
  const auto t0 = std::chrono::steady_clock::now();
  while (df.filled < df.want) {
    if (pump(ch, src, dst, df)) continue;
    // Nothing readable: push our own spilled sends along (the progress
    // guarantee that keeps bulk-synchronous rounds deadlock-free), then
    // poll again.
    rings_.flush();
    if (pump(ch, src, dst, df)) continue;
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    AB_REQUIRE(waited < timeout_sec_,
               "wire: receive timed out after " +
                   std::to_string(timeout_sec_) + "s on channel " +
                   std::to_string(src) + "->" + std::to_string(dst) +
                   " (want " + std::to_string(want) + " bytes, have " +
                   std::to_string(df.filled) + ")");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::size_t WireHub::dedup_state_bytes() const {
  std::size_t total = 0;
  for (const auto& ch : chans_) {
    if (ch == nullptr) continue;
    total += ch->sequencer.state_bytes() + ch->rxbuf.capacity() +
             ch->ready.capacity_bytes();
  }
  return total;
}

}  // namespace wire
}  // namespace ab
