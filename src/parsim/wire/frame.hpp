// Wire framing for the inter-process transport behind MessageBoard.
//
// Every payload the exchange layer ships (ghost fills, flux corrections,
// coarsen gathers, migrations, topology deltas) crosses the wire as one or
// more frames:
//
//   [ magic u32 | src u16 | dst u16 | rsvd u8 | flags u8 | rsvd u16 |
//     seq u32 | payload_bytes u32 | crc u32 ]  +  payload bytes
//
// all little-endian, 24 header bytes; the reserved bytes are written as
// zero, and a nonzero byte 8 is rejected as a desync. `crc` is the CRC-32
// of the payload (the same polynomial FaultPlan's simulated receiver
// checks), so a corrupted frame is rejected before it reaches the
// sequencer and the clean retransmission that follows — with the same
// sequence number — is the copy delivered. `seq` increments per (src, dst)
// byte stream. Every exchange round receives all it sends before the next
// round starts, so one in-order stream per channel carries every round's
// payloads without demultiplexing.
//
// FrameSequencer is the receive window: it delivers frames in sequence
// order, discards duplicates, and stashes out-of-order arrivals until the
// gap fills. Its state is BOUNDED — a sliding window of kSeqWindow
// sequence numbers and at most kSeqWindow stashed frames — rather than a
// set of every sequence id ever seen, so a long lossy run's receiver
// memory stays flat (tests/parsim/wire_transport_test.cpp regresses
// this).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ab {
namespace wire {

inline constexpr std::uint32_t kFrameMagic = 0x41425746u;  // "ABWF"
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Receive-window depth: duplicates older than this many sequence numbers
/// are a protocol error, and at most this many out-of-order frames may be
/// stashed. Bounds the per-channel dedup state.
inline constexpr std::uint32_t kSeqWindow = 64;
/// Sanity cap on a single frame's payload (a migration payload is the
/// largest legitimate frame; anything near this is stream corruption).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

struct FrameHeader {
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  std::uint32_t seq = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

namespace detail {
inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace detail

/// Serialize a header into exactly kFrameHeaderBytes at `out`.
inline void encode_frame_header(const FrameHeader& h, std::uint8_t* out) {
  detail::put_u32(out + 0, kFrameMagic);
  detail::put_u16(out + 4, h.src);
  detail::put_u16(out + 6, h.dst);
  out[8] = 0;                      // reserved
  out[9] = 0;                      // flags (reserved)
  detail::put_u16(out + 10, 0);    // reserved
  detail::put_u32(out + 12, h.seq);
  detail::put_u32(out + 16, h.payload_bytes);
  detail::put_u32(out + 20, h.crc);
}

/// Parse kFrameHeaderBytes at `in`; throws on a bad magic, a nonzero
/// reserved byte 8 or an insane payload size (framing desync is
/// unrecoverable — fail loudly).
inline FrameHeader decode_frame_header(const std::uint8_t* in) {
  AB_REQUIRE(detail::get_u32(in + 0) == kFrameMagic,
             "wire: bad frame magic (stream desync)");
  FrameHeader h;
  h.src = detail::get_u16(in + 4);
  h.dst = detail::get_u16(in + 6);
  AB_REQUIRE(in[8] == 0, "wire: nonzero reserved header byte");
  h.seq = detail::get_u32(in + 12);
  h.payload_bytes = detail::get_u32(in + 16);
  AB_REQUIRE(h.payload_bytes <= kMaxFramePayload,
             "wire: frame payload size out of range");
  h.crc = detail::get_u32(in + 20);
  return h;
}

/// Aggregate transport/framing counters, summed across channels.
struct WireStats {
  std::int64_t frames_sent = 0;
  std::int64_t frames_recv = 0;     ///< frames accepted in sequence order
  std::int64_t payload_bytes = 0;   ///< clean payload bytes delivered
  std::int64_t wire_bytes = 0;      ///< everything sent incl. headers/faults
  std::int64_t crc_rejects = 0;     ///< frames discarded by the CRC check
  std::int64_t dup_discards = 0;    ///< duplicate frames dropped by seq
  std::int64_t reorder_stashes = 0; ///< out-of-order frames held for a gap
  std::int64_t stash_peak = 0;      ///< deepest stash any channel reached
};

/// Per-(src, dst) receive sequencer with a bounded sliding window.
///
/// Delivered sequence numbers are exactly [0, next_): in-order delivery
/// means a frame with seq < next_ is a duplicate, provided it is within
/// kSeqWindow of next_ (older is a protocol error — the window has slid
/// past it, which a correct sender can never cause). Frames ahead of
/// next_ wait in a stash bounded by the same window. state_bytes() is the
/// whole memory footprint; after every completed round it returns to the
/// same constant.
class FrameSequencer {
 public:
  /// Offer one CRC-verified frame. Invokes `sink(payload, nbytes)`
  /// for zero or more in-order deliveries (zero when the frame was a
  /// duplicate or is stashed awaiting a gap). The sink writes straight
  /// into the receiver's staging queue, so the in-order common case costs
  /// one copy, not an intermediate allocation per frame.
  template <class Sink>
  void accept(const FrameHeader& h, const std::uint8_t* payload,
              WireStats& stats, Sink&& sink) {
    if (h.seq < next_) {
      AB_REQUIRE(next_ - h.seq <= kSeqWindow,
                 "wire: frame seq " + std::to_string(h.seq) +
                     " older than the receive window (next " +
                     std::to_string(next_) + ")");
      ++stats.dup_discards;  // already delivered inside the window
      return;
    }
    if (h.seq > next_) {
      AB_REQUIRE(h.seq - next_ <= kSeqWindow,
                 "wire: frame seq " + std::to_string(h.seq) +
                     " beyond the receive window (next " +
                     std::to_string(next_) + ")");
      if (stash_.count(h.seq) != 0) {
        ++stats.dup_discards;  // duplicate of a stashed frame
        return;
      }
      stash_.emplace(h.seq, std::vector<std::uint8_t>(
                                payload, payload + h.payload_bytes));
      ++stats.reorder_stashes;
      stats.stash_peak = std::max(
          stats.stash_peak, static_cast<std::int64_t>(stash_.size()));
      return;
    }
    deliver(payload, h.payload_bytes, stats, sink);
    ++next_;
    // Drain everything the new arrival unblocked.
    for (auto it = stash_.find(next_); it != stash_.end();
         it = stash_.find(next_)) {
      deliver(it->second.data(), it->second.size(), stats, sink);
      stash_.erase(it);
      ++next_;
    }
  }

  /// Vector-collecting overload (tests and diagnostic callers).
  void accept(const FrameHeader& h, const std::uint8_t* payload,
              WireStats& stats, std::vector<std::vector<std::uint8_t>>* out) {
    accept(h, payload, stats, [out](const std::uint8_t* p, std::size_t n) {
      out->emplace_back(p, p + n);
    });
  }

  std::uint32_t next_seq() const { return next_; }
  std::size_t stash_depth() const { return stash_.size(); }

  /// Dedup/reassembly memory right now — the quantity that must stay flat
  /// over a long lossy run (bounded by kSeqWindow frames).
  std::size_t state_bytes() const {
    std::size_t n = sizeof(*this);
    for (const auto& [seq, s] : stash_) n += sizeof(seq) + s.capacity();
    return n;
  }

 private:
  template <class Sink>
  static void deliver(const std::uint8_t* payload, std::size_t n,
                      WireStats& stats, Sink&& sink) {
    ++stats.frames_recv;
    stats.payload_bytes += static_cast<std::int64_t>(n);
    sink(payload, n);
  }

  std::uint32_t next_ = 0;
  std::map<std::uint32_t, std::vector<std::uint8_t>> stash_;
};

}  // namespace wire
}  // namespace ab
