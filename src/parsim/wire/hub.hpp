// The wire hub: framing, sequencing and fault materialization over a byte
// Transport.
//
// MessageBoard calls send() once per channel it flushes and recv() when a
// read passes the channel's pulled bytes; the hub turns each payload into
// CRC-framed wire traffic (frame.hpp) over real sockets or shared-memory
// rings (transport.hpp). Receives overwrite the caller's staging buffer with
// the bytes that physically crossed the wire, so the wire copy is the
// authoritative one a receiver consumes — in single-process mode this
// makes every equivalence test's payload take a genuine kernel round
// trip; in multi-process (SPMD) mode it is how worker processes obtain
// remote data at all. Each (src, dst) channel is one in-order stream:
// every exchange round receives all it sends before the next round
// starts, so the receiver reads payloads in the order they were sent.
//
// Fault materialization: FaultPlan::transmit() reports which faults it
// drew (WireFaults), and the hub realizes them as frames — a corruption
// becomes a bad frame (payload bit flipped, header CRC of the clean
// payload) followed by the clean retransmission under the same sequence
// number; a duplicate sends the frame twice; a reorder splits the payload
// into two frames sent sequence-swapped. The receiver's CRC check and
// bounded FrameSequencer absorb all of it, so the lossy-wire recovery
// protocol the fault tests assert is exercised on real bytes, not
// simulated in place.
//
// Process model: set_process(w) makes the hub act for worker process `w`
// under the identity rank->process map — it wire-sends only channels
// whose source rank it owns and wire-receives only channels whose
// destination rank it owns. set_process(-1) (the default) is the
// single-process mode where every payload is both sent and received
// through the kernel by the same process.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "parsim/fault.hpp"
#include "parsim/wire/frame.hpp"
#include "parsim/wire/transport.hpp"

namespace ab {
namespace wire {

class WireHub {
 public:
  /// Creates the transport with all channels eagerly allocated (fork the
  /// workers AFTER constructing the hub so they inherit the channels).
  WireHub(TransportKind kind, int npes);
  ~WireHub();

  WireHub(const WireHub&) = delete;
  WireHub& operator=(const WireHub&) = delete;

  TransportKind kind() const { return kind_; }
  const char* transport() const;
  int npes() const { return npes_; }

  /// Bind this hub (post-fork) to worker process `w` in [0, npes), or -1
  /// for single-process mode.
  void set_process(int w);
  int process() const { return my_process_; }

  /// Does this process drive the sending side of channels sourced at
  /// rank `pe`? (Identity rank->process map; -1 owns everything.)
  bool sends(int pe) const { return my_process_ < 0 || pe == my_process_; }
  /// Does this process consume the receiving side of channels destined
  /// for rank `pe`?
  bool receives(int pe) const { return my_process_ < 0 || pe == my_process_; }

  /// Frame and transmit `n` doubles on the (src, dst) stream, realizing
  /// the faults `wf` reports as actual wire frames. No-op unless this
  /// process sends for `src`.
  void send(int src, int dst, const double* data, std::size_t n,
            const WireFaults& wf = WireFaults{});

  /// Receive exactly the next `n` doubles of the (src, dst) stream into
  /// `out`, blocking (poll + flush) until they arrive. No-op unless this
  /// process receives for `dst`.
  void recv(int src, int dst, double* out, std::size_t n);

  const WireStats& stats() const { return stats_; }

  /// Total receive-side dedup/reassembly memory across channels. Bounded
  /// by kSeqWindow per channel; the long-lossy-run regression asserts it
  /// returns to a flat baseline after every round.
  std::size_t dedup_state_bytes() const;

  /// Seconds recv() waits before declaring the peer dead. Tests shrink
  /// this to fail fast on protocol bugs.
  void set_recv_timeout(double seconds) { timeout_sec_ = seconds; }

 private:
  struct Chan;
  /// An in-flight recv(): in-order payload bytes land straight in the
  /// caller's buffer (up to `want`) instead of bouncing through the
  /// channel's staging queue.
  struct DirectFill {
    std::uint8_t* out;
    std::size_t want;
    std::size_t filled;
  };

  Chan& chan(int src, int dst);
  void emit_frame(Chan& ch, int src, int dst, std::uint32_t seq,
                  const std::uint8_t* payload, std::size_t nbytes,
                  std::uint32_t crc_of, bool corrupt);
  /// Read and parse whatever the transport has; returns true on progress
  /// (bytes read or frames parsed). Parsing pauses once `df` is satisfied
  /// — later frames stay unparsed for the recv() that wants them.
  bool pump(Chan& ch, int src, int dst, DirectFill& df);

  TransportKind kind_;
  int npes_;
  int my_process_ = -1;
  double timeout_sec_ = 60.0;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Chan>> chans_;
  WireStats stats_;
};

}  // namespace wire
}  // namespace ab
