// The byte layer under the wire hub: shared-memory rings between rank
// endpoints.
//
// ShmRings owns one ordered byte stream per (src, dst) pair and moves raw
// bytes — framing, sequencing, CRC, and fault materialization all live
// above it (hub.hpp). Each channel is a single-producer/single-consumer
// ring in one MAP_SHARED | MAP_ANONYMOUS mapping: fork-safe shared memory
// with acquire/release ordering, no kernel round trip per payload. The
// mapping is created BEFORE any fork so every worker inherits it; every
// worker is forked inside the one process tree, so no worker needs a
// channel the mapping cannot carry.
//
// Sends never block: bytes that do not fit a ring spill into a
// per-channel process-local queue, and flush() pushes spilled bytes
// onward as space frees. Receivers poll recv_some() and call flush()
// between attempts, so a process blocked on a receive still makes progress
// on its own pending sends — the discipline that keeps bulk-synchronous
// rounds deadlock-free over finite rings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ab {
namespace wire {

/// FIFO byte queue with an amortized-flat footprint: the head cursor walks
/// forward and the storage resets whenever the queue drains (which it does
/// at the end of every exchange round). The rings spill the bytes they
/// could not take into one; the hub queues in-order payload past an open
/// receive in another. Process-local: after a fork each worker owns its
/// own copy.
class ByteQueue {
 public:
  bool empty() const { return head_ == data_.size(); }
  std::size_t size() const { return data_.size() - head_; }
  /// The queued bytes, oldest first.
  const std::uint8_t* front() const { return data_.data() + head_; }
  std::size_t capacity_bytes() const { return data_.capacity(); }
  void push(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  /// Discard the oldest `n` bytes.
  void drop(std::size_t n) {
    head_ += n;
    if (empty()) {
      data_.clear();
      head_ = 0;
    }
  }
  /// Move the oldest `n` bytes into `out`.
  void pop_into(void* out, std::size_t n) {
    // An empty queue's data() may be null, and memcpy from null is
    // undefined even for n == 0.
    if (n == 0) return;
    std::memcpy(out, front(), n);
    drop(n);
  }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t head_ = 0;
};

/// Which path carries the exchange traffic (Config::transport, env
/// override AB_TRANSPORT=board|shm).
enum class TransportKind {
  Board = 0,  ///< in-process MessageBoard only (the default; no wire)
  Shm = 2,    ///< framed payloads over shared-memory rings
};

const char* transport_name(TransportKind k);

/// Parse a transport name ("board", "shm"); throws on anything else so a
/// typo'd AB_TRANSPORT fails loudly instead of silently running
/// in-process.
TransportKind parse_transport(const std::string& name);

/// Apply the AB_TRANSPORT env override (env wins over config, the same
/// precedence AB_AUTOTUNE uses).
TransportKind resolve_transport(TransportKind cfg);

/// One SPSC byte ring per (src, dst) channel, all npes*npes of them
/// mapped eagerly at construction (fork-safety: the mapping must predate
/// the fork).
class ShmRings {
 public:
  explicit ShmRings(int npes);
  ~ShmRings();

  ShmRings(const ShmRings&) = delete;
  ShmRings& operator=(const ShmRings&) = delete;

  /// Queue `n` bytes on the (src, dst) stream. Never blocks: what the
  /// ring cannot take immediately spills into a local queue.
  void send(int src, int dst, const void* data, std::size_t n);

  /// Non-blocking read of up to `cap` bytes from the (src, dst) stream;
  /// returns the count read (0 = nothing available right now).
  std::size_t recv_some(int src, int dst, void* out, std::size_t cap);

  /// Push spilled bytes onward wherever space has freed, across all
  /// channels. Called by receivers between poll attempts.
  void flush();

  /// Bytes spilled and still waiting, across all channels (0 when every
  /// send has fully left this process).
  std::size_t pending_bytes() const;

 private:
  std::size_t index(int src, int dst) const;
  void flush_chan(std::size_t c);

  int npes_;
  std::size_t map_bytes_ = 0;
  std::uint8_t* base_ = nullptr;
  std::vector<ByteQueue> spills_;  // process-local, per channel
};

}  // namespace wire
}  // namespace ab
