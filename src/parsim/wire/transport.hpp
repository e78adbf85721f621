// Byte transports between rank endpoints: the layer under the wire hub.
//
// A Transport owns one ordered byte stream per (src, dst) pair and moves
// raw bytes — framing, sequencing, CRC, and fault materialization all
// live above it (hub.hpp). Two real backends exist:
//
//   SocketTransport   one AF_UNIX SOCK_STREAM socketpair per channel —
//                     bytes cross the kernel, survive fork(), and carry
//                     real inter-process traffic;
//   ShmRingTransport  one single-producer/single-consumer ring per
//                     channel in a MAP_SHARED | MAP_ANONYMOUS mapping —
//                     fork-safe shared memory with acquire/release
//                     ordering, no kernel round trip per payload.
//
// Both are created BEFORE any fork so the kernel objects are inherited by
// every worker. Sends never block: bytes that do not fit the kernel
// buffer / ring spill into a per-channel process-local queue, and flush()
// pushes spilled bytes onward as space frees. Receivers poll recv_some()
// and call flush() between attempts, so a process blocked on a receive
// still makes progress on its own pending sends — the discipline that
// keeps bulk-synchronous rounds deadlock-free over finite buffers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "util/error.hpp"

namespace ab {
namespace wire {

/// Which transport carries the exchange traffic (Config::transport, env
/// override AB_TRANSPORT=board|socket|shm).
enum class TransportKind {
  Board = 0,   ///< in-process MessageBoard only (the default; no wire)
  Socket = 1,  ///< Unix-domain socketpairs
  Shm = 2,     ///< shared-memory rings
};

const char* transport_name(TransportKind k);

/// Parse a transport name ("board", "socket", "shm"); throws on anything
/// else so a typo'd AB_TRANSPORT fails loudly instead of silently running
/// in-process.
TransportKind parse_transport(const std::string& name);

/// Apply the AB_TRANSPORT env override (env wins over config, the same
/// precedence AB_DIST_META and AB_AUTOTUNE use).
TransportKind resolve_transport(TransportKind cfg);

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queue `n` bytes on the (src, dst) stream. Never blocks: what the
  /// backend cannot take immediately spills into a local queue.
  virtual void send(int src, int dst, const void* data, std::size_t n) = 0;

  /// Non-blocking read of up to `cap` bytes from the (src, dst) stream;
  /// returns the count read (0 = nothing available right now).
  virtual std::size_t recv_some(int src, int dst, void* out,
                                std::size_t cap) = 0;

  /// Push spilled bytes onward wherever space has freed, across all
  /// channels. Called by receivers between poll attempts.
  virtual void flush() = 0;

  /// Bytes spilled and still waiting, across all channels (0 when every
  /// send has fully left this process).
  virtual std::size_t pending_bytes() const = 0;

  virtual const char* name() const = 0;
};

/// Construct the backend for `kind` with all npes*npes channels eagerly
/// created (fork-safety: kernel objects must predate the fork). Board has
/// no transport — callers must not ask for one.
std::unique_ptr<Transport> make_transport(TransportKind kind, int npes);

}  // namespace wire
}  // namespace ab
