// Atomic whole-file writes: the one writer behind checkpoints, the tuning
// cache and metrics dumps.
#pragma once

#include <cstddef>
#include <string>

namespace ab {

/// Write `n` bytes at `data` to `path` atomically: assemble them in a
/// uniquely named sibling tmp file, flush, close, then rename over the
/// destination. A crash at any point leaves either the old file or a stray
/// tmp — never a half-written file under the real name — and a write or
/// rename that fails removes its tmp before throwing ab::Error. The tmp
/// name (`<path>.tmp.<pid>.<n>`) embeds the pid and a process-wide
/// counter: concurrent writers (SPMD worker processes saving the same
/// path, or two threads) each write their own tmp instead of interleaving
/// into a shared one, so the rename always publishes one writer's
/// complete bytes.
void write_file_atomic(const std::string& path, const void* data,
                       std::size_t n);

}  // namespace ab
