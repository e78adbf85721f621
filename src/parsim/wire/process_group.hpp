// Fork-N-workers harness for the wire.
//
// The SPMD model the wire tests run: construct the WireHub FIRST (its
// shared mapping must predate the fork so every worker inherits it), then
// fork one real OS process per simulated rank. Each worker binds the hub
// to itself (set_process), replicates the full deterministic simulation,
// and sends/receives only the channels its rank owns — remote payloads
// genuinely cross process boundaries through the shared rings. Each
// worker returns a result blob (serialized state, digests) to the parent
// over a per-worker pipe; the parent reaps every child and aggregates.
//
// Workers _exit() — never return into the caller's stack, atexit chain, or
// test framework — and report exceptions as failed results with the
// message in `error`, so a protocol bug surfaces as a readable assertion
// in the parent rather than a hung or half-dead process tree.
#pragma once

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace ab {
namespace wire {

struct WorkerResult {
  int worker = -1;
  bool ok = false;
  std::vector<std::uint8_t> blob;  ///< what the worker returned (ok only)
  std::string error;               ///< exception text / exit diagnosis
};

namespace detail {
inline void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      _exit(3);  // parent vanished; nothing sane left to do
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

inline std::vector<std::uint8_t> read_to_eof(int fd) {
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;
    out.insert(out.end(), buf, buf + r);
  }
  return out;
}
}  // namespace detail

/// Fork `nworkers` processes; worker `w` runs `fn(w)` and its returned
/// byte blob travels back over a pipe. Returns one WorkerResult per
/// worker (in worker order) once every child has exited. `fn` must be
/// callable in a forked child: no threads, no locks held across the call.
///
/// Worker wire protocol on the pipe: [ok u8][payload bytes to EOF] where
/// payload is the blob (ok=1) or the exception text (ok=0).
template <class Fn>
std::vector<WorkerResult> run_process_group(int nworkers, const Fn& fn) {
  AB_REQUIRE(nworkers >= 1, "run_process_group: nworkers must be >= 1");
  std::vector<pid_t> pids(static_cast<std::size_t>(nworkers), -1);
  std::vector<int> rfds(static_cast<std::size_t>(nworkers), -1);
  for (int w = 0; w < nworkers; ++w) {
    int fds[2];
    AB_REQUIRE(::pipe(fds) == 0, "run_process_group: pipe() failed");
    const pid_t pid = ::fork();
    AB_REQUIRE(pid >= 0, "run_process_group: fork() failed");
    if (pid == 0) {
      // Worker: close inherited read ends (ours and earlier siblings').
      ::close(fds[0]);
      for (int fd : rfds)
        if (fd >= 0) ::close(fd);
      std::uint8_t ok = 1;
      std::vector<std::uint8_t> payload;
      try {
        payload = fn(w);
      } catch (const std::exception& e) {
        ok = 0;
        const char* msg = e.what();
        payload.assign(msg, msg + std::strlen(msg));
      } catch (...) {
        ok = 0;
        static const char msg[] = "unknown exception";
        payload.assign(msg, msg + sizeof(msg) - 1);
      }
      detail::write_all(fds[1], &ok, 1);
      if (!payload.empty())
        detail::write_all(fds[1], payload.data(), payload.size());
      ::close(fds[1]);
      _exit(ok == 1 ? 0 : 1);
    }
    ::close(fds[1]);
    pids[static_cast<std::size_t>(w)] = pid;
    rfds[static_cast<std::size_t>(w)] = fds[0];
  }
  std::vector<WorkerResult> results(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    WorkerResult& r = results[static_cast<std::size_t>(w)];
    r.worker = w;
    const std::vector<std::uint8_t> raw =
        detail::read_to_eof(rfds[static_cast<std::size_t>(w)]);
    ::close(rfds[static_cast<std::size_t>(w)]);
    int status = 0;
    pid_t got;
    do {
      got = ::waitpid(pids[static_cast<std::size_t>(w)], &status, 0);
    } while (got < 0 && errno == EINTR);
    if (raw.empty()) {
      r.ok = false;
      r.error = "worker " + std::to_string(w) + " wrote nothing (status " +
                std::to_string(status) + ")";
      continue;
    }
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (raw[0] == 1 && clean) {
      r.ok = true;
      r.blob.assign(raw.begin() + 1, raw.end());
    } else {
      r.ok = false;
      r.error.assign(raw.begin() + 1, raw.end());
      if (r.error.empty())
        r.error = "worker " + std::to_string(w) + " died (status " +
                  std::to_string(status) + ")";
    }
  }
  return results;
}

}  // namespace wire
}  // namespace ab
