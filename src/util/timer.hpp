// Wall-clock timing and floating-point-operation accounting.
//
// Timers are only used by benchmarks and examples; library code paths are
// deterministic. The flop counts feed the parallel machine model so the
// simulated Cray T3D charges exactly the arithmetic the real kernels do.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/thread_slot.hpp"

namespace ab {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates a count of floating-point operations reported by kernels.
/// Safe from concurrent block loops: add() is a relaxed increment of
/// the calling thread's cache-line-padded slot (util/thread_slot.hpp);
/// total() merges the slots on read. Drivers with an obs::Telemetry
/// attached republish the merged total through the metrics registry
/// ("solver.flops").
class FlopCounter {
 public:
  void add(std::uint64_t flops) {
    slots_[static_cast<std::size_t>(this_thread_slot())].v.fetch_add(
        flops, std::memory_order_relaxed);
  }
  void reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const Slot& s : slots_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kMaxThreadSlots> slots_{};
};

}  // namespace ab
