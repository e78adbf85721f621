// A small persistent thread pool with a dynamic-chunk parallel_for.
//
// Adaptive blocks parallelize naturally over blocks: within each phase
// (ghost fill, stage update, combine) every unit of work writes a disjoint
// memory region, so a parallel_for with a barrier at the end is the whole
// shared-memory execution model — the on-node analogue of the paper's
// per-block message passing.
//
// parallel_for is a template over the callable: the body is type-erased as
// a single range-invoker function pointer, so each dynamically claimed
// chunk costs one indirect call and the per-index loop inlines into the
// callable's instantiation (no std::function allocation or per-index
// indirection on the hot path).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace ab {

class ThreadPool {
 public:
  /// Trip counts at or below this run inline on the calling thread: waking
  /// the pool costs more than a handful of iterations is worth.
  static constexpr std::int64_t kSerialCutoff = 4;

  /// Creates a pool that runs work on `num_threads` threads total (the
  /// calling thread participates; `num_threads - 1` workers are spawned).
  explicit ThreadPool(int num_threads)
      : num_threads_(num_threads) {
    AB_REQUIRE(num_threads >= 1, "ThreadPool: need at least one thread");
    workers_.reserve(static_cast<std::size_t>(num_threads - 1));
    for (int i = 0; i < num_threads - 1; ++i)
      workers_.emplace_back([this, i] {
        tls_index() = i + 1;
        worker_loop();
      });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int size() const { return num_threads_; }

  /// Index of the current thread within its pool: 0 for a thread that is
  /// not a pool worker (including the thread calling parallel_for, which
  /// participates in the work), 1..size()-1 for spawned workers. Lets
  /// callers keep one scratch arena per pool thread and index it without
  /// locking.
  static int this_thread_index() { return tls_index(); }

  /// Invoke fn(i) for every i in [0, n), distributing dynamically across
  /// the pool. Returns when all invocations finished. fn must be safe to
  /// call concurrently for distinct i. Exceptions thrown by fn terminate
  /// (the numerics never throw on valid data; programming errors should be
  /// loud). Tiny trip counts (n <= kSerialCutoff) run serially on the
  /// calling thread. Threads claim indices in chunks sized from n and the
  /// thread count.
  template <class F>
  void parallel_for(std::int64_t n, F&& fn) {
    if (n <= 0) return;
    if (num_threads_ == 1 || n <= kSerialCutoff) {
      for (std::int64_t i = 0; i < n; ++i) fn(i);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // A worker that woke for the previous call after its work ran out may
      // still be in drain(); resetting next_ under it would let it claim
      // this call's indices with the previous call's body.
      done_cv_.wait(lk, [this] { return active_ == 0; });
      ctx_ = const_cast<void*>(
          static_cast<const volatile void*>(std::addressof(fn)));
      invoke_ = [](void* ctx, std::int64_t begin, std::int64_t end) {
        Fn& f = *static_cast<Fn*>(ctx);
        for (std::int64_t i = begin; i < end; ++i) f(i);
      };
      next_.store(0, std::memory_order_relaxed);
      limit_ = n;
      chunk_ = std::max<std::int64_t>(1, n / (8 * num_threads_));
      ++generation_;
    }
    cv_.notify_all();
    drain();  // the calling thread works too
    // Every index is claimed once drain() returns, and a claimant leaves
    // drain() only after running its chunks: the work is done when no
    // worker is left inside.
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return active_ == 0; });
    invoke_ = nullptr;
    ctx_ = nullptr;
  }

 private:
  static int& tls_index() {
    static thread_local int idx = 0;
    return idx;
  }

  /// Runs chunks of the current job until its indices run out. Called by
  /// the thread that set the job up or by a worker counted in active_;
  /// either way the job fields cannot change until it returns.
  void drain() {
    for (;;) {
      const std::int64_t begin =
          next_.fetch_add(chunk_, std::memory_order_relaxed);
      if (begin >= limit_) break;
      invoke_(ctx_, begin, std::min(begin + chunk_, limit_));
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        ++active_;
      }
      drain();
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  void (*invoke_)(void*, std::int64_t, std::int64_t) = nullptr;
  void* ctx_ = nullptr;
  std::atomic<std::int64_t> next_{0};
  std::int64_t limit_ = 0;
  std::int64_t chunk_ = 1;
  std::uint64_t generation_ = 0;
  int active_ = 0;  ///< workers inside drain(); guarded by mu_
  bool shutdown_ = false;
};

}  // namespace ab
