#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ab {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::int64_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  const std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossInvocations) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(257, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ActuallyUsesMultipleThreads) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.parallel_for(4096, [&](std::int64_t) {
    int c = concurrent.fetch_add(1) + 1;
    int p = peak.load();
    while (c > p && !peak.compare_exchange_weak(p, c)) {
    }
    // A short spin so overlaps are observable even on one core with
    // preemption; no sleeps (keeps the test fast).
    volatile int x = 0;
    for (int i = 0; i < 500; ++i) x = x + i;
    concurrent.fetch_sub(1);
  });
  // On a single-core machine the scheduler may serialize everything; just
  // require that the pool completed and never exceeded its size.
  EXPECT_LE(peak.load(), 4);
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), Error); }

TEST(ThreadPool, LargeChunkingStillCoversAll) {
  ThreadPool pool(8);
  const std::int64_t n = 7;  // fewer items than threads
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, BackToBackCallsStayApart) {
  // A worker can wake for one call only after the calling thread has run
  // all of its indices. It must not claim indices of the next call, nor
  // run the previous call's body (whose captures are gone) on them.
  ThreadPool pool(4);
  for (int call = 0; call < 200000; ++call) {
    const std::int64_t n = 5 + call % 4;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::int64_t i) { hits[i].fetch_add(1); });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "call " << call << " index " << i;
  }
}

}  // namespace
}  // namespace ab
