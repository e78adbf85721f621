// Metrics registry: counter/gauge/histogram semantics, handle stability,
// snapshot ordering, and cross-thread merge correctness under the
// ThreadPool (the sharded update path the solvers use).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ab::obs {
namespace {

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(Histogram, BucketPlacement) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1       -> bucket 0
  h.record(1.0);    // <= 1       -> bucket 0 (inclusive upper bound)
  h.record(5.0);    // <= 10      -> bucket 1
  h.record(100.0);  // <= 100     -> bucket 2
  h.record(1e6);    //            -> overflow
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("y");
  EXPECT_NE(a, b);
  // Creating more metrics must not invalidate earlier handles.
  // Built by append: GCC 12 reports a false -Wrestrict on the inlined
  // insert of "c" + std::to_string(i).
  for (int i = 0; i < 100; ++i)
    reg.counter(std::string("c").append(std::to_string(i)));
  EXPECT_EQ(reg.counter("x"), a);
  EXPECT_EQ(reg.counter("y"), b);
  Gauge* g = reg.gauge("g");
  EXPECT_EQ(reg.gauge("g"), g);
  Histogram* h = reg.histogram("h", {1.0, 2.0});
  // Later lookups ignore the bounds argument and return the original.
  EXPECT_EQ(reg.histogram("h", {99.0}), h);
  EXPECT_EQ(h->bounds().size(), 2u);
}

TEST(MetricsRegistry, SnapshotInRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("b")->add(2);
  reg.counter("a")->add(1);
  reg.gauge("z")->set(9.0);
  reg.gauge("y")->set(8.0);
  reg.histogram("h", {1.0})->record(0.5);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "b");
  EXPECT_EQ(s.counters[0].second, 2u);
  EXPECT_EQ(s.counters[1].first, "a");
  EXPECT_EQ(s.counters[1].second, 1u);
  ASSERT_EQ(s.gauges.size(), 2u);
  EXPECT_EQ(s.gauges[0].first, "z");
  EXPECT_EQ(s.gauges[1].first, "y");
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].name, "h");
  EXPECT_EQ(s.histograms[0].total, 1u);
  EXPECT_DOUBLE_EQ(s.histograms[0].sum, 0.5);
}

TEST(MetricsRegistry, MergesAcrossPoolThreads) {
  MetricsRegistry reg;
  Counter* c = reg.counter("hits");
  Histogram* h = reg.histogram("vals", {10.0, 100.0});
  ThreadPool pool(4);
  const std::int64_t n = 10000;
  pool.parallel_for(n, [&](std::int64_t i) {
    c->add(2);
    h->record(static_cast<double>(i % 200));
  });
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(2 * n));
  EXPECT_EQ(h->total_count(), static_cast<std::uint64_t>(n));
  // i % 200: values 0..10 -> bucket 0 (11 of every 200), 11..100 ->
  // bucket 1 (90 of every 200), 101..199 -> overflow (99 of every 200).
  const std::vector<std::uint64_t> counts = h->counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], static_cast<std::uint64_t>(n / 200 * 11));
  EXPECT_EQ(counts[1], static_cast<std::uint64_t>(n / 200 * 90));
  EXPECT_EQ(counts[2], static_cast<std::uint64_t>(n / 200 * 99));
}

TEST(FlopCounter, MergesAcrossPoolThreads) {
  FlopCounter fc;
  ThreadPool pool(4);
  const std::int64_t n = 10000;
  pool.parallel_for(n, [&](std::int64_t) { fc.add(3); });
  EXPECT_EQ(fc.total(), static_cast<std::uint64_t>(3 * n));
  fc.reset();
  EXPECT_EQ(fc.total(), 0u);
  fc.add(7);
  EXPECT_EQ(fc.total(), 7u);
}

}  // namespace
}  // namespace ab::obs
