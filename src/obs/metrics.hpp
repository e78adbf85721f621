// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Every metric aggregates across threads through per-thread shards
// (util/thread_slot.hpp): writes are relaxed atomic updates to the calling
// thread's cache-line-padded slot, reads merge the slots. There is no
// locking on the update path; the registry mutex guards only registration
// and snapshot assembly. Handles returned by the registry are stable for
// the registry's lifetime — callers look a metric up once and keep the
// pointer.
//
// Observability is off by default everywhere in the library: solvers hold a
// nullable obs::Telemetry* and touch no metric when it is null, so the
// zero-cost-off guarantee is structural (no flag checks on hot paths, no
// clock reads, bitwise-identical numerics — instrumentation only ever
// reads solver state).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/thread_slot.hpp"

namespace ab::obs {

/// Monotone event count, sharded per thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    slots_[static_cast<std::size_t>(this_thread_slot())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t t = 0;
    for (const Slot& s : slots_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }
  void reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kMaxThreadSlots> slots_{};
};

/// Last-write-wins instantaneous value (dt, imbalance, drift, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
/// overflow bucket catches the rest. Bucket counts and the running sum are
/// sharded per thread like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)) {
    AB_REQUIRE(!bounds_.empty(), "Histogram: need at least one bucket bound");
    for (std::size_t i = 1; i < bounds_.size(); ++i)
      AB_REQUIRE(bounds_[i - 1] < bounds_[i],
                 "Histogram: bounds must be strictly increasing");
    for (Shard& sh : shards_)
      sh.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }

  void record(double v) {
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    Shard& sh = shards_[static_cast<std::size_t>(this_thread_slot())];
    sh.counts[b].fetch_add(1, std::memory_order_relaxed);
    sh.sum.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }

  /// Merged bucket counts (size bounds().size() + 1; last = overflow).
  std::vector<std::uint64_t> counts() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
    for (const Shard& sh : shards_)
      for (std::size_t b = 0; b < out.size(); ++b)
        out[b] += sh.counts[b].load(std::memory_order_relaxed);
    return out;
  }
  std::uint64_t total_count() const {
    std::uint64_t t = 0;
    for (const Shard& sh : shards_)
      for (const std::atomic<std::uint64_t>& c : sh.counts)
        t += c.load(std::memory_order_relaxed);
    return t;
  }
  double sum() const {
    double t = 0.0;
    for (const Shard& sh : shards_)
      t += sh.sum.load(std::memory_order_relaxed);
    return t;
  }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Shard, kMaxThreadSlots> shards_{};
};

/// Point-in-time merged view of a registry, in registration order.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t total = 0;
    double sum = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<Hist> histograms;
};

/// Find-or-create registry of named metrics. Handle lookup takes a mutex
/// (call it once and cache the pointer); metric updates never lock.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [n, c] : counters_)
      if (n == name) return &c;
    counters_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple());
    return &counters_.back().second;
  }

  Gauge* gauge(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [n, g] : gauges_)
      if (n == name) return &g;
    gauges_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name),
                         std::forward_as_tuple());
    return &gauges_.back().second;
  }

  /// Bucket bounds are fixed by the first registration of `name`; later
  /// lookups return the existing histogram regardless of `upper_bounds`.
  Histogram* histogram(const std::string& name,
                       std::vector<double> upper_bounds) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [n, h] : histograms_)
      if (n == name) return &h;
    histograms_.emplace_back(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple(std::move(upper_bounds)));
    return &histograms_.back().second;
  }

  MetricsSnapshot snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    MetricsSnapshot s;
    s.counters.reserve(counters_.size());
    for (const auto& [n, c] : counters_) s.counters.emplace_back(n, c.value());
    s.gauges.reserve(gauges_.size());
    for (const auto& [n, g] : gauges_) s.gauges.emplace_back(n, g.value());
    s.histograms.reserve(histograms_.size());
    for (const auto& [n, h] : histograms_) {
      MetricsSnapshot::Hist hs;
      hs.name = n;
      hs.bounds = h.bounds();
      hs.counts = h.counts();
      hs.total = h.total_count();
      hs.sum = h.sum();
      s.histograms.push_back(std::move(hs));
    }
    return s;
  }

 private:
  mutable std::mutex mu_;
  // deques: handle addresses stay stable as metrics are added.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
};

/// Publish a running total kept elsewhere (a block pool's, a wire hub's, a
/// fault plan's) as a counter: add what the total grew by since
/// `published`, its value at the last call, and remember it.
inline void publish_total(MetricsRegistry& m, const char* name,
                          std::int64_t total, std::int64_t& published) {
  m.counter(name)->add(
      total > published ? static_cast<std::uint64_t>(total - published) : 0);
  published = total;
}

}  // namespace ab::obs
