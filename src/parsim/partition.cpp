#include "parsim/partition.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/error.hpp"

namespace ab {

namespace {

/// Split an ordered leaf list into `npes` contiguous weighted chunks.
void assign_contiguous(const std::vector<int>& ordered,
                       const std::vector<double>& w, int npes,
                       std::vector<int>& owner) {
  double total = 0.0;
  for (double x : w) total += x;
  double acc = 0.0;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    // PE p owns leaves whose weight midpoint falls in [p*total/P, ...).
    const double mid = acc + 0.5 * w[i];
    int pe = static_cast<int>(mid / total * npes);
    pe = std::min(pe, npes - 1);
    owner[ordered[i]] = pe;
    acc += w[i];
  }
}

}  // namespace

template <int D>
std::vector<int> partition_blocks(const Forest<D>& forest, int npes,
                                  PartitionPolicy policy,
                                  const std::vector<double>& weights) {
  AB_REQUIRE(npes >= 1, "partition_blocks: npes must be >= 1");
  const std::vector<int>& leaves = forest.leaves();
  const std::size_t n = leaves.size();
  AB_REQUIRE(weights.empty() || weights.size() == n,
             "partition_blocks: weights size must match leaf count");
  std::vector<double> w = weights;
  if (w.empty()) w.assign(n, 1.0);
  double total = 0.0;
  for (double x : w) {
    AB_REQUIRE(x >= 0.0, "partition_blocks: weights must be non-negative");
    total += x;
  }
  // All-zero weights carry no cost information; treat them as uniform so
  // the contiguous splitters don't divide by zero and GreedyLpt doesn't
  // collapse every block onto PE 0.
  if (total <= 0.0) w.assign(n, 1.0);

  std::vector<int> owner(static_cast<std::size_t>(forest.node_capacity()), -1);

  switch (policy) {
    case PartitionPolicy::Morton:
      // forest.leaves() is already ordered along the global Morton curve.
      assign_contiguous(leaves, w, npes, owner);
      break;

    case PartitionPolicy::Hilbert: {
      // Sort leaves (and their weights) by the Hilbert key of their
      // low-corner fine cell: the key the distributed-metadata directory
      // maps blocks by.
      const CurveMap<D> curve(forest.config(), PartitionPolicy::Hilbert);
      const int ml = forest.config().max_level;
      std::vector<std::uint64_t> keys(n);
      for (std::size_t i = 0; i < n; ++i) {
        const int id = leaves[i];
        keys[i] = curve.point_key(
            forest.coords(id).shifted_left(ml - forest.level(id)));
      }
      std::vector<std::size_t> perm(n);
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      std::sort(perm.begin(), perm.end(),
                [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
      std::vector<int> sorted(n);
      std::vector<double> wsorted(n);
      for (std::size_t i = 0; i < n; ++i) {
        sorted[i] = leaves[perm[i]];
        wsorted[i] = w[perm[i]];
      }
      assign_contiguous(sorted, wsorted, npes, owner);
      break;
    }

    case PartitionPolicy::RoundRobin:
      for (std::size_t i = 0; i < n; ++i)
        owner[leaves[i]] = static_cast<int>(i % static_cast<std::size_t>(npes));
      break;

    case PartitionPolicy::GreedyLpt: {
      // Longest-processing-time: heaviest block to the least-loaded PE.
      std::vector<std::size_t> perm(n);
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a,
                                                     std::size_t b) {
        return w[a] > w[b];
      });
      using Load = std::pair<double, int>;  // (load, pe)
      std::priority_queue<Load, std::vector<Load>, std::greater<Load>> pq;
      for (int p = 0; p < npes; ++p) pq.emplace(0.0, p);
      for (std::size_t i : perm) {
        auto [load, pe] = pq.top();
        pq.pop();
        owner[leaves[i]] = pe;
        pq.emplace(load + w[i], pe);
      }
      break;
    }
  }
  return owner;
}

double load_imbalance(const std::vector<int>& owner, int npes,
                      const std::vector<double>& weights) {
  AB_REQUIRE(npes >= 1, "load_imbalance: npes must be >= 1");
  AB_REQUIRE(weights.empty() || weights.size() == owner.size(),
             "load_imbalance: weights must be indexed by node id");
  std::vector<double> load(static_cast<std::size_t>(npes), 0.0);
  double total = 0.0;
  for (std::size_t id = 0; id < owner.size(); ++id) {
    if (owner[id] < 0) continue;
    const double w = weights.empty() ? 1.0 : weights[id];
    load[static_cast<std::size_t>(owner[id])] += w;
    total += w;
  }
  // Zero total (no owned blocks, or all-zero weights) would be 0/0 below;
  // an empty partition is perfectly balanced by convention (see header).
  if (total == 0.0) return 1.0;
  const double mean = total / npes;
  double mx = 0.0;
  for (double l : load) mx = std::max(mx, l);
  return mx / mean;
}

template std::vector<int> partition_blocks<1>(const Forest<1>&, int,
                                              PartitionPolicy,
                                              const std::vector<double>&);
template std::vector<int> partition_blocks<2>(const Forest<2>&, int,
                                              PartitionPolicy,
                                              const std::vector<double>&);
template std::vector<int> partition_blocks<3>(const Forest<3>&, int,
                                              PartitionPolicy,
                                              const std::vector<double>&);

}  // namespace ab
