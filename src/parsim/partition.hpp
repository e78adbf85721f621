// Block-to-processor partitioners with load re-balancing support.
//
// The paper: "Whenever refinement or coarsening occurs, load re-balancing
// should be performed to insure high performance." These policies map the
// forest's leaves onto P processors; the space-filling-curve variants keep
// spatially-near blocks on the same PE (low ghost traffic), greedy-LPT
// optimizes only the load, round-robin is the naive baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/forest.hpp"
#include "util/error.hpp"
#include "util/hilbert.hpp"
#include "util/morton.hpp"
#include "util/vec.hpp"

namespace ab {

enum class PartitionPolicy {
  Morton,     ///< contiguous chunks of the Morton-ordered leaf list
  Hilbert,    ///< contiguous chunks of the Hilbert-ordered leaf list
  RoundRobin, ///< leaf i -> PE i mod P (ignores locality)
  GreedyLpt   ///< longest-processing-time greedy (load only, no locality)
};

/// Maps blocks to fine-grain curve-key intervals for one SFC policy.
/// partition_blocks' Hilbert policy sorts leaves by point_key, and the
/// forest's leaf order is the Morton order, so the distributed-metadata
/// directory ranges line up with the partition by construction.
template <int D>
class CurveMap {
 public:
  /// Policies with a curve-key order (the distributed-metadata
  /// prerequisite); RoundRobin/GreedyLpt scatter blocks arbitrarily.
  static bool supports(PartitionPolicy policy) {
    return policy == PartitionPolicy::Morton ||
           policy == PartitionPolicy::Hilbert;
  }

  CurveMap(const typename Forest<D>::Config& cfg, PartitionPolicy policy)
      : policy_(policy), max_level_(cfg.max_level),
        root_blocks_(cfg.root_blocks) {
    AB_REQUIRE(supports(policy),
               "CurveMap: distributed metadata needs an SFC policy "
               "(Morton or Hilbert)");
    int maxc = 0;
    for (int d = 0; d < D; ++d)
      maxc = std::max(maxc, cfg.root_blocks[d] << max_level_);
    bits_ = 1;
    while ((1 << bits_) < maxc) ++bits_;
  }

  int max_level() const { return max_level_; }
  const IVec<D>& root_blocks() const { return root_blocks_; }

  /// Curve key of one fine-grain (max_level) cell.
  std::uint64_t point_key(IVec<D> fine) const {
    return policy_ == PartitionPolicy::Morton ? morton_encode<D>(fine)
                                              : hilbert_index<D>(fine, bits_);
  }

  /// Fine keys covered by a block at `level`: 2^(D*(max_level-level)).
  std::uint64_t span(int level) const {
    return std::uint64_t{1} << (D * (max_level_ - level));
  }

  /// The block's aligned key interval [begin, begin + span(level)). The
  /// key of the low corner lies inside the interval for both curves;
  /// flooring to the span multiple gives the start (exact for Morton,
  /// needed for Hilbert, whose cube visit order varies by orientation).
  std::uint64_t interval_begin(int level, IVec<D> coords) const {
    const std::uint64_t s = span(level);
    return point_key(coords.shifted_left(max_level_ - level)) / s * s;
  }

 private:
  PartitionPolicy policy_;
  int max_level_;
  IVec<D> root_blocks_;
  int bits_;  // Hilbert grid: smallest 2^bits covering the finest extent
};

/// Assign every leaf of `forest` to one of `npes` processors. Returns a
/// vector indexed by node id (entries for non-leaf ids are -1). `weights`
/// gives per-leaf cost; empty means uniform (the common case — all blocks
/// have the same cell count). Weights must be non-negative; an all-zero
/// vector carries no cost information and is treated as uniform. `npes`
/// may exceed the leaf count (the surplus PEs simply receive no blocks).
template <int D>
std::vector<int> partition_blocks(const Forest<D>& forest, int npes,
                                  PartitionPolicy policy,
                                  const std::vector<double>& weights = {});

/// Load-imbalance ratio: (max PE load) / (mean PE load); 1.0 is perfect.
/// `weights`, if given, must be indexed by node id (same as `owner`).
///
/// Pinned edge behavior (always finite, never 0/0):
///   - Total weight of zero — no owned blocks at all, or every weight
///     0.0 — returns exactly 1.0: an empty partition is balanced by
///     convention, not a division by the zero mean.
///   - npes > owned-block count (some PEs necessarily empty): the mean
///     still divides by all `npes`, so the result is
///     max_load * npes / total — e.g. 4 unit blocks on 8 PEs gives 2.0.
///     Empty PEs are real imbalance: the machine is half idle.
double load_imbalance(const std::vector<int>& owner, int npes,
                      const std::vector<double>& weights = {});

extern template std::vector<int> partition_blocks<1>(const Forest<1>&, int,
                                                     PartitionPolicy,
                                                     const std::vector<double>&);
extern template std::vector<int> partition_blocks<2>(const Forest<2>&, int,
                                                     PartitionPolicy,
                                                     const std::vector<double>&);
extern template std::vector<int> partition_blocks<3>(const Forest<3>&, int,
                                                     PartitionPolicy,
                                                     const std::vector<double>&);

}  // namespace ab
