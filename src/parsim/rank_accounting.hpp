// Per-step traffic and imbalance accounting for the rank-parallel solver.
//
// RankSolver records what actually moved (ghost fills, flux-correction
// payloads, regrid gathers, block migration, all through MessageBoard
// channels) and how the work spread over ranks. A step's per-rank record
// (PeLoad: flops, pair-aggregated messages and bytes, on-rank ghost copies)
// is priced by price_pes (machine.hpp) — the function that prices Figures
// 6-7 through simulate_step — so the rank gauges and the figures describe
// one machine.
#pragma once

#include <cstdint>
#include <vector>

#include "parsim/machine.hpp"

namespace ab {

/// What one rank-parallel timestep moved and computed.
struct RankStepCost {
  std::int64_t ghost_messages = 0;  ///< pair-aggregated, all fills of the step
  std::int64_t ghost_bytes = 0;
  std::int64_t flux_messages = 0;   ///< flux-register correction payloads
  std::int64_t flux_bytes = 0;
  double imbalance = 1.0;  ///< block-count imbalance over the alive ranks
  /// Per-rank record (index = rank id), all rounds of the step: the rank's
  /// flops, its ghost-fill and flux-correction messages, and its fills'
  /// on-rank ghost copies. Same-rank flux corrections are not priced.
  std::vector<PeLoad> per_rank;
  /// The alive ranks' records priced on the machine model.
  StepCost model;
};

/// What one regrid (adapt + re-partition + migration) moved.
struct RegridCost {
  std::int64_t gather_messages = 0;  ///< coarsen gathers (remote siblings)
  std::int64_t gather_bytes = 0;
  std::int64_t migration_messages = 0;
  std::int64_t migration_bytes = 0;
  std::int64_t migrated_blocks = 0;
  /// Distributed-metadata only: binarized-octree topology deltas shipped
  /// to neighbor ranks after the regrid (zero on the global path).
  std::int64_t topo_delta_messages = 0;
  std::int64_t topo_delta_bytes = 0;
  double imbalance_before = 1.0;  ///< after adapt, before re-partitioning
  double imbalance_after = 1.0;
};

/// Running totals over a rank-parallel run.
struct RankRunTotals {
  std::int64_t steps = 0;
  std::int64_t regrids = 0;
  std::int64_t ghost_messages = 0;
  std::int64_t ghost_bytes = 0;
  std::int64_t flux_messages = 0;
  std::int64_t flux_bytes = 0;
  std::int64_t gather_messages = 0;
  std::int64_t gather_bytes = 0;
  std::int64_t migration_messages = 0;
  std::int64_t migration_bytes = 0;
  std::int64_t migrated_blocks = 0;
  std::int64_t topo_delta_messages = 0;
  std::int64_t topo_delta_bytes = 0;
  std::uint64_t flops = 0;

  void add(const RankStepCost& c) {
    ++steps;
    ghost_messages += c.ghost_messages;
    ghost_bytes += c.ghost_bytes;
    flux_messages += c.flux_messages;
    flux_bytes += c.flux_bytes;
    flops += c.model.total_flops;
  }
  void add(const RegridCost& c) {
    ++regrids;
    gather_messages += c.gather_messages;
    gather_bytes += c.gather_bytes;
    migration_messages += c.migration_messages;
    migration_bytes += c.migration_bytes;
    migrated_blocks += c.migrated_blocks;
    topo_delta_messages += c.topo_delta_messages;
    topo_delta_bytes += c.topo_delta_bytes;
  }
};

}  // namespace ab
