// Per-step traffic and imbalance accounting for the rank-parallel solver,
// priced on the MachineModel.
//
// RankSolver records what actually moved (ghost fills, flux-correction
// payloads, regrid gathers, block migration, all through MessageBoard
// channels) and how the work spread over ranks; price_step() converts a
// step's record into modeled times using the same per-unit costs the
// standalone cost study (simulate.hpp) uses — so the execution path and the
// model speak the same currency.
#pragma once

#include <cstdint>
#include <vector>

#include "parsim/machine.hpp"

namespace ab {

/// One simulated rank's share of a communication round (sender and receiver
/// sides counted separately; messages are pair-aggregated like the cost
/// model's).
struct PeTraffic {
  std::int64_t sent_messages = 0;
  std::int64_t recv_messages = 0;
  std::int64_t sent_bytes = 0;
  std::int64_t recv_bytes = 0;

  void add_sent(std::int64_t bytes) {
    ++sent_messages;
    sent_bytes += bytes;
  }
  void add_recv(std::int64_t bytes) {
    ++recv_messages;
    recv_bytes += bytes;
  }
};

/// What one rank-parallel timestep moved and computed.
struct RankStepCost {
  std::int64_t ghost_messages = 0;  ///< pair-aggregated, all fills of the step
  std::int64_t ghost_bytes = 0;
  std::int64_t flux_messages = 0;   ///< flux-register correction payloads
  std::int64_t flux_bytes = 0;
  std::uint64_t flops = 0;          ///< total across ranks
  std::uint64_t max_rank_flops = 0; ///< slowest rank's share
  double imbalance = 1.0;           ///< block-count imbalance during the step
  /// Per-rank sent/received traffic (index = rank id), all rounds of the
  /// step: ghost fills plus flux-correction payloads.
  std::vector<PeTraffic> per_rank;

  // Filled in by price_step():
  double t_compute = 0.0;    ///< slowest rank's compute time [s]
  double t_comm = 0.0;       ///< modeled communication time [s]
  double t_step = 0.0;       ///< t_compute + t_comm
  double speedup = 0.0;      ///< one-PE time / t_step
  double efficiency = 0.0;   ///< speedup / npes
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
  double t_compute = 0.0;
  double t_comm = 0.0;
  double t_step = 0.0;

  void add(const RankStepCost& c) {
    ++steps;
    ghost_messages += c.ghost_messages;
    ghost_bytes += c.ghost_bytes;
    flux_messages += c.flux_messages;
    flux_bytes += c.flux_bytes;
    flops += c.flops;
    t_compute += c.t_compute;
    t_comm += c.t_comm;
    t_step += c.t_step;
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

/// Price a step's record on the machine model: compute time is the slowest
/// rank's flops, communication is latency per message plus payload over the
/// link bandwidth (bulk-synchronous round, as in simulate_step).
inline void price_step(RankStepCost& c, const MachineModel& m, int npes) {
  const std::int64_t msgs = c.ghost_messages + c.flux_messages;
  const std::int64_t bytes = c.ghost_bytes + c.flux_bytes;
  c.t_compute = static_cast<double>(c.max_rank_flops) / m.flops_per_sec;
  c.t_comm = static_cast<double>(msgs) * m.latency_sec +
             static_cast<double>(bytes) / m.bytes_per_sec;
  c.t_step = c.t_compute + c.t_comm;
  const double t_serial = static_cast<double>(c.flops) / m.flops_per_sec;
  c.speedup = c.t_step > 0.0 ? t_serial / c.t_step : 0.0;
  c.efficiency = npes > 0 ? c.speedup / npes : 0.0;
}

}  // namespace ab
