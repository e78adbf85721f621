// Bulk-synchronous timestep simulation on the machine model.
//
// One simulated timestep = every PE updates its blocks (compute), exchanges
// ghost cells with neighbor blocks (local copies on-PE, messages across
// PEs), and all PEs synchronize. The ghost traffic is taken verbatim from
// the GhostExchanger plan — the same op list the real numerics execute — so
// the simulated communication is exactly what the data structure requires.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/ghost.hpp"
#include "parsim/machine.hpp"

namespace ab {

/// Simulate one timestep: build each PE's record (its blocks' flops, its
/// pair-aggregated messages and their bytes, its on-PE ghost copies) from
/// the plan and price it with price_pes. `owner` maps node id -> PE (from
/// partition_blocks). `flops_of` gives the per-block update cost in flops
/// (e.g. rk_stages * fv_update_flops(...)).
template <int D>
StepCost simulate_step(const GhostExchanger<D>& exchanger,
                       const std::vector<int>& owner, int npes,
                       const MachineModel& machine,
                       const std::function<std::uint64_t(int)>& flops_of);

extern template StepCost simulate_step<1>(
    const GhostExchanger<1>&, const std::vector<int>&, int,
    const MachineModel&, const std::function<std::uint64_t(int)>&);
extern template StepCost simulate_step<2>(
    const GhostExchanger<2>&, const std::vector<int>&, int,
    const MachineModel&, const std::function<std::uint64_t(int)>&);
extern template StepCost simulate_step<3>(
    const GhostExchanger<3>&, const std::vector<int>&, int,
    const MachineModel&, const std::function<std::uint64_t(int)>&);

}  // namespace ab
