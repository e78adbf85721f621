#include "parsim/simulate.hpp"

#include "parsim/buffered_exchange.hpp"
#include "util/error.hpp"

namespace ab {

template <int D>
StepCost simulate_step(const GhostExchanger<D>& exchanger,
                       const std::vector<int>& owner, int npes,
                       const MachineModel& machine,
                       const std::function<std::uint64_t(int)>& flops_of) {
  AB_REQUIRE(npes >= 1, "simulate_step: npes must be >= 1");
  std::vector<PeLoad> pes(static_cast<std::size_t>(npes));
  // Compute phase: each PE updates its own blocks.
  for (int id : exchanger.forest().leaves()) {
    const int pe = owner[static_cast<std::size_t>(id)];
    AB_REQUIRE(pe >= 0 && pe < npes, "simulate_step: leaf without an owner");
    pes[static_cast<std::size_t>(pe)].flops += flops_of(id);
  }
  // Communication phase: one fill of the plan, laid out by rank pair the
  // way the rank solver's exchange sends it.
  BufferedExchange<D>(exchanger, owner, npes).add_per_pe_traffic(pes);
  return price_pes(pes, machine);
}

template StepCost simulate_step<1>(const GhostExchanger<1>&,
                                   const std::vector<int>&, int,
                                   const MachineModel&,
                                   const std::function<std::uint64_t(int)>&);
template StepCost simulate_step<2>(const GhostExchanger<2>&,
                                   const std::vector<int>&, int,
                                   const MachineModel&,
                                   const std::function<std::uint64_t(int)>&);
template StepCost simulate_step<3>(const GhostExchanger<3>&,
                                   const std::vector<int>&, int,
                                   const MachineModel&,
                                   const std::function<std::uint64_t(int)>&);

}  // namespace ab
