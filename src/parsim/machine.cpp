#include "parsim/machine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ab {

StepCost price_pes(const std::vector<PeLoad>& pes, const MachineModel& m) {
  AB_REQUIRE(!pes.empty(), "price_pes: need at least one PE");
  StepCost c;
  c.compute.resize(pes.size());
  c.comm.resize(pes.size());
  for (std::size_t p = 0; p < pes.size(); ++p) {
    const PeLoad& l = pes[p];
    c.compute[p] = static_cast<double>(l.flops) / m.flops_per_sec;
    c.comm[p] =
        static_cast<double>(l.sent_messages + l.recv_messages) *
            m.latency_sec +
        static_cast<double>(l.sent_bytes + l.recv_bytes) / m.bytes_per_sec +
        static_cast<double>(l.local_bytes) / m.local_bytes_per_sec;
    c.max_compute = std::max(c.max_compute, c.compute[p]);
    c.max_comm = std::max(c.max_comm, c.comm[p]);
    c.t_step = std::max(c.t_step, c.compute[p] + c.comm[p]);
    c.total_flops += l.flops;
    c.remote_bytes += l.sent_bytes;
    c.local_bytes += l.local_bytes;
    c.messages += l.sent_messages;
  }
  c.t_serial = static_cast<double>(c.total_flops) / m.flops_per_sec +
               static_cast<double>(c.local_bytes + c.remote_bytes) /
                   m.local_bytes_per_sec;
  c.speedup = c.t_step > 0.0 ? c.t_serial / c.t_step : 0.0;
  c.efficiency = c.speedup / static_cast<double>(pes.size());
  c.gflops = c.t_step > 0.0
                 ? static_cast<double>(c.total_flops) / c.t_step / 1e9
                 : 0.0;
  return c;
}

}  // namespace ab
