// Cross-rank causal tracing on a rank-parallel run: the straggler-
// diagnosis driver behind docs/OBSERVABILITY.md's critical-path example.
//
// Runs an Euler blast on P simulated ranks with a lossy wire (FaultPlan
// drop + corrupt), a regrid mid-run, and span collection on, then feeds
// the merged per-rank span buffers through obs::analyze_critical_path:
// per step, which rank/phase/message chain bounded the makespan, each
// rank's busy/wait/idle split (fractions sum to 100% of the step wall by
// construction), and the straggler score.
//
//   ./rank_trace [npes=64] [steps=6] [--trace=FILE] [--critical-path=FILE]
//                [--report=FILE]
//
// --trace=FILE          Chrome trace with per-rank process lanes; feed it
//                       to tools/critical_path.py for the same analysis
//                       offline.
// --critical-path=FILE  machine-readable ab.critical_path.v1 JSON.
// --report=FILE         per-step JSONL (tools/trace_summary.py).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "amr/criteria.hpp"
#include "obs/critical_path.hpp"
#include "obs/telemetry.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/euler.hpp"

using namespace ab;

int main(int argc, char** argv) {
  int npes = 64;
  int steps = 6;
  std::string trace_path, cp_path, report_path;
  int pos = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--trace=", 8) == 0)
      trace_path = argv[a] + 8;
    else if (std::strncmp(argv[a], "--critical-path=", 16) == 0)
      cp_path = argv[a] + 16;
    else if (std::strncmp(argv[a], "--report=", 9) == 0)
      report_path = argv[a] + 9;
    else
      (pos++ == 0 ? npes : steps) = std::atoi(argv[a]);
  }

  obs::Telemetry tel;
  tel.trace.set_enabled(true);
  if (!report_path.empty() && !tel.open_report(report_path)) {
    std::fprintf(stderr, "cannot open report file %s\n", report_path.c_str());
    return 1;
  }

  // Lossy wire throughout: dropped and corrupted payloads cost visible
  // retransmissions (cat "fault" spans) without changing any numerics.
  FaultPlan::Config fc;
  fc.seed = 0xab5eed01ull;
  fc.drop_rate = 0.04;
  fc.corrupt_rate = 0.04;
  FaultPlan faults(fc);

  Euler<2> phys;
  RankSolver<2, Euler<2>>::Config cfg;
  cfg.solver.forest.root_blocks = {8, 8};
  cfg.solver.forest.periodic = {true, true};
  cfg.solver.forest.max_level = 2;
  cfg.solver.cells_per_block = {8, 8};
  cfg.solver.rk_stages = 2;
  cfg.solver.flux_correction = true;
  cfg.solver.apply_positivity_fix = true;
  cfg.solver.telemetry = &tel;
  cfg.npes = npes;
  cfg.policy = PartitionPolicy::Hilbert;
  cfg.faults = &faults;
  RankSolver<2, Euler<2>> solver(cfg, phys);

  solver.init([&phys](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(
        1.0 + 0.4 * std::exp(-40.0 * (dx * dx + dy * dy)), {0.3, 0.1}, 1.0);
  });

  std::printf(
      "rank_trace: %d ranks (global metadata), %d steps, lossy wire, traced\n",
      npes, steps);
  // Thresholds sized to the blast's density gradient so the mid-run
  // regrid really refines: migration and coarsen-gather spans must show
  // up in the trace.
  GradientCriterion<2> crit{0, 0.015, 0.003, 2};
  for (int i = 0; i < steps; ++i) {
    solver.step(solver.compute_dt());
    // One regrid mid-run: refinement, gathers and migration all land in
    // the trace.
    if (i == steps / 2) {
      const auto r = solver.adapt(crit);
      std::printf("  regrid after step %d: +%d refined, -%d coarsened, "
                  "%d blocks\n",
                  i + 1, r.refined, r.coarsened,
                  solver.forest().num_leaves());
    }
  }
  const FaultStats& fs = faults.stats();
  std::printf("  wire: %lld transmissions, %lld dropped, %lld corrupted, "
              "%lld retries\n",
              static_cast<long long>(fs.transmissions),
              static_cast<long long>(fs.dropped),
              static_cast<long long>(fs.corrupted),
              static_cast<long long>(fs.retries));

  const obs::CriticalPathReport report =
      obs::analyze_critical_path(tel.trace.events());
  for (const obs::StepCriticalPath& s : report.steps) {
    // The chain hop that contributed the most time names the bottleneck.
    const obs::CriticalHop* top = nullptr;
    for (const obs::CriticalHop& h : s.chain)
      if (top == nullptr || h.dur_s > top->dur_s) top = &h;
    std::printf(
        "  step %lld: makespan %.3f ms over %zu ranks, straggler %.2f, "
        "bounded by %s",
        static_cast<long long>(s.step), s.makespan_s * 1e3, s.ranks.size(),
        s.straggler,
        top != nullptr
            ? (top->name + "[" + top->cat + "] on rank " +
               std::to_string(top->rank))
                  .c_str()
            : "nothing");
    std::printf(" (%zu-span chain)\n", s.chain.size());
  }

  if (!trace_path.empty()) {
    if (obs::write_chrome_trace(tel.trace, trace_path))
      std::printf("wrote %s (%zu spans) — try tools/critical_path.py on "
                  "it\n",
                  trace_path.c_str(), tel.trace.events().size());
    else
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  if (!cp_path.empty()) {
    if (obs::write_critical_path_json(report, cp_path))
      std::printf("wrote %s (ab.critical_path.v1)\n", cp_path.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", cp_path.c_str());
  }
  if (!report_path.empty())
    std::printf("wrote %s (1 record per step)\n", report_path.c_str());
  return 0;
}
