// Wire-transport overhead ablation: what does carrying every exchange
// payload over the shared-memory wire cost against the in-process
// MessageBoard baseline?
//
// Two configurations of the same seeded
// rank-parallel run (distributed metadata on, regrids mid-run, so ghost
// fills, flux corrections, coarsen gathers, migrations, and topology
// deltas all cross the wire):
//
//   board    in-process MessageBoard only — the default path, no wire;
//   shm      shared-memory rings — every payload framed and CRC'd, and
//            the round trip is two memcpys through a MAP_SHARED ring, no
//            syscall.
//
// Both run single-process (hub process -1), so the wire path pays the
// full send+receive cost in one process — the honest in-process overhead
// number. The gated number is the shm delta: framing + CRC + ring copies
// must stay within the 2% gate vs board (tools/check_bench_regression.py
// --wire-overhead asserts it from the wire_transport section
// bench/run_benchmarks.sh writes into BENCH_solver.json).
//
// The two solvers advance in lockstep — the modes are bitwise identical,
// so step s is the same work in both — and each timed shm step is
// compared against its partner board step, with the reported overhead the
// median of the per-step ratios. Host-level drift (frequency scaling,
// background load on a shared box) moves adjacent steps together and
// cancels in the ratio; a min-across-runs scheme at run granularity does
// not survive it at the 2% level. The order alternates every step, because
// the second solver of an identical pair reads about 1% slower: with a
// fixed order that position effect would count as wire overhead.
//
// Usage: abl_wire_transport [--json] [--reps N] [--steps N] [--npes N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "parsim/rank_solver.hpp"
#include "parsim/wire/hub.hpp"
#include "physics/advection.hpp"

using namespace ab;

namespace {

/// Data-independent churn criterion (hash of seed/level/coords), same
/// shape as the equivalence harness, so every mode does identical work.
struct SeededTopologyCriterion {
  std::uint64_t seed = 0;
  int max_level = 1;

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  AdaptFlag operator()(const Forest<3>& f, const BlockStore<3>&,
                       int id) const {
    std::uint64_t h = mix(seed ^ static_cast<std::uint64_t>(
                                     f.level(id) * 0x9E37u));
    for (int d = 0; d < 3; ++d)
      h = mix(h ^ static_cast<std::uint64_t>(f.coords(id)[d] + 1));
    const int r = static_cast<int>(h % 4);
    if (r == 0 && f.level(id) < max_level) return AdaptFlag::Refine;
    if (r == 1 && f.level(id) > 0) return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

void gaussian_ic(const RVec<3>& x, LinearAdvection<3>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5, dz = x[2] - 0.5;
  s[0] = 1.0 + 0.8 * std::exp(-30.0 * (dx * dx + dy * dy + dz * dz));
}

RankSolver<3, LinearAdvection<3>>::Config base_config(int npes, int cells) {
  RankSolver<3, LinearAdvection<3>>::Config rcfg;
  rcfg.solver.forest.root_blocks = {2, 2, 2};
  rcfg.solver.forest.periodic = {true, true, true};
  rcfg.solver.forest.max_level = 1;
  rcfg.solver.cells_per_block = {cells, cells, cells};
  rcfg.solver.flux_correction = true;
  rcfg.npes = npes;
  rcfg.distributed_metadata = true;  // topology deltas + hull on the wire
  return rcfg;
}

struct WireLoad {
  double payload_mb_per_step = 0.0;
  double frames_per_step = 0.0;
};

constexpr wire::TransportKind kModes[] = {wire::TransportKind::Board,
                                          wire::TransportKind::Shm};
constexpr int kNumModes = 2;

/// One lockstep repetition: one solver per mode over the same seeded
/// script, each step timed, with the mode that steps first alternating
/// from step to step. Appends one per-step wall-ms sample per mode to
/// `ms[mode]`; `load` accumulates the shm solver's wire traffic over the
/// timed steps.
void lockstep_rep(int npes, int steps, std::vector<double> (&ms)[kNumModes],
                  WireLoad* load) {
  LinearAdvection<3> phys;
  phys.velocity = {0.7, -0.4, 0.3};
  std::vector<std::unique_ptr<RankSolver<3, LinearAdvection<3>>>> solvers;
  const std::uint64_t seed = 0x0B5ull;
  for (int m = 0; m < kNumModes; ++m) {
    auto rcfg = base_config(npes, 48);
    rcfg.transport = kModes[m];
    solvers.push_back(std::make_unique<RankSolver<3, LinearAdvection<3>>>(
        rcfg, phys));
    for (int round = 0; round < 2; ++round)
      solvers.back()->adapt(SeededTopologyCriterion{
          SeededTopologyCriterion::mix(seed +
                                       static_cast<std::uint64_t>(round)),
          1});
    solvers.back()->init(gaussian_ic);
  }

  std::uint64_t bytes0 = 0, frames0 = 0;
  if (const wire::WireHub* hub = solvers[1]->wire_hub()) {
    bytes0 = hub->stats().payload_bytes;
    frames0 = hub->stats().frames_sent;
  }

  for (int s = 0; s < steps; ++s) {
    for (int k = 0; k < kNumModes; ++k) {
      const int m = s % 2 == 0 ? k : kNumModes - 1 - k;
      auto& ranks = *solvers[static_cast<std::size_t>(m)];
      const double dt = ranks.compute_dt();
      const auto t0 = std::chrono::steady_clock::now();
      ranks.step(dt);
      const auto t1 = std::chrono::steady_clock::now();
      ms[m].push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (s % 3 == 2)  // keep regrid churn in the run, outside the windows
      for (auto& ranks : solvers)
        ranks->adapt(SeededTopologyCriterion{
            SeededTopologyCriterion::mix(seed * 977 +
                                         static_cast<std::uint64_t>(s)),
            1});
  }

  if (load != nullptr) {
    if (const wire::WireHub* hub = solvers[1]->wire_hub()) {
      load->payload_mb_per_step +=
          static_cast<double>(hub->stats().payload_bytes - bytes0) / 1e6 /
          steps;
      load->frames_per_step +=
          static_cast<double>(hub->stats().frames_sent - frames0) / steps;
    }
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int reps = 6, steps = 12, npes = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc)
      steps = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--npes") == 0 && i + 1 < argc)
      npes = std::atoi(argv[++i]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--reps N] [--steps N] [--npes N]\n",
                   argv[0]);
      return 2;
    }
  }

  // The ablation measures the transport Config knob, so an ambient
  // AB_TRANSPORT would silently collapse the modes into one.
  ::unsetenv("AB_TRANSPORT");

  std::vector<double> ms[kNumModes];
  WireLoad load;
  for (int r = 0; r < reps; ++r)
    lockstep_rep(npes, steps, ms, r == 0 ? &load : nullptr);

  // Per-step ratios against the partner board step, taken moments before
  // or after; the median is what survives a noisy shared host.
  std::vector<double> shm_ratio;
  for (std::size_t i = 0; i < ms[0].size(); ++i)
    shm_ratio.push_back(ms[1][i] / ms[0][i]);
  const double board = median(ms[0]);
  const double shm = median(ms[1]);
  const double shm_frac = median(shm_ratio) - 1.0;

  if (json) {
    std::printf(
        "{\n \"npes\": %d, \"steps\": %d, \"reps\": %d,\n"
        " \"board_ms_per_step\": %.6f,\n"
        " \"shm_ms_per_step\": %.6f,\n"
        " \"shm_overhead_frac\": %.6f,\n"
        " \"payload_mb_per_step\": %.3f,\n"
        " \"frames_per_step\": %.1f\n}\n",
        npes, steps, reps, board, shm, shm_frac, load.payload_mb_per_step,
        load.frames_per_step);
    return 0;
  }

  std::printf(
      "Wire transport overhead, P=%d single-process, median of %zu "
      "lockstep steps\n(%.2f MB payload, %.0f frames per step across the "
      "wire):\n\n",
      npes, ms[0].size(), load.payload_mb_per_step, load.frames_per_step);
  std::printf("  %-28s %10.3f ms/step\n", "board (in-process)", board);
  std::printf("  %-28s %10.3f ms/step  (%+.2f%%)\n", "shm (rings)", shm,
              100.0 * shm_frac);
  std::printf(
      "\nthe gated number is the shm row: framing + CRC + ring copies must "
      "stay\nwithin 2%% of board (tools/check_bench_regression.py "
      "--wire-overhead).\n");
  return 0;
}
