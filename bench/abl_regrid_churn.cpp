// Regrid-churn storm: alternating refine-all / coarsen-all rounds, the
// allocator-bound worst case for AMR. Every cycle frees and reallocates
// every leaf block, so the run time splits between interpolation (fixed)
// and the memory substrate: the solver's BlockPool recycles slabs and
// only memsets them, where malloc'd blocks this size would go through
// mmap/munmap and fresh page faults each round.
//
// Run via bench/run_benchmarks.sh, which records the medians in
// BENCH_solver.json.
#include <benchmark/benchmark.h>

#include <cmath>

#include "amr/solver.hpp"
#include "physics/mhd.hpp"

namespace ab {
namespace {

/// Data-independent storm driver: phase 0 refines every refinable leaf,
/// phase 1 coarsens every coarsenable one.
template <int D>
struct StormCriterion {
  int phase = 0;
  int max_level = 1;
  AdaptFlag operator()(const Forest<D>& f, const BlockStore<D>&,
                       int id) const {
    if (phase == 0 && f.level(id) < max_level) return AdaptFlag::Refine;
    if (phase == 1 && f.level(id) > 0) return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

template <int D>
typename AmrSolver<D, IdealMhd<D>>::Config churn_config() {
  typename AmrSolver<D, IdealMhd<D>>::Config cfg;
  cfg.forest.root_blocks = IVec<D>(2);
  for (int d = 0; d < D; ++d) cfg.forest.periodic[d] = true;
  cfg.forest.max_level = 1;
  // 8-variable MHD maximizes block payload per topology operation, so the
  // regrid cycle is dominated by block (re)allocation and data movement —
  // the substrate under test. Ghosted footprints sit far past the glibc
  // mmap threshold (~128 KiB): 2D 64^2 -> (68)^2 x 8 x 8 B ~ 289 KiB,
  // 3D 16^3 -> (20)^3 x 8 x 8 B ~ 500 KiB.
  cfg.cells_per_block = IVec<D>(D == 2 ? 64 : 16);
  cfg.num_threads = 1;  // isolate the allocator, not the thread pool
  return cfg;
}

template <int D>
void regrid_churn(benchmark::State& state) {
  IdealMhd<D> phys;
  AmrSolver<D, IdealMhd<D>> solver(churn_config<D>(), phys);
  auto ic = [&](const RVec<D>& x, typename IdealMhd<D>::State& s) {
    double r2 = 0.0;
    for (int d = 0; d < D; ++d) r2 += (x[d] - 0.5) * (x[d] - 0.5);
    RVec<3> v{};
    v[0] = 0.1;
    s = phys.from_primitive(1.0, v, {0.3, 0.3, 0.0},
                            1.0 + 2.0 * std::exp(-40.0 * r2));
  };
  solver.init(ic);
  StormCriterion<D> crit;

  // Blocks (re)allocated per refine+coarsen cycle: every child created by
  // the storm, plus every parent recreated on the way back down.
  const std::int64_t roots = solver.forest().num_leaves();
  const std::int64_t children = roots << D;
  const std::int64_t churned_doubles =
      (children + roots) * solver.store().layout().block_doubles();

  // One untimed cycle first: it populates the pool's chunks, so the timed
  // loop measures steady-state churn rather than first-touch growth.
  for (int phase : {0, 1}) {
    crit.phase = phase;
    solver.adapt(crit);
  }

  for (auto _ : state) {
    crit.phase = 0;
    solver.adapt(crit);
    crit.phase = 1;
    solver.adapt(crit);
  }
  state.SetItemsProcessed(state.iterations() * churned_doubles);
  state.counters["blocks/cycle"] = static_cast<double>(children + roots);
  const auto& st = solver.block_pool()->stats();
  state.counters["pool reuse"] =
      static_cast<double>(st.reuse_hits) /
      static_cast<double>(st.reuse_hits + st.fresh_allocs);
}

void BM_RegridChurn2D(benchmark::State& state) { regrid_churn<2>(state); }
void BM_RegridChurn3D(benchmark::State& state) { regrid_churn<3>(state); }
BENCHMARK(BM_RegridChurn2D)->UseRealTime();
BENCHMARK(BM_RegridChurn3D)->UseRealTime();

}  // namespace
}  // namespace ab

BENCHMARK_MAIN();
