// Kernel microbenchmarks (google-benchmark): per-cell throughput of the
// building blocks Figure 5 composes — the physics update kernels at both
// orders, the ghost-exchange phases, and prolongation/restriction — plus
// BM_SolverStep, an end-to-end driver step that tracks how well ghost
// exchange overlaps with interior compute across thread counts.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>

#include "amr/criteria.hpp"
#include "amr/solver.hpp"
#include "core/block_store.hpp"
#include "core/face_flux.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"
#include "util/aligned.hpp"

using namespace ab;

namespace {

template <class Phys>
void fill_uniform(const BlockLayout<3>& lay, double* base,
                  const typename Phys::State& u) {
  for (int v = 0; v < Phys::NVAR; ++v)
    for_each_cell<3>(lay.ghosted_box(), [&](IVec<3> p) {
      base[v * lay.field_stride() + lay.offset(p)] = u[v];
    });
}

template <class Phys>
void bench_update(benchmark::State& state, const Phys& phys,
                  const typename Phys::State& u, SpatialOrder order) {
  const int m = static_cast<int>(state.range(0));
  BlockLayout<3> lay(IVec<3>(m), 2, Phys::NVAR);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  fill_uniform<Phys>(lay, uin.data(), u);
  const RVec<3> dx{0.01, 0.01, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fv_block_update<3, Phys>(
        lay, uin.data(), uout.data(), phys, dx, 1e-4, order));
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
  state.counters["flops/cell"] = static_cast<double>(
      fv_update_flops<3, Phys>(lay, order) / lay.interior_cells());
}

void BM_AdvectionSecondOrder(benchmark::State& state) {
  LinearAdvection<3> phys;
  phys.velocity = {1.0, 0.5, -0.2};
  bench_update<LinearAdvection<3>>(state, phys, {1.0}, SpatialOrder::Second);
}
BENCHMARK(BM_AdvectionSecondOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_EulerFirstOrder(benchmark::State& state) {
  Euler<3> phys;
  bench_update<Euler<3>>(state, phys,
                         phys.from_primitive(1.0, {0.5, 0.1, -0.2}, 1.0),
                         SpatialOrder::First);
}
BENCHMARK(BM_EulerFirstOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_EulerSecondOrder(benchmark::State& state) {
  // A uniform state: every slope is zero, so a limiter that branches on
  // dm*dp <= 0 always takes its early-out and never divides here.
  // BM_EulerBlast3D runs the same kernel on real slopes.
  Euler<3> phys;
  bench_update<Euler<3>>(state, phys,
                         phys.from_primitive(1.0, {0.5, 0.1, -0.2}, 1.0),
                         SpatialOrder::Second);
}
BENCHMARK(BM_EulerSecondOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_EulerBlast3D(benchmark::State& state) {
  // The blast3d_t2 kernel, the microbenchmark for its traced
  // physics.kernel_ns_per_cell: 3D Euler, second order, van Leer, Rusanov.
  // The block holds the run's Gaussian pressure pulse (amplitude 9, width
  // 0.08, flow 0.6 per axis) at its finest spacing (1/128), centred on the
  // pulse. The density follows the pressure adiabatically, as it does once
  // the pulse starts to expand, so every variable has real slopes for the
  // van Leer limiter.
  using Phys = Euler<3>;
  const int m = static_cast<int>(state.range(0));
  Phys phys;
  BlockLayout<3> lay(IVec<3>(m), 2, Phys::NVAR);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  const RVec<3> dx{1.0 / 128, 1.0 / 128, 1.0 / 128};
  for_each_cell<3>(lay.ghosted_box(), [&](IVec<3> p) {
    double r2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double x = (p[d] + 0.5 - 0.5 * m) * dx[d];
      r2 += x * x;
    }
    const double pres = 1.0 + 9.0 * std::exp(-r2 / (0.08 * 0.08));
    const Phys::State u = phys.from_primitive(
        std::pow(pres, 1.0 / phys.gamma), {0.6, -0.6, 0.6}, pres);
    for (int v = 0; v < Phys::NVAR; ++v)
      uin.data()[v * lay.field_stride() + lay.offset(p)] = u[v];
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(fv_block_update<3, Phys>(
        lay, uin.data(), uout.data(), phys, dx, 1e-4, SpatialOrder::Second,
        LimiterKind::VanLeer, FluxScheme::Rusanov));
    benchmark::DoNotOptimize(uout.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
}
BENCHMARK(BM_EulerBlast3D)->Arg(8)->Arg(16);

void BM_MhdFirstOrder(benchmark::State& state) {
  IdealMhd<3> phys;
  bench_update<IdealMhd<3>>(
      state, phys,
      phys.from_primitive(1.0, {0.5, 0.1, -0.2}, {0.2, 0.3, 0.1}, 1.0),
      SpatialOrder::First);
}
BENCHMARK(BM_MhdFirstOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_MhdSecondOrder(benchmark::State& state) {
  IdealMhd<3> phys;
  bench_update<IdealMhd<3>>(
      state, phys,
      phys.from_primitive(1.0, {0.5, 0.1, -0.2}, {0.2, 0.3, 0.1}, 1.0),
      SpatialOrder::Second);
}
BENCHMARK(BM_MhdSecondOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_MhdHlld2D(benchmark::State& state) {
  // The ot2d_mhd kernel, the microbenchmark for its traced
  // physics.kernel_ns_per_cell: 2D MHD, second order, van Leer, HLLD, face
  // fluxes recorded for flux correction. The block holds the Orszag-Tang
  // initial state at the root-level spacing (1/32), so the faces fall in
  // every region of the HLLD wave fan as they do in the run.
  using Phys = IdealMhd<2>;
  const int m = static_cast<int>(state.range(0));
  Phys phys;
  BlockLayout<2> lay(IVec<2>(m), 2, Phys::NVAR);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  const RVec<2> dx{1.0 / 32, 1.0 / 32};
  const double pi = std::numbers::pi;
  const double b0 = 1.0 / std::sqrt(4.0 * pi);
  for_each_cell<2>(lay.ghosted_box(), [&](IVec<2> p) {
    const double x = (p[0] + 0.5) * dx[0], y = (p[1] + 0.5) * dx[1];
    const Phys::State u = phys.from_primitive(
        25.0 / (36.0 * pi),
        {-std::sin(2.0 * pi * y), std::sin(2.0 * pi * x), 0.0},
        {-b0 * std::sin(2.0 * pi * y), b0 * std::sin(4.0 * pi * x), 0.0},
        5.0 / (12.0 * pi));
    for (int v = 0; v < Phys::NVAR; ++v)
      uin.data()[v * lay.field_stride() + lay.offset(p)] = u[v];
  });
  FaceFluxStorage<2> face_fluxes;
  face_fluxes.allocate(lay);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fv_block_update<2, Phys>(
        lay, uin.data(), uout.data(), phys, dx, 1e-4, SpatialOrder::Second,
        LimiterKind::VanLeer, FluxScheme::Hlld, &face_fluxes));
    benchmark::DoNotOptimize(uout.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
}
BENCHMARK(BM_MhdHlld2D)->Arg(8)->Arg(16);

void BM_GhostFillUniform(benchmark::State& state) {
  // Same-level exchange over a periodic uniform 4^3-block forest.
  const int m = static_cast<int>(state.range(0));
  Forest<3>::Config fc;
  fc.root_blocks = IVec<3>(4);
  fc.periodic = {true, true, true};
  Forest<3> forest(fc);
  BlockLayout<3> lay(IVec<3>(m), 2, 8);
  BlockStore<3> store(lay);
  for (int id : forest.leaves()) store.ensure(id);
  GhostExchanger<3> gx(forest, lay);
  for (auto _ : state) gx.fill(store);
  state.SetItemsProcessed(state.iterations() * gx.total_cells());
  state.counters["ghost cells"] = static_cast<double>(gx.total_cells());
}
BENCHMARK(BM_GhostFillUniform)->Arg(8)->Arg(16);

void BM_GhostFillMixedLevels(benchmark::State& state) {
  // Exchange on a mixed-level forest: copies + restrictions + prolongs.
  const int m = static_cast<int>(state.range(0));
  Forest<3>::Config fc;
  fc.root_blocks = IVec<3>(2);
  fc.max_level = 2;
  Forest<3> forest(fc);
  forest.refine(forest.find(0, {0, 0, 0}));
  forest.refine(forest.find(1, {1, 1, 1}));
  BlockLayout<3> lay(IVec<3>(m), 2, 8);
  BlockStore<3> store(lay);
  for (int id : forest.leaves()) store.ensure(id);
  GhostExchanger<3> gx(forest, lay);
  for (auto _ : state) gx.fill(store);
  state.SetItemsProcessed(state.iterations() * gx.total_cells());
}
BENCHMARK(BM_GhostFillMixedLevels)->Arg(8)->Arg(16);

void BM_SolverStep(benchmark::State& state) {
  // Whole Heun step (two ghost fills + two stage sweeps + combine) on a
  // mixed-level 3D Euler grid. This is the driver-overlap metric: kernel
  // throughput is covered above; what moves here is how much of the ghost
  // exchange and boundary work hides behind interior compute.
  const int threads = static_cast<int>(state.range(0));
  Euler<3> phys;
  AmrSolver<3, Euler<3>>::Config cfg;
  cfg.forest.root_blocks = IVec<3>(2);
  cfg.forest.periodic = {true, true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = IVec<3>(16);
  cfg.num_threads = threads;
  AmrSolver<3, Euler<3>> solver(cfg, phys);
  auto ic = [&](const RVec<3>& x, Euler<3>::State& s) {
    double r2 = 0.0;
    for (int d = 0; d < 3; ++d) r2 += (x[d] - 0.5) * (x[d] - 0.5);
    s = phys.from_primitive(1.0 + 0.8 * std::exp(-40.0 * r2),
                            {0.3, -0.2, 0.1}, 1.0);
  };
  solver.init(ic);
  GradientCriterion<3> crit{0, 0.02, 0.005, 2};
  solver.adapt(crit);
  solver.init(ic);
  const double dt = 0.2 * solver.compute_dt();
  for (auto _ : state) solver.step(dt);
  state.SetItemsProcessed(
      state.iterations() * 2 * solver.total_interior_cells());
  state.counters["blocks"] =
      static_cast<double>(solver.forest().num_leaves());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_SolverStep)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

void BM_WaveSpeedScan(benchmark::State& state) {
  IdealMhd<3> phys;
  BlockLayout<3> lay(IVec<3>(16), 2, 8);
  AlignedBuffer u(lay.block_doubles());
  fill_uniform<IdealMhd<3>>(
      lay, u.data(),
      phys.from_primitive(1.0, {0.5, 0.1, -0.2}, {0.2, 0.3, 0.1}, 1.0));
  const RVec<3> dx{0.01, 0.01, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        block_wave_speed_sum<3, IdealMhd<3>>(lay, u.data(), phys, dx));
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
}
BENCHMARK(BM_WaveSpeedScan);

}  // namespace

BENCHMARK_MAIN();
