// Local time stepping (subcycling): refinement in time as well as space.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "amr/solver.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"

namespace ab {
namespace {

template <class Phys>
typename AmrSolver<2, Phys>::Config base_cfg(bool subcycling) {
  typename AmrSolver<2, Phys>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.rk_stages = 1;
  cfg.subcycling = subcycling;
  cfg.cfl = 0.4;
  return cfg;
}

TEST(Subcycling, RejectsIncompatibleConfig) {
  LinearAdvection<2> phys;
  auto cfg = base_cfg<LinearAdvection<2>>(true);
  cfg.rk_stages = 2;
  EXPECT_THROW((AmrSolver<2, LinearAdvection<2>>(cfg, phys)), Error);
  cfg = base_cfg<LinearAdvection<2>>(true);
  cfg.flux_correction = true;
  EXPECT_THROW((AmrSolver<2, LinearAdvection<2>>(cfg, phys)), Error);
}

TEST(Subcycling, UniformGridMatchesGlobalStepBitwise) {
  // One level: subcycling degenerates to the plain forward-Euler step.
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.4};
  auto ic = [](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = std::sin(2 * M_PI * x[0]) + std::cos(2 * M_PI * x[1]);
  };
  auto run = [&](bool sub) {
    AmrSolver<2, LinearAdvection<2>> solver(
        base_cfg<LinearAdvection<2>>(sub), phys);
    solver.init(ic);
    for (int i = 0; i < 6; ++i) solver.step(0.004);
    std::vector<double> out;
    for (int id : solver.forest().leaves()) {
      ConstBlockView<2> v = solver.store().view(id);
      for_each_cell<2>(solver.store().layout().interior_box(),
                       [&](IVec<2> p) { out.push_back(v.at(0, p)); });
    }
    return out;
  };
  auto a = run(false), b = run(true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Subcycling, ConstantStateExactlySteadyOnMixedGrid) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, -0.7};
  AmrSolver<2, LinearAdvection<2>> solver(
      base_cfg<LinearAdvection<2>>(true), phys);
  solver.init([](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 5.0; });
  solver.adapt(RegionCriterion<2>{
      [](const RVec<2>& lo, const RVec<2>& hi) {
        return lo[0] < 0.5 && hi[0] > 0.3 && lo[1] < 0.5 && hi[1] > 0.3;
      },
      2});
  solver.init([](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 5.0; });
  ASSERT_GT(solver.forest().stats().max_level, 0);
  for (int i = 0; i < 8; ++i) solver.step(solver.compute_dt());
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(),
                     [&](IVec<2> p) { ASSERT_NEAR(v.at(0, p), 5.0, 1e-13); });
  }
}

TEST(Subcycling, AllowsLargerCoarseStep) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  auto make = [&](bool sub) {
    auto solver = std::make_unique<AmrSolver<2, LinearAdvection<2>>>(
        base_cfg<LinearAdvection<2>>(sub), phys);
    solver->init(
        [](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 1.0; });
    RegionCriterion<2> crit{
        [](const RVec<2>& lo, const RVec<2>& hi) {
          return lo[0] < 0.3 && hi[0] > 0.2 && lo[1] < 0.3 && hi[1] > 0.2;
        },
        2};
    solver->adapt(crit);  // one level per pass
    solver->adapt(crit);
    return solver;
  };
  auto global = make(false);
  auto sub = make(true);
  ASSERT_EQ(global->forest().stats().max_level, 2);
  // The subcycled root step is 2^2 = 4x the global finest-stable step.
  EXPECT_NEAR(sub->compute_dt() / global->compute_dt(), 4.0, 1e-10);
}

TEST(Subcycling, WorkAccountingIsExactPerStep) {
  // One subcycled step updates each level-l block exactly 2^(l - lmin)
  // times; a global step at the finest-stable dt covering the same physical
  // time would update EVERY block 2^(lmax - lmin) times.
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.3};
  AmrSolver<2, LinearAdvection<2>> solver(
      base_cfg<LinearAdvection<2>>(true), phys);
  solver.init([](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 1.0; });
  RegionCriterion<2> region{
      [](const RVec<2>& lo, const RVec<2>& hi) {
        return lo[0] < 0.3 && hi[0] > 0.2 && lo[1] < 0.3 && hi[1] > 0.2;
      },
      2};
  solver.adapt(region);
  solver.adapt(region);
  const auto st = solver.forest().stats();
  ASSERT_EQ(st.max_level, 2);
  std::uint64_t expect_sub = 0, expect_global = 0;
  for (int l = st.min_level; l <= st.max_level; ++l) {
    expect_sub += static_cast<std::uint64_t>(st.leaves_per_level[l])
                  << (l - st.min_level);
    expect_global += static_cast<std::uint64_t>(st.leaves_per_level[l])
                     << (st.max_level - st.min_level);
  }
  solver.step(solver.compute_dt());
  EXPECT_EQ(solver.block_updates(), expect_sub);
  EXPECT_LT(expect_sub, expect_global);  // the whole point of subcycling
}

TEST(Subcycling, AccuracyComparableToGlobalStepping) {
  // Advect a pulse across a static refined patch with both steppers; the
  // subcycled L1 error must stay within a modest factor of global stepping
  // (first order in time at coarse/fine interfaces either way).
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  auto ic = [](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + std::exp(-60.0 * ((x[0] - 0.3) * (x[0] - 0.3) +
                                   (x[1] - 0.5) * (x[1] - 0.5)));
  };
  auto region = RegionCriterion<2>{
      [](const RVec<2>& lo, const RVec<2>& hi) {
        return lo[0] < 0.8 && hi[0] > 0.4;
      },
      1};
  auto run = [&](bool sub) {
    AmrSolver<2, LinearAdvection<2>> solver(
        base_cfg<LinearAdvection<2>>(sub), phys);
    solver.init(ic);
    solver.adapt(region);
    solver.init(ic);
    const double t_end = 0.25;
    while (solver.time() < t_end - 1e-12)
      solver.step(std::min(solver.compute_dt(), t_end - solver.time()));
    double err = 0.0;
    std::int64_t n = 0;
    for (int id : solver.forest().leaves()) {
      ConstBlockView<2> v = solver.store().view(id);
      for_each_cell<2>(solver.store().layout().interior_box(),
                       [&](IVec<2> p) {
                         RVec<2> x = solver.cell_center(id, p);
                         double xx = x[0] - t_end;
                         xx -= std::floor(xx);
                         const double exact =
                             1.0 + std::exp(-60.0 * ((xx - 0.3) * (xx - 0.3) +
                                                     (x[1] - 0.5) *
                                                         (x[1] - 0.5)));
                         err += std::fabs(v.at(0, p) - exact);
                         ++n;
                       });
    }
    return err / n;
  };
  const double e_global = run(false);
  const double e_sub = run(true);
  EXPECT_LT(e_sub, 2.0 * e_global) << "global=" << e_global
                                   << " sub=" << e_sub;
  EXPECT_LT(e_sub, 0.02);
}

TEST(Subcycling, EulerPulseConservesMassClosely) {
  Euler<2> phys;
  auto cfg = base_cfg<Euler<2>>(true);
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  auto ic = [&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.4, dy = x[1] - 0.4;
    s = phys.from_primitive(1.0 + 0.3 * std::exp(-50 * (dx * dx + dy * dy)),
                            {0.4, 0.2}, 1.0);
  };
  solver.init(ic);
  GradientCriterion<2> crit{0, 0.04, 0.01, 2};
  solver.adapt(crit);
  solver.init(ic);
  ASSERT_GT(solver.forest().stats().max_level, 0);
  const double m0 = solver.total_conserved(0);
  for (int i = 0; i < 12; ++i) solver.step(solver.compute_dt());
  // Ghost-coupled subcycling is not exactly conservative; drift stays at
  // the truncation level.
  EXPECT_NEAR(solver.total_conserved(0), m0, 5e-3 * m0);
  // States stay physical.
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      ASSERT_GT(v.at(0, p), 0.0);
      ASSERT_TRUE(std::isfinite(v.at(3, p)));
    });
  }
}

// -------------------------------------------------------------------
// Golden bytes of subcycled mixed-level runs. A subcycled level pass fills
// coarse-sourced ghosts with the time blend of the coarse block's old and
// current prolongations, and the run refines and coarsens, so these digests
// pin the blend, the prolongation arithmetic of every Prolongation, and the
// refine/coarsen data transfer. The values were recorded with the per-cell
// prolongation the blend was first written with; every thread count must
// reproduce them.

/// FNV-1a over the leaf ids, levels, and interior bytes, in leaf order.
template <int D, class Phys>
std::uint64_t interior_digest(const AmrSolver<D, Phys>& solver) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  };
  const BlockLayout<D>& lay = solver.store().layout();
  for (int id : solver.forest().leaves()) {
    const int level = solver.forest().level(id);
    mix(&id, sizeof id);
    mix(&level, sizeof level);
    ConstBlockView<D> v = solver.store().view(id);
    for (int var = 0; var < lay.nvar; ++var)
      for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
        const double x = v.at(var, p);
        mix(&x, sizeof x);
      });
  }
  return h;
}

/// A subcycled Euler run on a periodic mixed-level grid: refine twice
/// around a pressure pulse, step, coarsen the half of the refined region
/// away from the pulse, and step again. Polynomial initial data keeps the
/// bytes free of libm.
template <int D>
std::uint64_t subcycled_digest(Prolongation prolongation, int threads) {
  using Phys = Euler<D>;
  typename AmrSolver<D, Phys>::Config cfg;
  cfg.forest.root_blocks = IVec<D>(2);
  for (int d = 0; d < D; ++d) cfg.forest.periodic[d] = true;
  cfg.forest.max_level = 2;
  cfg.cells_per_block = IVec<D>(D == 3 ? 4 : 8);
  cfg.rk_stages = 1;
  cfg.subcycling = true;
  cfg.prolongation = prolongation;
  cfg.num_threads = threads;
  Phys phys;
  AmrSolver<D, Phys> solver(cfg, phys);
  solver.init([&](const RVec<D>& x, typename Phys::State& s) {
    double r2 = 0.0;
    RVec<D> vel;
    for (int d = 0; d < D; ++d) {
      const double dx = x[d] - 0.3;
      r2 += dx * dx;
      vel[d] = 0.5 - 0.2 * d;
    }
    const double w = r2 < 0.04 ? (1.0 - r2 / 0.04) * (1.0 - r2 / 0.04) : 0.0;
    s = phys.from_primitive(1.0 + 0.4 * w, vel, 1.0 + 2.0 * w);
  });
  // Refine blocks overlapping [0.2, 0.45)^D; coarsen refined families whose
  // blocks lie outside [0.26, 0.3)^D.
  auto overlaps = [&solver](int id, double lo, double hi) {
    const RVec<D> blo = solver.forest().block_lo(id);
    const RVec<D> bhi = solver.forest().block_hi(id);
    for (int d = 0; d < D; ++d)
      if (!(blo[d] < hi && bhi[d] > lo)) return false;
    return true;
  };
  auto refine = [&](const Forest<D>& f, const BlockStore<D>&, int id) {
    return f.level(id) < 2 && overlaps(id, 0.2, 0.45) ? AdaptFlag::Refine
                                                      : AdaptFlag::Keep;
  };
  auto coarsen = [&](const Forest<D>& f, const BlockStore<D>&, int id) {
    return f.level(id) > 0 && !overlaps(id, 0.26, 0.3) ? AdaptFlag::Coarsen
                                                      : AdaptFlag::Keep;
  };
  solver.adapt(refine);
  solver.adapt(refine);
  EXPECT_EQ(solver.forest().stats().max_level, 2);
  for (int i = 0; i < 3; ++i) solver.step(solver.compute_dt());
  EXPECT_GT(solver.adapt(coarsen).coarsened, 0);
  EXPECT_EQ(solver.forest().stats().max_level, 2);
  for (int i = 0; i < 3; ++i) solver.step(solver.compute_dt());
  return interior_digest(solver);
}

struct SubcycledGolden {
  int dim;
  Prolongation prolongation;
  std::uint64_t digest;
};

TEST(Subcycling, MixedLevelRunsMatchGoldenDigests) {
  const SubcycledGolden goldens[] = {
      {1, Prolongation::Constant, 0xa85656ec2bb3f54cull},
      {1, Prolongation::LimitedLinear, 0xd491e09c184d1f64ull},
      {1, Prolongation::Linear, 0x99a9e6fab45621acull},
      {2, Prolongation::Constant, 0x9cf68af3a959714bull},
      {2, Prolongation::LimitedLinear, 0x66078575467f8ff8ull},
      {2, Prolongation::Linear, 0xd72fab481e50c6b0ull},
      {3, Prolongation::Constant, 0x262c25490672a511ull},
      {3, Prolongation::LimitedLinear, 0x851b82a197ee0cb0ull},
      {3, Prolongation::Linear, 0xe18deee4155d8e6cull},
  };
  for (const SubcycledGolden& g : goldens) {
    for (int threads : {1, 3}) {
      const std::uint64_t got =
          g.dim == 1   ? subcycled_digest<1>(g.prolongation, threads)
          : g.dim == 2 ? subcycled_digest<2>(g.prolongation, threads)
                       : subcycled_digest<3>(g.prolongation, threads);
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llx",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, g.digest)
          << "D=" << g.dim << " prolongation "
          << static_cast<int>(g.prolongation) << " threads " << threads
          << ": digest " << hex;
    }
  }
}

}  // namespace
}  // namespace ab
