// Golden bytes of short runs shaped like the three benchmark workloads
// (perfbench/): serial 2D Orszag-Tang MHD with HLLD, a 3D Euler blast on two
// threads, and an 8-rank Euler run with seeded regrid churn on the board and
// shared-memory wires. Every relative test (rank against serial, thread
// counts, lane widths, layouts) stays green when all paths change their
// bytes together; these digests do not. Each run regrids at least once. A
// change that moves a digest must re-record it and say why.
//
// The initial data are polynomial, so the bytes do not depend on libm.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "amr/criteria.hpp"
#include "amr/solver.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/euler.hpp"
#include "physics/mhd.hpp"
#include "support/churn_criterion.hpp"
#include "support/interior_digest.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

using testing::ChurnCriterion;
using testing::digest_hex;
using testing::interior_digest;
using testing::splitmix64;

/// A periodic stand-in for sin(2 pi x): 6 sqrt(3) X (1 - X) (1 - 2X) on the
/// fractional part X, odd about X = 1/2 with unit peak and matching slopes
/// at the period ends.
double wave(double x) {
  const double f = x - std::floor(x);
  return 10.392304845413264 * f * (1.0 - f) * (1.0 - 2.0 * f);
}

/// Refine the blocks overlapping the square [lo, hi)^2 up to level 2, and
/// coarsen every refined block outside it: a data-independent regrid that
/// leaves coarse/fine faces around the square.
struct RegionCriterion {
  double lo = 0.0;
  double hi = 0.0;

  AdaptFlag operator()(const Forest<2>& f, const BlockStore<2>&,
                       int id) const {
    bool inside = true;
    for (int d = 0; d < 2; ++d)
      inside = inside && f.block_lo(id)[d] < hi && f.block_hi(id)[d] > lo;
    if (inside) return f.level(id) < 2 ? AdaptFlag::Refine : AdaptFlag::Keep;
    return f.level(id) > 0 ? AdaptFlag::Coarsen : AdaptFlag::Keep;
  }
};

/// ot2d_mhd's shape: serial Orszag-Tang vortex, HLLD, flux correction and
/// positivity fix on 2^2 roots of 8^2 cells, max level 2. The vortex keeps
/// the density uniform at first, so the regrids follow a moving square.
std::uint64_t orszag_tang_digest() {
  using Phys = IdealMhd<2>;
  Phys phys;
  phys.gamma = 5.0 / 3.0;
  AmrSolver<2, Phys>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.cfl = 0.3;
  cfg.apply_positivity_fix = true;
  cfg.flux = FluxScheme::Hlld;
  cfg.flux_correction = true;
  AmrSolver<2, Phys> solver(cfg, phys);
  const double rho0 = 25.0 / 36.0 / 3.141592653589793;
  const double p0 = 5.0 / 12.0 / 3.141592653589793;
  const double b0 = 0.28209479177387814;  // 1 / sqrt(4 pi)
  auto ic = [&](const RVec<2>& x, Phys::State& s) {
    const RVec<3> v{-wave(x[1]), wave(x[0]), 0.0};
    const RVec<3> b{-b0 * wave(x[1]), b0 * wave(2.0 * x[0]), 0.0};
    s = phys.from_primitive(rho0, v, b, p0);
  };
  solver.init(ic);
  for (int round = 0; round < 2; ++round) {
    solver.adapt(RegionCriterion{0.25, 0.5});
    solver.init(ic);
  }
  for (int s = 0; s < 4; ++s) {
    solver.step(solver.compute_dt());
    if (s == 1) {
      EXPECT_GT(solver.adapt(RegionCriterion{0.5, 0.75}).coarsened, 0);
    }
  }
  EXPECT_GT(solver.forest().stats().max_level, 0);
  return interior_digest(solver);
}

/// blast3d_t2's shape: an over-pressured pulse carried by a uniform flow,
/// 2^3 roots of 8^3 cells, max level 1, two threads, gradient regrid.
std::uint64_t blast3d_digest() {
  using Phys = Euler<3>;
  Phys phys;
  AmrSolver<3, Phys>::Config cfg;
  cfg.forest.root_blocks = {2, 2, 2};
  cfg.forest.periodic = {true, true, true};
  cfg.forest.max_level = 1;
  cfg.cells_per_block = {8, 8, 8};
  cfg.num_threads = 2;
  AmrSolver<3, Phys> solver(cfg, phys);
  auto ic = [&](const RVec<3>& x, Phys::State& s) {
    double r2 = 0.0;
    for (int d = 0; d < 3; ++d) r2 += (x[d] - 0.3) * (x[d] - 0.3);
    const double w = r2 < 0.02 ? (1.0 - r2 / 0.02) * (1.0 - r2 / 0.02) : 0.0;
    s = phys.from_primitive(1.0, RVec<3>{0.6, -0.6, 0.6}, 1.0 + 9.0 * w);
  };
  const GradientCriterion<3> crit{Phys::ieng(), 0.3, 0.1, 1};
  solver.init(ic);
  solver.adapt(crit);
  solver.init(ic);
  for (int s = 0; s < 3; ++s) {
    solver.step(solver.compute_dt());
    if (s == 1) solver.adapt(crit);
  }
  EXPECT_GT(solver.forest().stats().max_level, 0);
  return interior_digest(solver);
}

/// rank_p8_churn's shape: 8 ranks, Hilbert partition, distributed metadata,
/// flux correction and positivity fix on 4^2 roots of 8^2 cells, max level
/// 2, with a seeded churn regrid after every 2nd step.
std::uint64_t rank_churn_digest(wire::TransportKind transport) {
  using Phys = Euler<2>;
  Phys phys;
  RankSolver<2, Phys>::Config rcfg;
  rcfg.solver.forest.root_blocks = {4, 4};
  rcfg.solver.forest.periodic = {true, true};
  rcfg.solver.forest.max_level = 2;
  rcfg.solver.cells_per_block = {8, 8};
  rcfg.solver.flux_correction = true;
  rcfg.solver.apply_positivity_fix = true;
  rcfg.npes = 8;
  rcfg.policy = PartitionPolicy::Hilbert;
  rcfg.distributed_metadata = true;
  rcfg.transport = transport;
  RankSolver<2, Phys> ranks(rcfg, phys);
  auto ic = [&](const RVec<2>& x, Phys::State& s) {
    const double rho = 1.0 + 0.2 * wave(x[0] + 0.125) * wave(x[1] + 0.375);
    s = phys.from_primitive(rho, RVec<2>{0.5, -0.3}, 1.0);
  };
  ranks.adapt(ChurnCriterion<2>{splitmix64(11)});
  ranks.init(ic);
  int changed = 0;
  for (int s = 0; s < 6; ++s) {
    ranks.step(ranks.compute_dt());
    if (s % 2 == 1) {
      const auto r = ranks.adapt(ChurnCriterion<2>{splitmix64(100 + s)});
      changed += r.refined + r.coarsened;
    }
  }
  EXPECT_GT(changed, 0);
  EXPECT_GT(ranks.totals().migrated_blocks, 0);
  return interior_digest<2>(ranks.forest(), ranks.exchanger().layout(),
                            [&ranks](int id) { return ranks.block_view(id); });
}

TEST(GoldenWorkloads, OrszagTangMhd) {
  const std::uint64_t got = orszag_tang_digest();
  EXPECT_EQ(got, 0x1988c2946acbc88cull) << "digest " << digest_hex(got);
}

TEST(GoldenWorkloads, Blast3dTwoThreads) {
  const std::uint64_t got = blast3d_digest();
  EXPECT_EQ(got, 0xbb14b2e4e9e6ad15ull) << "digest " << digest_hex(got);
}

TEST(GoldenWorkloads, RankChurnOnBoardAndShm) {
  for (wire::TransportKind t :
       {wire::TransportKind::Board, wire::TransportKind::Shm}) {
    const std::uint64_t got = rank_churn_digest(t);
    EXPECT_EQ(got, 0x1e3da7f92786a8d0ull)
        << "transport " << static_cast<int>(t) << ": digest "
        << digest_hex(got);
  }
}

}  // namespace
}  // namespace ab
