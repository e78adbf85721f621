// Memory substrate determinism: every store draws its slabs from a shared
// BlockPool arena, and regrids recycle them. Multi-step AMR runs with
// mid-run regrids must stay BITWISE identical across thread counts, and a
// rank-parallel run whose regrids re-partition and migrate blocks between
// ranks (migration moves slabs through the shared pool) must match them.
// Every run ends holding exactly two slabs per leaf.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amr/solver.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/euler.hpp"

namespace ab {
namespace {

Euler<2> euler;
auto euler_ic = [](const RVec<2>& x, Euler<2>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5;
  s = euler.from_primitive(1.0 + 0.8 * std::exp(-40 * (dx * dx + dy * dy)),
                           {0.4, -0.3}, 1.0);
};

AmrSolver<2, Euler<2>>::Config make_config(int threads) {
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.num_threads = threads;
  cfg.rk_stages = 2;
  cfg.flux_correction = true;
  return cfg;
}

/// The script both solvers run: adapt to the initial data, then 8 steps
/// with regrids after steps 2 and 5, enough churn that the pool recycles
/// slabs. Returns every dt, then each leaf's level and interior bytes.
template <class Solver, class ViewOf>
std::vector<double> run_script(Solver& solver, const ViewOf& view_of) {
  solver.init(euler_ic);
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  solver.adapt(crit);
  solver.init(euler_ic);
  std::vector<double> out;
  for (int i = 0; i < 8; ++i) {
    const double dt = solver.compute_dt();
    out.push_back(dt);
    solver.step(dt);
    if (i == 2 || i == 5) solver.adapt(crit);
  }
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = view_of(id);
    out.push_back(static_cast<double>(solver.forest().level(id)));
    for_each_cell<2>(v.layout->interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Euler<2>::NVAR; ++k) out.push_back(v.at(k, p));
    });
  }
  // The regrids must actually have exercised slab recycling.
  EXPECT_GT(solver.block_pool()->stats().reuse_hits, 0);
  EXPECT_GT(solver.block_pool()->stats().chunks, 0);
  // Heun with refluxing holds two block sets, the state and the stage-1
  // result: exactly two slabs per leaf, none kept for blocks that stopped
  // being leaves.
  EXPECT_EQ(solver.block_pool()->stats().slabs_in_use,
            2 * solver.forest().num_leaves());
  return out;
}

std::vector<double> run(int threads) {
  AmrSolver<2, Euler<2>> solver(make_config(threads), euler);
  return run_script(solver, [&](int id) {
    return std::as_const(solver).store().view(id);
  });
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "element " << i;
}

TEST(SubstrateDeterminism, PooledRegridsMatchAcrossThreadCounts) {
  expect_bitwise_equal(run(1), run(4));
}

// Rank-parallel: the regrids re-partition and migrate blocks between ranks,
// swapping slabs through the one pool the per-rank stores share.
TEST(SubstrateDeterminism, RankMigrationMatchesThreadedSolver) {
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = make_config(1);
  rcfg.npes = 3;
  rcfg.policy = PartitionPolicy::Hilbert;
  RankSolver<2, Euler<2>> ranks(rcfg, euler);
  const std::vector<double> rank_out =
      run_script(ranks, [&](int id) { return ranks.block_view(id); });
  EXPECT_GT(ranks.totals().migrated_blocks, 0);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_bitwise_equal(run(threads), rank_out);
  }
}

}  // namespace
}  // namespace ab
