// Property-based ghost-exchange tests over randomly adapted forests:
// invariants that must hold for ANY legal topology, periodic or not.
// Topologies come from the shared seeded generator (tests/support), so
// every failure is reproducible from the printed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "core/bc.hpp"
#include "core/ghost.hpp"
#include "support/ghost_reference.hpp"
#include "support/random_forest.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

using ab::testing::RandomForestOptions;
using ab::testing::SplitMix64;

template <int D>
Forest<D> random_forest(unsigned seed, bool periodic, int max_level = 3) {
  SplitMix64 rng(seed);
  RandomForestOptions<D> opt;
  opt.max_level = max_level;
  opt.periodic = periodic;
  opt.refine_bias = 3;  // ~3 of 4 attempts refine, like the seed generator
  return ab::testing::random_forest<D>(rng, opt);
}

/// Constant fields survive any exchange exactly, everywhere, including
/// across periodic wraps and every coarse/fine configuration.
template <int D>
void check_constant_exact(unsigned seed, bool periodic) {
  Forest<D> f = random_forest<D>(seed, periodic);
  BlockLayout<D> lay(IVec<D>(4), 2, 2);
  BlockStore<D> store(lay);
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<D> v = store.view(id);
    for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
      v.at(0, p) = 3.75;
      v.at(1, p) = -1.25;
    });
  }
  GhostExchanger<D> gx(f, lay);
  gx.fill(store);
  for (const auto& op : gx.ops()) {
    ConstBlockView<D> v = std::as_const(store).view(op.dst);
    for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
      ASSERT_EQ(v.at(0, q), 3.75) << "seed " << seed;
      ASSERT_EQ(v.at(1, q), -1.25);
    });
  }
}

/// Every ghost value produced by the exchange lies within the global
/// [min, max] of the interior data (exchange is a convex combination:
/// copies, averages, and limited interpolation never overshoot by more
/// than the slope-limited bound; with minmod prolongation the result stays
/// within the local data range).
template <int D>
void check_range_bounded(unsigned seed, bool periodic) {
  Forest<D> f = random_forest<D>(seed, periodic);
  BlockLayout<D> lay(IVec<D>(4), 2, 1);
  BlockStore<D> store(lay);
  std::mt19937 rng(seed * 7 + 1);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  double lo = 1e300, hi = -1e300;
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<D> v = store.view(id);
    for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
      const double x = dist(rng);
      v.at(0, p) = x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    });
  }
  GhostExchanger<D> gx(f, lay);
  gx.fill(store);
  // minmod-limited linear prolongation can overshoot a coarse cell's value
  // by at most half the limited slope, which is bounded by the data range.
  const double slack = 0.5 * (hi - lo) + 1e-12;
  for (const auto& op : gx.ops()) {
    ConstBlockView<D> v = std::as_const(store).view(op.dst);
    for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
      ASSERT_GE(v.at(0, q), lo - slack);
      ASSERT_LE(v.at(0, q), hi + slack);
    });
  }
}

class GhostProperty2D : public ::testing::TestWithParam<unsigned> {};
class GhostProperty3D : public ::testing::TestWithParam<unsigned> {};

TEST_P(GhostProperty2D, ConstantExact) {
  check_constant_exact<2>(GetParam(), false);
}
TEST_P(GhostProperty2D, ConstantExactPeriodic) {
  check_constant_exact<2>(GetParam(), true);
}
TEST_P(GhostProperty2D, RangeBounded) {
  check_range_bounded<2>(GetParam(), false);
}
TEST_P(GhostProperty3D, ConstantExact) {
  check_constant_exact<3>(GetParam(), false);
}
TEST_P(GhostProperty3D, ConstantExactPeriodic) {
  check_constant_exact<3>(GetParam(), true);
}
TEST_P(GhostProperty3D, RangeBounded) {
  check_range_bounded<3>(GetParam(), false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhostProperty2D,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));
INSTANTIATE_TEST_SUITE_P(Seeds, GhostProperty3D,
                         ::testing::Values(11u, 22u, 33u));

/// The plan itself never reads outside the source's valid data: replay
/// each op's index arithmetic and check bounds.
TEST(GhostPropertyPlan, SourceReadsStayInsideAllocations) {
  for (unsigned seed : {3u, 17u, 99u}) {
    Forest<2> f = random_forest<2>(seed, true);
    BlockLayout<2> lay({6, 4}, 2, 1);
    GhostExchanger<2> gx(f, lay);
    const Box<2> ghosted = lay.ghosted_box();
    const Box<2> interior = lay.interior_box();
    for (const auto& op : gx.ops()) {
      for_each_cell<2>(op.dst_box, [&](IVec<2> q) {
        switch (op.kind) {
          case GhostOpKind::SameCopy:
            ASSERT_TRUE(interior.contains(q + op.a));
            break;
          case GhostOpKind::Restrict:
            for (int mask = 0; mask < 4; ++mask) {
              IVec<2> r = q.shifted_left(1) + op.a;
              r[0] += mask & 1;
              r[1] += (mask >> 1) & 1;
              ASSERT_TRUE(interior.contains(r));
            }
            break;
          case GhostOpKind::Prolong: {
            IVec<2> gf = q + op.a;
            IVec<2> cc{(gf[0] >> 1) - op.b[0], (gf[1] >> 1) - op.b[1]};
            ASSERT_TRUE(interior.contains(cc));
            // The stencil's valid box stays inside the allocation.
            ASSERT_TRUE(ghosted.contains(op.valid));
            break;
          }
        }
      });
    }
  }
}

// -------------------------------------------------------------------
// Batched executor vs per-cell oracle, fuzzed over random refine/coarsen
// sequences: GhostExchanger::fill must produce byte-identical blocks to
// the per-cell oracle (support/ghost_reference.hpp) run in the two-phase
// order, in every dimension, and again after further topology churn +
// rebuild().

/// Identical random values (interiors AND ghosts, so untouched ghost bytes
/// can't mask a miss) into both stores for the current leaf set.
template <int D>
void seed_identical(const Forest<D>& f, BlockStore<D>& a, BlockStore<D>& b,
                    SplitMix64& data) {
  const BlockLayout<D>& lay = a.layout();
  for (int id : f.leaves()) {
    a.ensure(id);
    b.ensure(id);
    BlockView<D> va = a.view(id);
    BlockView<D> vb = b.view(id);
    const std::int64_t fs = lay.field_stride();
    for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) {
      const std::int64_t off = lay.offset(p);
      for (int var = 0; var < lay.nvar; ++var) {
        const double x = data.uniform(-3.0, 3.0);
        va.base[var * fs + off] = x;
        vb.base[var * fs + off] = x;
      }
    });
  }
}

template <int D>
void check_batched_matches_oracle(unsigned seed, bool periodic) {
  SplitMix64 rng(seed);
  RandomForestOptions<D> opt;
  opt.max_level = 3;
  opt.periodic = periodic;
  opt.steps = 30;
  opt.refine_bias = 2;  // balanced refine/coarsen: visits re-coarsened grids
  Forest<D> f = ab::testing::random_forest<D>(rng, opt);
  BlockLayout<D> lay(IVec<D>(4), 2, 2);
  GhostExchanger<D> gx(f, lay);
  BlockStore<D> batched(lay), oracle(lay);
  const std::size_t bytes =
      static_cast<std::size_t>(lay.block_doubles()) * sizeof(double);
  for (int round = 0; round < 2; ++round) {
    seed_identical(f, batched, oracle, rng);
    gx.fill(batched);
    ab::testing::fill_per_cell(gx, oracle);
    for (int id : f.leaves())
      ASSERT_EQ(0, std::memcmp(batched.view(id).base, oracle.view(id).base,
                               bytes))
          << "block " << id << " round " << round << " seed " << seed;
    if (round == 0) {
      // More churn, then rebuild the plan in place and re-check.
      for (int i = 0; i < 10; ++i) {
        const auto& leaves = f.leaves();
        const int id = leaves[rng.below(leaves.size())];
        if (rng.below(2) == 0) {
          if (f.level(id) < opt.max_level) f.refine(id);
        } else {
          const int p = f.parent(id);
          if (p >= 0 && f.can_coarsen(p)) f.coarsen(p);
        }
      }
      gx.rebuild();
    }
  }
}

class GhostOracle1D : public ::testing::TestWithParam<unsigned> {};
class GhostOracle2D : public ::testing::TestWithParam<unsigned> {};
class GhostOracle3D : public ::testing::TestWithParam<unsigned> {};

TEST_P(GhostOracle1D, BatchedMatchesReference) {
  check_batched_matches_oracle<1>(GetParam(), false);
}
TEST_P(GhostOracle1D, BatchedMatchesReferencePeriodic) {
  check_batched_matches_oracle<1>(GetParam(), true);
}
TEST_P(GhostOracle2D, BatchedMatchesReference) {
  check_batched_matches_oracle<2>(GetParam(), false);
}
TEST_P(GhostOracle2D, BatchedMatchesReferencePeriodic) {
  check_batched_matches_oracle<2>(GetParam(), true);
}
TEST_P(GhostOracle3D, BatchedMatchesReference) {
  check_batched_matches_oracle<3>(GetParam(), false);
}
TEST_P(GhostOracle3D, BatchedMatchesReferencePeriodic) {
  check_batched_matches_oracle<3>(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhostOracle1D,
                         ::testing::Values(7u, 19u, 23u, 101u));
INSTANTIATE_TEST_SUITE_P(Seeds, GhostOracle2D,
                         ::testing::Values(7u, 19u, 23u, 101u));
INSTANTIATE_TEST_SUITE_P(Seeds, GhostOracle3D,
                         ::testing::Values(7u, 19u));

}  // namespace
}  // namespace ab
