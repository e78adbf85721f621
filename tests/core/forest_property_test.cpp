// Property-based tests: random refine/coarsen sequences must preserve the
// forest invariants regardless of order.
#include "core/forest.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>

namespace ab {
namespace {

/// Check every structural invariant of a forest.
template <int D>
void check_invariants(const Forest<D>& f) {
  const auto& leaves = f.leaves();
  ASSERT_EQ(static_cast<int>(leaves.size()), f.num_leaves());

  // Leaves tile the domain exactly: sum of covered fine-level cells equals
  // the domain's fine-level cell count.
  const int L = f.config().max_level;
  std::int64_t covered = 0;
  for (int id : leaves) {
    int s = L - f.level(id);
    std::int64_t cells = 1;
    for (int d = 0; d < D; ++d) cells *= (std::int64_t{1} << s);
    covered += cells;
  }
  std::int64_t domain = 1;
  for (int d = 0; d < D; ++d)
    domain *= static_cast<std::int64_t>(f.config().root_blocks[d]) << L;
  EXPECT_EQ(covered, domain);

  for (int id : leaves) {
    // Parent/child links are consistent.
    const int p = f.parent(id);
    if (p >= 0) {
      ASSERT_TRUE(f.is_live(p));
      EXPECT_FALSE(f.is_leaf(p));
      EXPECT_EQ(f.children(p)[f.child_index(id)], id);
      EXPECT_EQ(f.level(id), f.level(p) + 1);
      EXPECT_EQ(f.coords(id).shifted_right(1), f.coords(p));
    } else {
      EXPECT_EQ(f.level(id), 0);
    }
    // find() agrees.
    EXPECT_EQ(f.find(f.level(id), f.coords(id)), id);
    // Level-difference constraint across every face.
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side)
        for (int nb : f.face_neighbor_leaves(id, dim, side))
          EXPECT_LE(std::abs(f.level(id) - f.level(nb)),
                    f.config().max_level_diff)
              << "constraint violated between " << id << " and " << nb;
  }
}

/// Brute-force neighbor oracle: leaves whose region is adjacent to `id`
/// across (dim, side), found by scanning all leaves.
template <int D>
std::set<int> neighbor_oracle(const Forest<D>& f, int id, int dim, int side) {
  std::set<int> out;
  const int L = f.config().max_level;
  // Region of `id` at the finest level.
  IVec<D> lo = f.coords(id).shifted_left(L - f.level(id));
  IVec<D> hi = lo + IVec<D>(1).shifted_left(L - f.level(id));
  // The face-adjacent strip, one fine-cell thick.
  IVec<D> ext = f.level_extent(L);
  for (int nb : f.leaves()) {
    if (nb == id) continue;
    IVec<D> nlo = f.coords(nb).shifted_left(L - f.level(nb));
    IVec<D> nhi = nlo + IVec<D>(1).shifted_left(L - f.level(nb));
    // Adjacent across (dim, side): touching in `dim` (with periodic wrap),
    // overlapping in all other dims.
    bool touch;
    if (side == 1) {
      touch = (nlo[dim] == hi[dim]) ||
              (f.config().periodic[dim] && hi[dim] == ext[dim] &&
               nlo[dim] == 0);
    } else {
      touch = (nhi[dim] == lo[dim]) ||
              (f.config().periodic[dim] && lo[dim] == 0 &&
               nhi[dim] == ext[dim]);
    }
    if (!touch) continue;
    bool overlap = true;
    for (int d = 0; d < D; ++d) {
      if (d == dim) continue;
      if (nlo[d] >= hi[d] || nhi[d] <= lo[d]) overlap = false;
    }
    if (overlap) out.insert(nb);
  }
  return out;
}

template <int D>
void random_churn(unsigned seed, int max_level_diff, bool periodic) {
  typename Forest<D>::Config cfg;
  cfg.root_blocks = IVec<D>(2);
  cfg.max_level = 4;
  cfg.max_level_diff = max_level_diff;
  if (periodic)
    for (int d = 0; d < D; ++d) cfg.periodic[d] = true;
  Forest<D> f(cfg);

  std::mt19937 rng(seed);
  for (int step = 0; step < 120; ++step) {
    const auto& leaves = f.leaves();
    std::uniform_int_distribution<int> pick(0,
                                            static_cast<int>(leaves.size()) - 1);
    const int id = leaves[pick(rng)];
    if (rng() % 3 != 0) {
      if (f.level(id) < cfg.max_level) f.refine(id);
    } else {
      const int p = f.parent(id);
      if (p >= 0 && f.can_coarsen(p)) f.coarsen(p);
    }
  }
  check_invariants<D>(f);

  // Neighbor queries match the brute-force oracle on a sample of leaves.
  const auto& leaves = f.leaves();
  for (std::size_t i = 0; i < leaves.size(); i += 7) {
    const int id = leaves[i];
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side) {
        auto got = f.face_neighbor_leaves(id, dim, side);
        std::set<int> got_set(got.begin(), got.end());
        EXPECT_EQ(got_set, (neighbor_oracle<D>(f, id, dim, side)))
            << "leaf " << id << " dim " << dim << " side " << side;
      }
  }

  // The explicit neighbor table agrees with computed neighbors (k=1 only).
  if (max_level_diff == 1) {
    for (int id : f.leaves()) {
      for (int dim = 0; dim < D; ++dim)
        for (int side = 0; side < 2; ++side) {
          const auto& t = f.neighbor(id, dim, side);
          auto c = f.face_neighbor(id, dim, side);
          EXPECT_EQ(t.kind, c.kind);
          for (int k = 0; k < t.count(); ++k) EXPECT_EQ(t.ids[k], c.ids[k]);
        }
    }
  }
}

class ForestChurn2D : public ::testing::TestWithParam<unsigned> {};
class ForestChurn3D : public ::testing::TestWithParam<unsigned> {};

TEST_P(ForestChurn2D, InvariantsHold) { random_churn<2>(GetParam(), 1, false); }
TEST_P(ForestChurn2D, InvariantsHoldPeriodic) {
  random_churn<2>(GetParam(), 1, true);
}
TEST_P(ForestChurn2D, InvariantsHoldKLevel2) {
  random_churn<2>(GetParam(), 2, false);
}
TEST_P(ForestChurn3D, InvariantsHold) { random_churn<3>(GetParam(), 1, false); }
TEST_P(ForestChurn3D, InvariantsHoldPeriodic) {
  random_churn<3>(GetParam(), 1, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestChurn2D,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));
INSTANTIATE_TEST_SUITE_P(Seeds, ForestChurn3D,
                         ::testing::Values(1u, 2u, 3u, 5u));

TEST(ForestProperty, DeepRefinementChainStaysLegal) {
  // Repeatedly refine the block containing one corner; the cascade must keep
  // a legal staircase of levels all the way across.
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.max_level = 6;
  Forest<2> f(cfg);
  for (int l = 0; l < 6; ++l) {
    int id = f.find_enclosing_leaf(f.stats().max_level, IVec<2>{0, 0});
    ASSERT_GE(id, 0);
    f.refine(id);
  }
  check_invariants<2>(f);
  EXPECT_EQ(f.stats().max_level, 6);
}

TEST(ForestProperty, RefineAllUniformly) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.max_level = 3;
  Forest<2> f(cfg);
  for (int l = 0; l < 2; ++l) {
    auto snapshot = f.leaves();
    for (int id : snapshot)
      if (f.is_live(id) && f.is_leaf(id)) f.refine(id);
  }
  EXPECT_EQ(f.num_leaves(), 4 * 16);
  check_invariants<2>(f);
}

TEST(ForestProperty, CoarsenEverythingBack) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.max_level = 3;
  Forest<2> f(cfg);
  auto snapshot = f.leaves();
  for (int id : snapshot) f.refine(id);
  EXPECT_EQ(f.num_leaves(), 16);
  // Coarsen all families back to the roots.
  for (int root : snapshot) {
    ASSERT_TRUE(f.can_coarsen(root));
    f.coarsen(root);
  }
  EXPECT_EQ(f.num_leaves(), 4);
  check_invariants<2>(f);
}

}  // namespace
}  // namespace ab
