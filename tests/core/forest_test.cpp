#include "core/forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace ab {
namespace {

Forest<2>::Config cfg2(int rx = 2, int ry = 2, int max_level = 6) {
  Forest<2>::Config c;
  c.root_blocks = {rx, ry};
  c.max_level = max_level;
  return c;
}

TEST(Forest, RootGridCreated) {
  Forest<2> f(cfg2(3, 2));
  EXPECT_EQ(f.num_leaves(), 6);
  EXPECT_EQ(f.num_nodes(), 6);
  for (int id : f.leaves()) {
    EXPECT_EQ(f.level(id), 0);
    EXPECT_TRUE(f.is_leaf(id));
    EXPECT_EQ(f.parent(id), -1);
  }
}

TEST(Forest, FindByCoords) {
  Forest<2> f(cfg2(2, 2));
  int id = f.find(0, {1, 1});
  ASSERT_GE(id, 0);
  EXPECT_EQ(f.coords(id), (IVec<2>{1, 1}));
  EXPECT_EQ(f.find(0, {2, 0}), -1);
  EXPECT_EQ(f.find(1, {0, 0}), -1);
}

TEST(Forest, RefineCreatesChildren) {
  Forest<2> f(cfg2());
  int id = f.find(0, {0, 0});
  auto events = f.refine(id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].parent, id);
  EXPECT_EQ(f.num_leaves(), 7);  // 4 roots - 1 + 4 children
  EXPECT_FALSE(f.is_leaf(id));
  for (int ci = 0; ci < 4; ++ci) {
    int c = events[0].children[ci];
    EXPECT_TRUE(f.is_leaf(c));
    EXPECT_EQ(f.level(c), 1);
    EXPECT_EQ(f.parent(c), id);
    EXPECT_EQ(f.child_index(c), ci);
  }
  // Child coordinates follow the bit pattern.
  EXPECT_EQ(f.coords(events[0].children[0]), (IVec<2>{0, 0}));
  EXPECT_EQ(f.coords(events[0].children[1]), (IVec<2>{1, 0}));
  EXPECT_EQ(f.coords(events[0].children[2]), (IVec<2>{0, 1}));
  EXPECT_EQ(f.coords(events[0].children[3]), (IVec<2>{1, 1}));
}

TEST(Forest, PaperFigure2Decomposition) {
  // Figure 2: four blocks, one refined into four children; the adaptive
  // block decomposition has 7 leaves and the original parent remains only
  // as an interior node (the region has ONE representation among leaves).
  Forest<2> f(cfg2(2, 2));
  f.refine(f.find(0, {1, 1}));
  EXPECT_EQ(f.num_leaves(), 7);
  // If the children are coarsened, the decomposition reverts.
  int parent = f.find(0, {1, 1});
  ASSERT_TRUE(f.can_coarsen(parent));
  f.coarsen(parent);
  EXPECT_EQ(f.num_leaves(), 4);
  EXPECT_TRUE(f.is_leaf(parent));
}

TEST(Forest, CoarsenRejectsNonFamily) {
  Forest<2> f(cfg2());
  int root = f.find(0, {0, 0});
  EXPECT_FALSE(f.can_coarsen(root));  // a leaf has no children
  auto ev = f.refine(root);
  // Refine one child: the family is no longer all-leaf.
  f.refine(ev[0].children[0]);
  EXPECT_FALSE(f.can_coarsen(root));
}

TEST(Forest, SameLevelNeighbors) {
  Forest<2> f(cfg2(2, 2));
  int a = f.find(0, {0, 0});
  auto nb = f.face_neighbor(a, 0, 1);
  EXPECT_EQ(nb.kind, Forest<2>::NeighborKind::Same);
  EXPECT_EQ(nb.ids[0], f.find(0, {1, 0}));
  // Domain boundary on the low side.
  auto bd = f.face_neighbor(a, 0, 0);
  EXPECT_EQ(bd.kind, Forest<2>::NeighborKind::Boundary);
}

TEST(Forest, FinerAndCoarserNeighbors) {
  Forest<2> f(cfg2(2, 1));
  int right = f.find(0, {1, 0});
  f.refine(right);
  int left = f.find(0, {0, 0});
  auto nb = f.face_neighbor(left, 0, 1);
  ASSERT_EQ(nb.kind, Forest<2>::NeighborKind::Finer);
  // The two children on the shared face, lexicographic tangential order.
  EXPECT_EQ(nb.ids[0], f.find(1, {2, 0}));
  EXPECT_EQ(nb.ids[1], f.find(1, {2, 1}));
  // From the fine side the neighbor is coarser.
  auto back = f.face_neighbor(f.find(1, {2, 0}), 0, 0);
  ASSERT_EQ(back.kind, Forest<2>::NeighborKind::Coarser);
  EXPECT_EQ(back.ids[0], left);
}

TEST(Forest, PeriodicNeighborsWrap) {
  Forest<2>::Config c = cfg2(2, 2);
  c.periodic = {true, false};
  Forest<2> f(c);
  int a = f.find(0, {0, 0});
  auto nb = f.face_neighbor(a, 0, 0);
  ASSERT_EQ(nb.kind, Forest<2>::NeighborKind::Same);
  EXPECT_EQ(nb.ids[0], f.find(0, {1, 0}));
  // Non-periodic dimension still has a boundary.
  EXPECT_EQ(f.face_neighbor(a, 1, 0).kind, Forest<2>::NeighborKind::Boundary);
}

TEST(Forest, RefinementCascades) {
  // Refining a block twice forces the adjacent coarse block to refine
  // (the paper: "Refinement can potentially cascade across the grid").
  Forest<2> f(cfg2(2, 1));
  int right = f.find(0, {1, 0});
  f.refine(right);
  int fine = f.find(1, {2, 0});  // touches the left coarse root
  auto events = f.refine(fine);
  // The cascade refined the left root first, then `fine`.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].parent, f.find(0, {0, 0}));
  EXPECT_EQ(events[1].parent, fine);
  // Constraint holds everywhere.
  for (int id : f.leaves()) {
    for (int dim = 0; dim < 2; ++dim)
      for (int side = 0; side < 2; ++side)
        for (int nb : f.face_neighbor_leaves(id, dim, side))
          EXPECT_LE(std::abs(f.level(id) - f.level(nb)), 1);
  }
}

TEST(Forest, PaperFigure2CascadeExample) {
  // Paper: "if the upper right small block was refined it would cause the
  // upper right large block to also be refined."
  Forest<2> f(cfg2(2, 2));
  f.refine(f.find(0, {0, 1}));          // upper-left root -> 4 small blocks
  int small_ur = f.find(1, {1, 3});     // its upper-right child
  ASSERT_GE(small_ur, 0);
  const int before = f.num_leaves();
  auto events = f.refine(small_ur);
  // Cascade: the upper-right root (adjacent, coarser) must refine too.
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(f.num_leaves(), before + 6);
}

TEST(Forest, CoarsenBlockedByConstraint) {
  Forest<2> f(cfg2(2, 1));
  f.refine(f.find(0, {1, 0}));
  f.refine(f.find(1, {2, 0}));  // cascades: left root refined too
  // The left root's family cannot coarsen while a level-2 leaf touches it.
  int left = f.find(0, {0, 0});
  ASSERT_FALSE(f.is_leaf(left));
  EXPECT_FALSE(f.can_coarsen(left));
}

TEST(Forest, NeighborTableMatchesComputed) {
  Forest<2> f(cfg2(2, 2, 5));
  f.refine(f.find(0, {0, 0}));
  f.refine(f.find(1, {0, 0}));
  auto check = [&f] {
    for (int id : f.leaves()) {
      for (int dim = 0; dim < 2; ++dim)
        for (int side = 0; side < 2; ++side) {
          auto a = f.neighbor(id, dim, side);
          auto b = f.face_neighbor(id, dim, side);
          EXPECT_EQ(a.kind, b.kind);
          for (int i = 0; i < a.count(); ++i) EXPECT_EQ(a.ids[i], b.ids[i]);
        }
    }
  };
  check();
  // A topology change is seen by the next read: the table is rebuilt.
  f.refine(f.leaves()[0]);
  check();
  f.coarsen(f.find(2, {0, 0}));
  check();
}

TEST(Forest, LeavesAreMortonSorted) {
  Forest<2> f(cfg2(2, 2));
  f.refine(f.find(0, {0, 0}));
  const auto& leaves = f.leaves();
  EXPECT_EQ(static_cast<int>(leaves.size()), f.num_leaves());
  std::set<int> uniq(leaves.begin(), leaves.end());
  EXPECT_EQ(uniq.size(), leaves.size());
  const int ml = f.config().max_level;
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    auto ka = morton_key_global<2>(f.level(leaves[i - 1]),
                                   f.coords(leaves[i - 1]), ml);
    auto kb = morton_key_global<2>(f.level(leaves[i]), f.coords(leaves[i]), ml);
    EXPECT_LE(ka, kb);
  }
}

TEST(Forest, GeometryOfBlocks) {
  Forest<2>::Config c = cfg2(2, 2);
  c.domain_lo = {-1.0, 0.0};
  c.domain_hi = {1.0, 4.0};
  Forest<2> f(c);
  int id = f.find(0, {1, 0});
  RVec<2> lo = f.block_lo(id), hi = f.block_hi(id);
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(lo[1], 0.0);
  EXPECT_DOUBLE_EQ(hi[0], 1.0);
  EXPECT_DOUBLE_EQ(hi[1], 2.0);
  f.refine(id);
  int child = f.find(1, {2, 1});
  EXPECT_DOUBLE_EQ(f.block_lo(child)[0], 0.0);
  EXPECT_DOUBLE_EQ(f.block_lo(child)[1], 1.0);
  RVec<2> s = f.block_size(1);
  EXPECT_DOUBLE_EQ(s[0], 0.5);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
}

TEST(Forest, FindEnclosingLeaf) {
  Forest<2> f(cfg2(2, 1));
  f.refine(f.find(0, {1, 0}));
  // A level-1 location inside the unrefined left root.
  EXPECT_EQ(f.find_enclosing_leaf(1, {0, 0}), f.find(0, {0, 0}));
  // A location covered by a finer leaf than requested is reported as such.
  EXPECT_EQ(f.find_enclosing_leaf(0, {1, 0}), -1);
  // Exact leaf.
  EXPECT_EQ(f.find_enclosing_leaf(1, {2, 1}), f.find(1, {2, 1}));
  // Out of domain.
  EXPECT_EQ(f.find_enclosing_leaf(0, {5, 0}), -1);
}

TEST(Forest, Stats) {
  Forest<2> f(cfg2(2, 2));
  f.refine(f.find(0, {0, 0}));
  auto s = f.stats();
  EXPECT_EQ(s.leaves, 7);
  EXPECT_EQ(s.interior_nodes, 1);
  EXPECT_EQ(s.min_level, 0);
  EXPECT_EQ(s.max_level, 1);
  EXPECT_EQ(s.leaves_per_level[0], 3);
  EXPECT_EQ(s.leaves_per_level[1], 4);
}

TEST(Forest, MaxLevelCapEnforced) {
  Forest<2> f(cfg2(1, 1, 1));
  auto ev = f.refine(f.leaves()[0]);
  EXPECT_THROW(f.refine(ev[0].children[0]), Error);
}

TEST(Forest, RejectsBadConfig) {
  Forest<2>::Config c;
  c.root_blocks = {0, 1};
  EXPECT_THROW(Forest<2>{c}, Error);
  Forest<2>::Config c2;
  c2.max_level = 99;
  EXPECT_THROW(Forest<2>{c2}, Error);
  Forest<2>::Config c3;
  c3.max_level_diff = 0;
  EXPECT_THROW(Forest<2>{c3}, Error);
  Forest<2>::Config c4;
  c4.domain_lo = {0.0, 0.0};
  c4.domain_hi = {0.0, 1.0};
  EXPECT_THROW(Forest<2>{c4}, Error);
}

TEST(Forest, NodeIdReuseAfterCoarsen) {
  Forest<2> f(cfg2(1, 1, 3));
  int root = f.leaves()[0];
  auto ev = f.refine(root);
  const int cap_before = f.node_capacity();
  f.coarsen(root);
  // Refining again reuses the freed ids instead of growing.
  f.refine(root);
  EXPECT_EQ(f.node_capacity(), cap_before);
  EXPECT_EQ(f.num_leaves(), 4);
  (void)ev;
}

TEST(Forest3D, StructureAndNeighbors) {
  Forest<3>::Config c;
  c.root_blocks = {2, 2, 2};
  c.max_level = 4;
  Forest<3> f(c);
  EXPECT_EQ(f.num_leaves(), 8);
  int id = f.find(0, {0, 0, 0});
  auto ev = f.refine(id);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(f.num_leaves(), 8 - 1 + 8);
  // A 3D face has 2^(3-1) = 4 finer neighbors.
  int right = f.find(0, {1, 0, 0});
  auto nb = f.face_neighbor(right, 0, 0);
  ASSERT_EQ(nb.kind, Forest<3>::NeighborKind::Finer);
  EXPECT_EQ(nb.count(), 4);
  std::set<int> ids(nb.ids.begin(), nb.ids.end());
  EXPECT_EQ(ids.size(), 4u);
  for (int i : ids) {
    EXPECT_EQ(f.level(i), 1);
    EXPECT_EQ(f.coords(i)[0], 1);  // the x-high children of the refined root
  }
}

TEST(Forest1D, Works) {
  Forest<1>::Config c;
  c.root_blocks[0] = 4;
  c.max_level = 3;
  Forest<1> f(c);
  EXPECT_EQ(f.num_leaves(), 4);
  IVec<1> p;
  p[0] = 1;
  int id = f.find(0, p);
  f.refine(id);
  EXPECT_EQ(f.num_leaves(), 5);
  auto nb = f.face_neighbor(f.find(0, {IVec<1>{0}}), 0, 1);
  EXPECT_EQ(nb.kind, Forest<1>::NeighborKind::Finer);
  EXPECT_EQ(nb.count(), 1);
}

TEST(ForestKLevel, TwoLevelJumpAllowed) {
  Forest<2>::Config c = cfg2(2, 1);
  c.max_level_diff = 2;
  Forest<2> f(c);
  f.refine(f.find(0, {1, 0}));
  // With k=2, refining a fine block does NOT cascade into the coarse root.
  auto events = f.refine(f.find(1, {2, 0}));
  EXPECT_EQ(events.size(), 1u);
  // The left root now has level-0 vs level-2 face neighbors.
  int left = f.find(0, {0, 0});
  EXPECT_TRUE(f.is_leaf(left));
  auto nbs = f.face_neighbor_leaves(left, 0, 1);
  int max_level = 0;
  for (int nb : nbs) max_level = std::max(max_level, f.level(nb));
  EXPECT_EQ(max_level, 2);
  // And there are up to 2^(k(d-1)) = 4 blocks across that face (paper's
  // generalized bound); here 3 (two level-2 + one level-1).
  EXPECT_EQ(nbs.size(), 3u);
  // The fixed-size record API refuses k != 1.
  EXPECT_THROW(f.face_neighbor(left, 0, 1), Error);
}

TEST(ForestKLevel, ThirdLevelCascades) {
  Forest<2>::Config c = cfg2(2, 1);
  c.max_level_diff = 2;
  Forest<2> f(c);
  f.refine(f.find(0, {1, 0}));
  f.refine(f.find(1, {2, 0}));
  // Refining to level 3 next to the level-0 root must cascade now.
  auto events = f.refine(f.find(2, {4, 0}));
  EXPECT_GT(events.size(), 1u);
  for (int id : f.leaves()) {
    for (int dim = 0; dim < 2; ++dim)
      for (int side = 0; side < 2; ++side)
        for (int nb : f.face_neighbor_leaves(id, dim, side))
          EXPECT_LE(std::abs(f.level(id) - f.level(nb)), 2);
  }
}

}  // namespace
}  // namespace ab

namespace ab {
namespace {

TEST(Forest, TopologyBytesAmortizedOverBlocks) {
  Forest<3>::Config c;
  c.root_blocks = {2, 2, 2};
  c.max_level = 3;
  Forest<3> f(c);
  const auto before = f.topology_bytes();
  f.refine(f.leaves()[0]);
  f.neighbor(f.leaves()[0], 0, 0);  // the first read builds the table
  EXPECT_GT(f.topology_bytes(), before);
  // Per-CELL topology cost with 16^3 blocks is tiny: whole-forest topology
  // divided by cells must be well under a double per cell.
  const double cells = f.num_leaves() * 4096.0;
  EXPECT_LT(f.topology_bytes() / cells, 1.0);
}

}  // namespace
}  // namespace ab
