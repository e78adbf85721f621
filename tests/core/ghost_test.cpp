#include "core/ghost.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "core/block_store.hpp"
#include "core/forest.hpp"

namespace ab {
namespace {

/// Fill every leaf's interior with f(cell center).
template <int D, class F>
void set_from_function(const Forest<D>& forest, BlockStore<D>& store,
                       const F& f) {
  const BlockLayout<D>& lay = store.layout();
  for (int id : forest.leaves()) {
    store.ensure(id);
    BlockView<D> v = store.view(id);
    RVec<D> lo = forest.block_lo(id);
    RVec<D> dx = forest.block_size(forest.level(id));
    for (int d = 0; d < D; ++d) dx[d] /= lay.interior[d];
    for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
      RVec<D> x;
      for (int d = 0; d < D; ++d) x[d] = lo[d] + (p[d] + 0.5) * dx[d];
      for (int var = 0; var < lay.nvar; ++var)
        v.at(var, p) = f(x, var);
    });
  }
}

/// Physical center of (possibly ghost) cell p of block id.
template <int D>
RVec<D> ghost_cell_center(const Forest<D>& forest, const BlockLayout<D>& lay,
                          int id, IVec<D> p) {
  RVec<D> lo = forest.block_lo(id);
  RVec<D> dx = forest.block_size(forest.level(id));
  for (int d = 0; d < D; ++d) dx[d] /= lay.interior[d];
  RVec<D> x;
  for (int d = 0; d < D; ++d) x[d] = lo[d] + (p[d] + 0.5) * dx[d];
  return x;
}

TEST(GhostExchanger, RequiresGhostLayersAndEvenExtents) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  Forest<2> f(cfg);
  EXPECT_THROW(GhostExchanger<2>(f, BlockLayout<2>({4, 4}, 0, 1)), Error);
  EXPECT_THROW(GhostExchanger<2>(f, BlockLayout<2>({3, 4}, 1, 1)), Error);
}

TEST(GhostExchanger, RequiresTwoToOneConstraint) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.max_level_diff = 2;
  Forest<2> f(cfg);
  EXPECT_THROW(GhostExchanger<2>(f, BlockLayout<2>({4, 4}, 1, 1)), Error);
}

TEST(GhostExchanger, UniformPeriodicSameLevelExact) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.periodic = {true, true};
  cfg.domain_hi = {2.0, 2.0};
  Forest<2> f(cfg);
  BlockLayout<2> lay({4, 4}, 2, 2);
  BlockStore<2> store(lay);
  // Periodic-compatible smooth function.
  auto fn = [](const RVec<2>& x, int var) {
    return std::sin(M_PI * x[0]) + 2.0 * std::cos(M_PI * x[1]) + var;
  };
  set_from_function<2>(f, store, fn);
  GhostExchanger<2> gx(f, lay);
  EXPECT_TRUE(gx.boundary_faces().empty());
  gx.fill(store);
  // Every face-ghost cell equals the function at its (wrapped) center.
  for (int id : f.leaves()) {
    ConstBlockView<2> v = std::as_const(store).view(id);
    for (int dim = 0; dim < 2; ++dim)
      for (int side = 0; side < 2; ++side) {
        Box<2> slab = lay.interior_box().face_ghost_slab(dim, side, 2);
        for_each_cell<2>(slab, [&](IVec<2> p) {
          RVec<2> x = ghost_cell_center<2>(f, lay, id, p);
          for (int d = 0; d < 2; ++d)
            x[d] = std::fmod(std::fmod(x[d], 2.0) + 2.0, 2.0);
          for (int var = 0; var < 2; ++var)
            EXPECT_NEAR(v.at(var, p), fn(x, var), 1e-13)
                << "block " << id << " cell " << p;
        });
      }
  }
}

/// Build the standard mixed-level fixture: 2x2 roots, root (1,1) refined.
struct MixedFixture {
  Forest<2>::Config cfg;
  Forest<2> forest;
  BlockLayout<2> lay;
  BlockStore<2> store;

  explicit MixedFixture(Prolongation kind = Prolongation::LimitedLinear,
                        int ghost = 2)
      : cfg(make_cfg()),
        forest(cfg),
        lay({4, 4}, ghost, 1),
        store(lay),
        gx(forest, lay, kind) {
    forest.refine(forest.find(0, {1, 1}));
    gx.rebuild();
  }
  static Forest<2>::Config make_cfg() {
    Forest<2>::Config c;
    c.root_blocks = {2, 2};
    c.domain_hi = {2.0, 2.0};
    return c;
  }
  GhostExchanger<2> gx;
};

TEST(GhostExchanger, ConstantFieldReproducedExactly) {
  MixedFixture fx;
  set_from_function<2>(fx.forest, fx.store,
                       [](const RVec<2>&, int) { return 7.25; });
  fx.gx.fill(fx.store);
  for (const auto& op : fx.gx.ops()) {
    ConstBlockView<2> v = std::as_const(fx.store).view(op.dst);
    for_each_cell<2>(op.dst_box,
                     [&](IVec<2> p) { EXPECT_EQ(v.at(0, p), 7.25); });
  }
}

TEST(GhostExchanger, LinearFieldExactWithLimitedLinear) {
  // A globally linear field is reproduced exactly by same-level copies,
  // conservative restriction, and limited-linear prolongation. With the
  // refined block in the domain interior, every prolongation slope stencil
  // reaches phase-1-filled data, so every ghost cell is exact.
  Forest<2>::Config cfg;
  cfg.root_blocks = {4, 4};
  cfg.domain_hi = {4.0, 4.0};
  Forest<2> f(cfg);
  f.refine(f.find(0, {1, 1}));
  BlockLayout<2> lay({4, 4}, 2, 1);
  BlockStore<2> store(lay);
  auto fn = [](const RVec<2>& x, int) { return 3.0 * x[0] - 2.0 * x[1] + 1.0; };
  set_from_function<2>(f, store, fn);
  GhostExchanger<2> gx(f, lay);
  gx.fill(store);
  int prolong_ops = 0;
  for (const auto& op : gx.ops()) {
    if (op.kind == GhostOpKind::Prolong) ++prolong_ops;
    ConstBlockView<2> v = std::as_const(store).view(op.dst);
    for_each_cell<2>(op.dst_box, [&](IVec<2> p) {
      RVec<2> x = ghost_cell_center<2>(f, lay, op.dst, p);
      EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-12)
          << "op kind " << static_cast<int>(op.kind) << " dst " << op.dst
          << " cell " << p;
    });
  }
  EXPECT_GT(prolong_ops, 0);
}

TEST(GhostExchanger, ProlongClampsAtDomainBoundaryStencils) {
  // When the coarse source's tangential neighbor is the domain boundary,
  // the slope stencil clamps (drops to zero) rather than reading stale
  // ghost data — first-order there, but never garbage.
  MixedFixture fx;
  auto fn = [](const RVec<2>& x, int) { return 3.0 * x[0] - 2.0 * x[1] + 1.0; };
  set_from_function<2>(fx.forest, fx.store, fn);
  fx.gx.fill(fx.store);
  for (const auto& op : fx.gx.ops()) {
    if (op.kind != GhostOpKind::Prolong) continue;
    ConstBlockView<2> v = std::as_const(fx.store).view(op.dst);
    // Error is bounded by half the coarse-cell variation of fn per dim.
    const double bound = 0.5 * (3.0 + 2.0) * 0.25 + 1e-12;
    for_each_cell<2>(op.dst_box, [&](IVec<2> p) {
      RVec<2> x = ghost_cell_center<2>(fx.forest, fx.lay, op.dst, p);
      EXPECT_LE(std::fabs(v.at(0, p) - fn(x, 0)), bound);
    });
  }
}

TEST(GhostExchanger, RestrictionIsConservativeAverage) {
  MixedFixture fx;
  // Arbitrary smooth field; check the restriction identity directly.
  auto fn = [](const RVec<2>& x, int) {
    return x[0] * x[0] + 0.5 * x[1] + 0.25 * x[0] * x[1];
  };
  set_from_function<2>(fx.forest, fx.store, fn);
  fx.gx.fill(fx.store);
  for (const auto& op : fx.gx.ops()) {
    if (op.kind != GhostOpKind::Restrict) continue;
    ConstBlockView<2> dst = std::as_const(fx.store).view(op.dst);
    ConstBlockView<2> src = std::as_const(fx.store).view(op.src);
    for_each_cell<2>(op.dst_box, [&](IVec<2> q) {
      IVec<2> corner = q.shifted_left(1) + op.a;
      double avg = 0.25 * (src.at(0, corner) +
                           src.at(0, corner + IVec<2>{1, 0}) +
                           src.at(0, corner + IVec<2>{0, 1}) +
                           src.at(0, corner + IVec<2>{1, 1}));
      EXPECT_DOUBLE_EQ(dst.at(0, q), avg);
    });
  }
}

TEST(GhostExchanger, ConstantProlongationIsInjection) {
  MixedFixture fx(Prolongation::Constant);
  auto fn = [](const RVec<2>& x, int) { return 2.0 * x[0] + x[1]; };
  set_from_function<2>(fx.forest, fx.store, fn);
  fx.gx.fill(fx.store);
  for (const auto& op : fx.gx.ops()) {
    if (op.kind != GhostOpKind::Prolong) continue;
    ConstBlockView<2> dst = std::as_const(fx.store).view(op.dst);
    ConstBlockView<2> src = std::as_const(fx.store).view(op.src);
    for_each_cell<2>(op.dst_box, [&](IVec<2> q) {
      IVec<2> gf = q + op.a;
      IVec<2> cc{(gf[0] >> 1) - op.b[0], (gf[1] >> 1) - op.b[1]};
      EXPECT_DOUBLE_EQ(dst.at(0, q), src.at(0, cc));
    });
  }
}

TEST(GhostExchanger, PlanCoversFaceSlabsExactly) {
  MixedFixture fx;
  // For every leaf and every non-boundary face, the dst boxes of the ops
  // serving that face partition the ghost slab (disjoint, complete).
  std::map<std::tuple<int, int, int>, std::int64_t> covered;
  for (const auto& op : fx.gx.ops()) {
    EXPECT_TRUE(fx.lay.interior_box()
                    .face_ghost_slab(op.face_dim, op.face_side, fx.lay.ghost)
                    .contains(op.dst_box));
    covered[{op.dst, op.face_dim, op.face_side}] += op.dst_box.volume();
  }
  std::set<std::tuple<int, int, int>> boundary;
  for (const auto& bf : fx.gx.boundary_faces())
    boundary.insert({bf.block, bf.dim, bf.side});
  const std::int64_t slab_cells =
      fx.lay.interior_box().face_ghost_slab(0, 0, fx.lay.ghost).volume();
  for (int id : fx.forest.leaves()) {
    for (int dim = 0; dim < 2; ++dim)
      for (int side = 0; side < 2; ++side) {
        const bool is_bd = boundary.count({id, dim, side}) > 0;
        const std::int64_t got = covered.count({id, dim, side})
                                     ? covered[{id, dim, side}]
                                     : 0;
        EXPECT_EQ(got, is_bd ? 0 : slab_cells)
            << "block " << id << " face " << dim << "," << side;
      }
  }
}

TEST(GhostExchanger, BoundaryFacesAreExactlyDomainBoundary) {
  MixedFixture fx;
  int expected = 0;
  for (int id : fx.forest.leaves())
    for (int dim = 0; dim < 2; ++dim)
      for (int side = 0; side < 2; ++side)
        if (fx.forest.face_neighbor(id, dim, side).kind ==
            Forest<2>::NeighborKind::Boundary)
          ++expected;
  EXPECT_EQ(static_cast<int>(fx.gx.boundary_faces().size()), expected);
  EXPECT_GT(expected, 0);
}

TEST(GhostExchanger, FillBlockFillsOnlyThatBlock) {
  // One block's fill is its incoming ops (ops_into) applied one by one, the
  // sequence the subcycled level pass runs.
  MixedFixture fx;
  auto fn = [](const RVec<2>& x, int) { return x[0] + 10.0 * x[1]; };
  set_from_function<2>(fx.forest, fx.store, fn);
  // Pick a block with a same-level neighbor.
  int id = fx.forest.find(0, {0, 0});
  for (int i : fx.gx.ops_into(id))
    fx.gx.apply(fx.store, fx.gx.ops()[static_cast<std::size_t>(i)]);
  ConstBlockView<2> v = std::as_const(fx.store).view(id);
  // Its x-high ghost (same-level neighbor) is now correct...
  Box<2> slab = fx.lay.interior_box().face_ghost_slab(0, 1, fx.lay.ghost);
  for_each_cell<2>(slab, [&](IVec<2> p) {
    RVec<2> x = ghost_cell_center<2>(fx.forest, fx.lay, id, p);
    EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-13);
  });
  // ...but another block's ghosts are untouched (still zero).
  int other = fx.forest.find(0, {0, 1});
  ConstBlockView<2> w = std::as_const(fx.store).view(other);
  Box<2> oslab = fx.lay.interior_box().face_ghost_slab(0, 1, fx.lay.ghost);
  bool any_nonzero = false;
  for_each_cell<2>(oslab, [&](IVec<2> p) {
    if (w.at(0, p) != 0.0) any_nonzero = true;
  });
  EXPECT_FALSE(any_nonzero);
}

TEST(GhostExchanger, TotalCellsMatchesOps) {
  MixedFixture fx;
  std::int64_t sum = 0;
  for (const auto& op : fx.gx.ops()) sum += op.cells();
  EXPECT_EQ(fx.gx.total_cells(), sum);
  EXPECT_GT(sum, 0);
}

TEST(GhostExchanger, ThreeDimensionalMixedGridLinearExact) {
  Forest<3>::Config cfg;
  cfg.root_blocks = {4, 4, 4};
  cfg.domain_hi = {4.0, 4.0, 4.0};
  Forest<3> f(cfg);
  f.refine(f.find(0, {1, 1, 1}));  // interior block: no boundary clamping
  BlockLayout<3> lay({4, 4, 4}, 2, 1);
  BlockStore<3> store(lay);
  auto fn = [](const RVec<3>& x, int) {
    return x[0] - 2.0 * x[1] + 0.5 * x[2];
  };
  set_from_function<3>(f, store, fn);
  GhostExchanger<3> gx(f, lay);
  gx.fill(store);
  for (const auto& op : gx.ops()) {
    ConstBlockView<3> v = std::as_const(store).view(op.dst);
    for_each_cell<3>(op.dst_box, [&](IVec<3> p) {
      RVec<3> x = ghost_cell_center<3>(f, lay, op.dst, p);
      EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-12)
          << "kind " << static_cast<int>(op.kind) << " cell " << p;
    });
  }
}

TEST(GhostExchanger, PeriodicCoarseFineWrapConsistency) {
  // Refined block at the domain edge with periodicity: the prolongation
  // source wraps around. A constant field must survive exactly.
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.periodic = {true, true};
  Forest<2> f(cfg);
  f.refine(f.find(0, {0, 0}));
  BlockLayout<2> lay({4, 4}, 2, 1);
  BlockStore<2> store(lay);
  set_from_function<2>(f, store, [](const RVec<2>&, int) { return -3.5; });
  GhostExchanger<2> gx(f, lay);
  EXPECT_TRUE(gx.boundary_faces().empty());
  gx.fill(store);
  for (int id : f.leaves()) {
    ConstBlockView<2> v = std::as_const(store).view(id);
    for (int dim = 0; dim < 2; ++dim)
      for (int side = 0; side < 2; ++side) {
        Box<2> slab = lay.interior_box().face_ghost_slab(dim, side, 2);
        for_each_cell<2>(slab,
                         [&](IVec<2> p) { EXPECT_EQ(v.at(0, p), -3.5); });
      }
  }
}

TEST(GhostExchanger, ProlongationNormalSlopeIsSecondOrder) {
  // The two-phase fill lets normal slopes use the restriction-filled ghost
  // of the coarse source, so a field linear in the normal direction is
  // exact even in the ghost layer farthest from the interface.
  MixedFixture fx;
  auto fn = [](const RVec<2>& x, int) { return 5.0 * x[0]; };
  set_from_function<2>(fx.forest, fx.store, fn);
  fx.gx.fill(fx.store);
  for (const auto& op : fx.gx.ops()) {
    if (op.kind != GhostOpKind::Prolong || op.face_dim != 0) continue;
    ConstBlockView<2> v = std::as_const(fx.store).view(op.dst);
    for_each_cell<2>(op.dst_box, [&](IVec<2> p) {
      RVec<2> x = ghost_cell_center<2>(fx.forest, fx.lay, op.dst, p);
      EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-12);
    });
  }
}

}  // namespace
}  // namespace ab
