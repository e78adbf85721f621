// The batched ghost executor (kind/destination-sorted exec order, row
// memcpy SameCopy, per-row vector Restrict/Prolong loops) must fill exactly
// the same bytes as the per-cell path (pack_op + unpack_op).
#include "core/ghost.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "support/ghost_reference.hpp"
#include "util/thread_pool.hpp"

namespace ab {
namespace {

/// Deterministic per-(block, var, cell) values over the FULL ghosted box,
/// so pre-fill ghost bytes are identical in both stores and any cell the
/// batched path touched differently from the reference shows up in memcmp.
template <int D>
void seed_store(const Forest<D>& forest, BlockStore<D>& store) {
  const BlockLayout<D>& lay = store.layout();
  for (int id : forest.leaves()) {
    store.ensure(id);
    BlockView<D> v = store.view(id);
    const std::int64_t fs = lay.field_stride();
    for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) {
      double x = 0.125 * id;
      for (int d = 0; d < D; ++d) x += (0.37 + 0.11 * d) * p[d];
      const std::int64_t off = lay.offset(p);
      for (int var = 0; var < lay.nvar; ++var)
        v.base[var * fs + off] = x + 100.0 * var + 0.003 * x * x;
    });
  }
}

template <int D>
void expect_stores_equal(const Forest<D>& forest, const BlockStore<D>& a,
                         const BlockStore<D>& b) {
  const std::size_t bytes =
      static_cast<std::size_t>(a.layout().block_doubles()) * sizeof(double);
  for (int id : forest.leaves())
    ASSERT_EQ(0, std::memcmp(a.view(id).base, b.view(id).base, bytes))
        << "block " << id;
}

template <int D>
void check_forest(const Forest<D>& forest, const BlockLayout<D>& lay,
                  Prolongation prolongation) {
  GhostExchanger<D> gx(forest, lay, prolongation);

  // exec_order() is a permutation of the op list, non-Prolong first.
  const auto& order = gx.exec_order();
  ASSERT_EQ(order.size(), gx.ops().size());
  std::vector<bool> seen(gx.ops().size(), false);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_GE(order[i], 0);
    ASSERT_LT(order[i], static_cast<int>(gx.ops().size()));
    ASSERT_FALSE(seen[static_cast<std::size_t>(order[i])]);
    seen[static_cast<std::size_t>(order[i])] = true;
    const auto& op = gx.ops()[static_cast<std::size_t>(order[i])];
    EXPECT_EQ(op.kind == GhostOpKind::Prolong,
              static_cast<int>(i) >= gx.phase1_count());
  }

  BlockStore<D> batched(lay), threaded(lay), reference(lay);
  seed_store(forest, batched);
  seed_store(forest, threaded);
  seed_store(forest, reference);

  gx.fill(batched);
  ThreadPool pool(3);
  gx.fill(threaded, &pool);
  ab::testing::fill_per_cell(gx, reference);

  expect_stores_equal(forest, batched, reference);
  expect_stores_equal(forest, threaded, reference);
}

template <int D>
Forest<D> mixed_forest(IVec<D> roots, bool periodic) {
  typename Forest<D>::Config cfg;
  cfg.root_blocks = roots;
  cfg.max_level = 2;
  for (int d = 0; d < D; ++d) cfg.periodic[d] = periodic;
  Forest<D> forest(cfg);
  forest.refine(forest.find(0, IVec<D>(0)));
  IVec<D> c(1);
  forest.refine(forest.find(1, c));
  return forest;
}

TEST(GhostBatchExecution, Uniform2DAllProlongations) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {3, 2};
  cfg.periodic = {true, true};
  Forest<2> forest(cfg);
  BlockLayout<2> lay({8, 6}, 2, 3);
  for (Prolongation p : {Prolongation::Constant, Prolongation::Linear,
                         Prolongation::LimitedLinear})
    check_forest<2>(forest, lay, p);
}

TEST(GhostBatchExecution, MixedLevels2D) {
  Forest<2> forest = mixed_forest<2>({2, 2}, true);
  BlockLayout<2> lay({8, 6}, 2, 3);
  for (Prolongation p : {Prolongation::Constant, Prolongation::Linear,
                         Prolongation::LimitedLinear})
    check_forest<2>(forest, lay, p);
}

TEST(GhostBatchExecution, MixedLevels3D) {
  Forest<3> forest = mixed_forest<3>({2, 2, 2}, true);
  BlockLayout<3> lay({8, 6, 4}, 2, 2);
  for (Prolongation p : {Prolongation::Constant, Prolongation::Linear,
                         Prolongation::LimitedLinear})
    check_forest<3>(forest, lay, p);
}

TEST(GhostBatchExecution, MixedLevels1DNonPeriodic) {
  Forest<1> forest = mixed_forest<1>(IVec<1>(4), false);
  BlockLayout<1> lay(IVec<1>(8), 2, 2);
  check_forest<1>(forest, lay, Prolongation::LimitedLinear);
}

TEST(GhostBatchExecution, FillBlockMatchesReference) {
  Forest<2> forest = mixed_forest<2>({2, 2}, true);
  BlockLayout<2> lay({8, 8}, 2, 2);
  GhostExchanger<2> gx(forest, lay);
  BlockStore<2> a(lay), b(lay);
  seed_store(forest, a);
  seed_store(forest, b);
  // Prime both stores so prolongation slope stencils see identical ghosts,
  // then spot-check the per-destination sequence (ops_into + apply, as the
  // subcycled level pass runs it) against the reference.
  gx.fill(a);
  ab::testing::fill_per_cell(gx, b);
  for (int id : forest.leaves()) {
    for (int i : gx.ops_into(id))
      gx.apply(a, gx.ops()[static_cast<std::size_t>(i)]);
    for (const auto& op : gx.ops())
      if (op.dst == id) ab::testing::apply_per_cell(gx, b, op);
  }
  expect_stores_equal(forest, a, b);
}

}  // namespace
}  // namespace ab
