#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "amr/solver.hpp"
#include "physics/euler.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

/// The running test's checkpoint file.
std::string ckpt_path() { return testing::temp_path("checkpoint.bin"); }

Forest<2>::Config forest_cfg() {
  Forest<2>::Config c;
  c.root_blocks = {2, 2};
  c.max_level = 3;
  c.periodic = {true, false};
  return c;
}

TEST(Checkpoint, RoundTripTopologyAndData) {
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay({4, 4}, 2, 3);
  BlockStore<2> store(lay);
  // Build a non-trivial topology and data.
  f.refine(f.find(0, {0, 0}));
  f.refine(f.find(1, {1, 1}));
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<2> v = store.view(id);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int var = 0; var < 3; ++var)
        v.at(var, p) = id * 1000.0 + var * 100.0 + p[0] * 10.0 + p[1];
    });
  }
  save_checkpoint<2>(ckpt_path(), f, store, 3.25);

  Forest<2> g(forest_cfg());
  BlockStore<2> store2(lay);
  const double t = load_checkpoint<2>(ckpt_path(), g, store2);
  EXPECT_DOUBLE_EQ(t, 3.25);
  EXPECT_EQ(g.num_leaves(), f.num_leaves());
  // Identical leaf sets and data, matched by (level, coords).
  for (int id : f.leaves()) {
    const int gid = g.find(f.level(id), f.coords(id));
    ASSERT_GE(gid, 0);
    ASSERT_TRUE(g.is_leaf(gid));
    ConstBlockView<2> a = std::as_const(store).view(id);
    ConstBlockView<2> b = std::as_const(store2).view(gid);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int var = 0; var < 3; ++var)
        ASSERT_EQ(a.at(var, p), b.at(var, p));
    });
  }
  std::remove(ckpt_path().c_str());
}

TEST(Checkpoint, V1FilesStillLoad) {
  // Back-compat: files written in the legacy v1 layout (no sections, no
  // checksums) must keep loading byte-for-byte through the v2 reader. The
  // fixture was written once by the v1 writer (since removed) from exactly
  // the forest and data built below.
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay({4, 4}, 2, 3);
  BlockStore<2> store(lay);
  f.refine(f.find(0, {1, 0}));
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<2> v = store.view(id);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int var = 0; var < 3; ++var)
        v.at(var, p) = id + 0.25 * var + 0.5 * p[0] - p[1];
    });
  }

  Forest<2> g(forest_cfg());
  BlockStore<2> store2(lay);
  const double t =
      load_checkpoint<2>(AB_TEST_DATA_DIR "/checkpoint_v1.bin", g, store2);
  EXPECT_DOUBLE_EQ(t, 7.5);
  ASSERT_EQ(g.num_leaves(), f.num_leaves());
  for (int id : f.leaves()) {
    const int gid = g.find(f.level(id), f.coords(id));
    ASSERT_GE(gid, 0);
    ConstBlockView<2> a = std::as_const(store).view(id);
    ConstBlockView<2> b = std::as_const(store2).view(gid);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int var = 0; var < 3; ++var)
        ASSERT_EQ(a.at(var, p), b.at(var, p));
    });
  }
}

TEST(Checkpoint, RejectsMismatchedConfig) {
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay({4, 4}, 2, 3);
  BlockStore<2> store(lay);
  for (int id : f.leaves()) store.ensure(id);
  save_checkpoint<2>(ckpt_path(), f, store, 0.0);

  // Wrong root grid.
  Forest<2>::Config bad = forest_cfg();
  bad.root_blocks = {4, 4};
  Forest<2> g(bad);
  BlockStore<2> s2(lay);
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), g, s2), Error);

  // Wrong layout.
  Forest<2> h(forest_cfg());
  BlockStore<2> s3(BlockLayout<2>({4, 4}, 2, 2));
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), h, s3), Error);
  std::remove(ckpt_path().c_str());
}

TEST(Checkpoint, RejectsNonPristineForest) {
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay({4, 4}, 2, 1);
  BlockStore<2> store(lay);
  for (int id : f.leaves()) store.ensure(id);
  save_checkpoint<2>(ckpt_path(), f, store, 0.0);

  Forest<2> g(forest_cfg());
  g.refine(g.leaves()[0]);
  BlockStore<2> s2(lay);
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), g, s2), Error);
  std::remove(ckpt_path().c_str());
}

TEST(Checkpoint, RejectsGarbageFile) {
  std::FILE* fp = std::fopen(ckpt_path().c_str(), "wb");
  std::fputs("not a checkpoint", fp);
  std::fclose(fp);
  Forest<2> g(forest_cfg());
  BlockStore<2> s(BlockLayout<2>({4, 4}, 2, 1));
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), g, s), Error);
  std::remove(ckpt_path().c_str());
}

TEST(Checkpoint, SolverRestartContinuesIdentically) {
  // Run A: 10 steps straight. Run B: 5 steps, checkpoint, restore into a
  // fresh solver, 5 more. Results must agree to machine precision.
  Euler<2> phys;
  auto make = [&] {
    AmrSolver<2, Euler<2>>::Config cfg;
    cfg.forest = forest_cfg();
    cfg.forest.periodic = {true, true};
    cfg.cells_per_block = {8, 8};
    return std::make_unique<AmrSolver<2, Euler<2>>>(cfg, phys);
  };
  auto ic = [&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0 + 0.4 * std::exp(-40 * (dx * dx + dy * dy)),
                            {0.3, 0.1}, 1.0);
  };
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  const double dt = 0.002;

  auto a = make();
  a->init(ic);
  a->adapt(crit);
  a->init(ic);
  for (int i = 0; i < 10; ++i) a->step(dt);

  auto b = make();
  b->init(ic);
  b->adapt(crit);
  b->init(ic);
  for (int i = 0; i < 5; ++i) b->step(dt);
  b->save(ckpt_path());

  auto c = make();
  c->restore(ckpt_path());
  EXPECT_DOUBLE_EQ(c->time(), b->time());
  for (int i = 0; i < 5; ++i) c->step(dt);

  ASSERT_EQ(c->forest().num_leaves(), a->forest().num_leaves());
  for (int id : a->forest().leaves()) {
    const int cid = c->forest().find(a->forest().level(id),
                                     a->forest().coords(id));
    ASSERT_GE(cid, 0);
    ConstBlockView<2> va = a->store().view(id);
    ConstBlockView<2> vc = c->store().view(cid);
    for_each_cell<2>(a->store().layout().interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < 4; ++k)
        ASSERT_DOUBLE_EQ(va.at(k, p), vc.at(k, p));
    });
  }
  std::remove(ckpt_path().c_str());
}

TEST(Checkpoint, RestartAfterMidRunRegridIsBitwise) {
  // Checkpoint MID-RUN, right after a data-driven regrid changed the
  // topology, reload into a fresh solver, and continue — the restarted
  // run must be BITWISE identical (ASSERT_EQ, not near) to the
  // uninterrupted one, through a further regrid on the restarted side.
  const std::string path = testing::temp_path("regrid.bin");
  Euler<2> phys;
  auto make = [&] {
    AmrSolver<2, Euler<2>>::Config cfg;
    cfg.forest = forest_cfg();
    cfg.forest.periodic = {true, true};
    cfg.forest.max_level = 2;
    cfg.cells_per_block = {8, 8};
    return std::make_unique<AmrSolver<2, Euler<2>>>(cfg, phys);
  };
  auto ic = [&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0 + 0.4 * std::exp(-40 * (dx * dx + dy * dy)),
                            {0.3, 0.1}, 1.0);
  };
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  const double dt = 0.002;

  // Uninterrupted run: 3 steps, regrid, 1 step | 3 steps, regrid, 2 steps.
  auto a = make();
  a->init(ic);
  for (int i = 0; i < 3; ++i) a->step(dt);
  const auto ra = a->adapt(crit);
  ASSERT_GT(ra.refined + ra.coarsened, 0) << "regrid was a no-op; the test "
                                             "would not cover a topology "
                                             "change";
  a->step(dt);
  for (int i = 0; i < 3; ++i) a->step(dt);
  a->adapt(crit);
  for (int i = 0; i < 2; ++i) a->step(dt);

  // Interrupted run: identical prefix, checkpoint after the regrid + 1
  // step, restore into a FRESH solver, identical suffix.
  auto b = make();
  b->init(ic);
  for (int i = 0; i < 3; ++i) b->step(dt);
  b->adapt(crit);
  b->step(dt);
  b->save(path);

  auto c = make();
  c->restore(path);
  ASSERT_EQ(c->time(), b->time());
  for (int i = 0; i < 3; ++i) c->step(dt);
  c->adapt(crit);
  for (int i = 0; i < 2; ++i) c->step(dt);

  ASSERT_EQ(c->time(), a->time());
  ASSERT_EQ(c->forest().num_leaves(), a->forest().num_leaves());
  for (int id : a->forest().leaves()) {
    const int cid =
        c->forest().find(a->forest().level(id), a->forest().coords(id));
    ASSERT_GE(cid, 0);
    ConstBlockView<2> va = a->store().view(id);
    ConstBlockView<2> vc = c->store().view(cid);
    for_each_cell<2>(a->store().layout().interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < 4; ++k) ASSERT_EQ(va.at(k, p), vc.at(k, p));
    });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ab
