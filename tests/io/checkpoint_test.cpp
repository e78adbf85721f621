#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "amr/solver.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/euler.hpp"
#include "support/churn_criterion.hpp"
#include "support/interior_digest.hpp"
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

  const Checkpoint<2> ckpt = load_checkpoint<2>(ckpt_path(), forest_cfg(), lay);
  const Forest<2>& g = ckpt.forest;
  BlockStore<2> store2(lay);
  for (int id : g.leaves()) store2.ensure(id);
  ckpt.write_leaves([&store2](int id) { return store2.view(id); });
  EXPECT_DOUBLE_EQ(ckpt.time, 3.25);
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

TEST(Checkpoint, RejectsMismatchedConfig) {
  Forest<2> f(forest_cfg());
  BlockLayout<2> lay({4, 4}, 2, 3);
  BlockStore<2> store(lay);
  for (int id : f.leaves()) store.ensure(id);
  save_checkpoint<2>(ckpt_path(), f, store, 0.0);

  // Wrong root grid.
  Forest<2>::Config bad = forest_cfg();
  bad.root_blocks = {4, 4};
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), bad, lay), Error);

  // Wrong layout.
  const BlockLayout<2> other({4, 4}, 2, 2);
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), forest_cfg(), other), Error);
  std::remove(ckpt_path().c_str());
}

TEST(Checkpoint, RejectsGarbageFile) {
  std::FILE* fp = std::fopen(ckpt_path().c_str(), "wb");
  std::fputs("not a checkpoint", fp);
  std::fclose(fp);
  const BlockLayout<2> lay({4, 4}, 2, 1);
  EXPECT_THROW(load_checkpoint<2>(ckpt_path(), forest_cfg(), lay), Error);
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

/// Bitwise equality of two solvers' times, leaf sets and leaf interiors,
/// leaves matched by (level, coords): node ids may differ after a restore.
void expect_same_solution(const AmrSolver<2, Euler<2>>& a,
                          const AmrSolver<2, Euler<2>>& b) {
  const double ta = a.time(), tb = b.time();
  ASSERT_EQ(std::memcmp(&ta, &tb, sizeof(double)), 0);
  ASSERT_EQ(a.forest().num_leaves(), b.forest().num_leaves());
  const BlockLayout<2>& lay = a.store().layout();
  for (int id : a.forest().leaves()) {
    const int bid =
        b.forest().find(a.forest().level(id), a.forest().coords(id));
    ASSERT_GE(bid, 0);
    ASSERT_TRUE(b.forest().is_leaf(bid));
    ConstBlockView<2> va = a.store().view(id);
    ConstBlockView<2> vb = b.store().view(bid);
    for (int k = 0; k < Euler<2>::NVAR; ++k)
      for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
        const double x = va.at(k, p), y = vb.at(k, p);
        ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0)
            << "var " << k << " cell (" << p[0] << "," << p[1] << ")";
      });
  }
}

TEST(Checkpoint, AdaptedSolverRestoresAnEarlierSaveBitwise) {
  // A solver that adapted and stepped past a save restores that save in
  // place: its topology, data and time return to the save's bit for bit,
  // and it then steps and regrids bitwise equal to a twin that never went
  // past the save. Covers the plans AmrSolver rebuilds on restore: the
  // flux register and the subcycled level structures.
  const std::string path = testing::temp_path("earlier.bin");
  Euler<2> phys;
  auto ic = [&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0 + 0.4 * std::exp(-40 * (dx * dx + dy * dy)),
                            {0.3, 0.1}, 1.0);
  };
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  auto refine_all = [](const Forest<2>&, const BlockStore<2>&, int) {
    return AdaptFlag::Refine;
  };
  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE(::testing::Message() << "mode " << mode);
    AmrSolver<2, Euler<2>>::Config cfg;
    cfg.forest = forest_cfg();
    cfg.forest.periodic = {true, true};
    cfg.forest.max_level = 2;
    cfg.cells_per_block = {8, 8};
    cfg.flux_correction = mode == 1;
    if (mode == 2) {
      cfg.subcycling = true;
      cfg.rk_stages = 1;
    }
    const double dt = mode == 2 ? 0.004 : 0.002;
    auto run_to_save = [&](AmrSolver<2, Euler<2>>& s) {
      s.init(ic);
      s.adapt(crit);
      s.init(ic);
      for (int i = 0; i < 3; ++i) s.step(dt);
    };

    AmrSolver<2, Euler<2>> a(cfg, phys);
    run_to_save(a);
    a.save(path);
    const int saved_leaves = a.forest().num_leaves();
    for (int i = 0; i < 2; ++i) a.step(dt);
    a.adapt(refine_all);
    ASSERT_NE(a.forest().num_leaves(), saved_leaves)
        << "the solver must have left the saved topology";
    a.step(dt);
    a.restore(path);

    AmrSolver<2, Euler<2>> twin(cfg, phys);
    run_to_save(twin);
    expect_same_solution(a, twin);
    for (auto* s : {&a, &twin}) {
      for (int i = 0; i < 2; ++i) s->step(dt);
      s->adapt(crit);
      for (int i = 0; i < 2; ++i) s->step(dt);
    }
    expect_same_solution(a, twin);
  }
  std::remove(path.c_str());
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

std::uint64_t fnv1a(const std::vector<char>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// One small regridded 2D run, saved by the serial solver and by 4 ranks
// whose regrids gather siblings and migrate blocks. The two files must be
// the same bytes, and those bytes are pinned: the file format cannot drift
// with the code that writes or reads block interiors. Restoring the file
// and saving again gives it back unchanged.
TEST(Checkpoint, PinnedFileFromSerialAndRankSolvers) {
  Euler<2> phys;
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest = forest_cfg();
  cfg.forest.root_blocks = {3, 3};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  auto ic = [&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.4, dy = x[1] - 0.6;
    s = phys.from_primitive(1.0 + 0.5 * std::exp(-30 * (dx * dx + dy * dy)),
                            {0.3, -0.2}, 1.0);
  };
  auto script = [&](auto& solver) {
    solver.init(ic);
    for (std::uint64_t round = 0; round < 4; ++round) {
      solver.adapt(testing::ChurnCriterion<2>{0x5eed + round, 2});
      solver.step(solver.compute_dt());
    }
  };
  AmrSolver<2, Euler<2>> serial(cfg, phys);
  script(serial);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = cfg;
  rcfg.npes = 4;
  RankSolver<2, Euler<2>> ranks(rcfg, phys);
  script(ranks);
  EXPECT_GT(ranks.totals().migrated_blocks, 0);
  EXPECT_GT(ranks.totals().gather_messages, 0);

  const std::string serial_path = testing::temp_path("serial.ckpt");
  const std::string rank_path = testing::temp_path("ranks.ckpt");
  serial.save(serial_path);
  ranks.save(rank_path);
  const std::vector<char> bytes = file_bytes(serial_path);
  EXPECT_EQ(file_bytes(rank_path), bytes);
  EXPECT_EQ(fnv1a(bytes), 0x98c5dea47be61b4bull)
      << "checkpoint bytes changed: " << testing::digest_hex(fnv1a(bytes));

  AmrSolver<2, Euler<2>> back(cfg, phys);
  back.restore(rank_path);
  back.save(serial_path);
  EXPECT_EQ(file_bytes(serial_path), bytes);
  std::remove(serial_path.c_str());
  std::remove(rank_path.c_str());
}

}  // namespace
}  // namespace ab
