// Probe harness + selection logic + end-to-end autotuning through AmrSolver.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "amr/solver.hpp"
#include "physics/euler.hpp"
#include "physics/mhd.hpp"
#include "tune/autotuner.hpp"
#include "tune/probe.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

/// Milliseconds-scale probe effort for tests: one sweep per batch, tiny
/// synthetic grid.
tune::ProbeBudget tiny_budget(int edge = 16) {
  tune::ProbeBudget b;
  b.min_seconds = 0.0;  // first calibration batch (1 sweep) always suffices
  b.repetitions = 1;
  b.budget_edge = edge;
  return b;
}

/// Restores AB_AUTOTUNE on scope exit so tests never leak env state.
struct EnvGuard {
  explicit EnvGuard(const char* value) {
    const char* cur = std::getenv("AB_AUTOTUNE");
    if (cur != nullptr) saved_ = cur;
    had_ = cur != nullptr;
    if (value != nullptr)
      setenv("AB_AUTOTUNE", value, 1);
    else
      unsetenv("AB_AUTOTUNE");
  }
  ~EnvGuard() {
    if (had_)
      setenv("AB_AUTOTUNE", saved_.c_str(), 1);
    else
      unsetenv("AB_AUTOTUNE");
  }
  std::string saved_;
  bool had_ = false;
};

tune::ProbeResult row(int m, int pad, int sub, double ns) {
  tune::ProbeResult r;
  r.cand = {m, pad, sub};
  r.ns_per_cell = ns;
  return r;
}

TEST(TuneProbe, SmokeTinyBudgetMeasuresRealSweep) {
  Euler<2> phys;
  const tune::ProbeResult r =
      tune::run_probe<2, Euler<2>>({8, 0, 0}, tiny_budget(16), phys);
  EXPECT_EQ(r.cand, (tune::ProbeCandidate{8, 0, 0}));
  EXPECT_EQ(r.blocks, 4);  // 16^2 budget / 8^2 blocks
  EXPECT_EQ(r.cells, 4 * 64);
  EXPECT_GT(r.ns_per_cell, 0.0);
  EXPECT_GE(r.reps, 1);
}

TEST(TuneProbe, PaddedAndSubBlockedCandidatesRun) {
  IdealMhd<2> phys;
  const tune::ProbeResult padded =
      tune::run_probe<2, IdealMhd<2>>({8, 1, 0}, tiny_budget(16), phys);
  EXPECT_GT(padded.ns_per_cell, 0.0);
  const tune::ProbeResult sub =
      tune::run_probe<2, IdealMhd<2>>({16, 0, 8}, tiny_budget(16), phys);
  EXPECT_GT(sub.ns_per_cell, 0.0);
  EXPECT_EQ(sub.blocks, 1);
}

TEST(TuneCandidates, DefaultSweepCoversIssueMinimum) {
  const std::vector<tune::ProbeCandidate> cs = tune::default_candidates();
  EXPECT_EQ(cs.size(), 14u);
  auto has = [&](tune::ProbeCandidate c) {
    for (const auto& x : cs)
      if (x == c) return true;
    return false;
  };
  for (int m : {8, 12, 16, 24, 32}) {
    EXPECT_TRUE(has({m, 0, 0})) << m;
    EXPECT_TRUE(has({m, 1, 0})) << m;
  }
  EXPECT_TRUE(has({24, 0, 12}));
  EXPECT_TRUE(has({32, 0, 16}));
  EXPECT_TRUE(has({32, 1, 16}));
}

TEST(TuneSelect, PicksFastestApplicable) {
  const std::vector<tune::ProbeResult> table = {
      row(8, 0, 0, 10.0), row(16, 0, 0, 6.0), row(32, 0, 16, 8.0)};
  const tune::Selection s = tune::select_layout(table, {32, 32}, 2, 0.0);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.best.cand, (tune::ProbeCandidate{16, 0, 0}));
}

TEST(TuneSelect, NoiseFloorPrefersSimplestLayout) {
  // 16+pad is 2% faster than plain 8; inside a 5% floor the plain default
  // must win the tie, with a 0% floor the measured minimum wins.
  const std::vector<tune::ProbeResult> table = {row(8, 0, 0, 10.0),
                                                row(16, 1, 0, 9.8)};
  tune::Selection s = tune::select_layout(table, {}, 2, 0.05);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.best.cand, (tune::ProbeCandidate{8, 0, 0}));
  s = tune::select_layout(table, {}, 2, 0.0);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.best.cand, (tune::ProbeCandidate{16, 1, 0}));
}

TEST(TuneSelect, GeometryFilterRejectsNonDividingBlocks) {
  // m=16 is fastest but does not divide a 24-cell grid; m=12 does not
  // divide 32. Only m=8 fits both.
  const std::vector<tune::ProbeResult> table = {
      row(8, 0, 0, 10.0), row(12, 0, 0, 7.0), row(16, 0, 0, 6.0)};
  const tune::Selection s = tune::select_layout(table, {24, 32}, 2, 0.0);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.best.cand, (tune::ProbeCandidate{8, 0, 0}));
}

TEST(TuneSelect, NothingApplicableFailsCleanly) {
  EXPECT_FALSE(tune::select_layout({}, {}, 2, 0.0).ok);
  const std::vector<tune::ProbeResult> table = {row(16, 0, 0, 6.0)};
  EXPECT_FALSE(tune::select_layout(table, {24}, 2, 0.0).ok);  // 16 !| 24
  EXPECT_FALSE(tune::select_layout(table, {}, 32, 0.0).ok);   // ghost > m
}

typename AmrSolver<2, Euler<2>>::Config autotuned_cfg(
    const std::string& cache) {
  typename AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {4, 4};
  cfg.forest.periodic = {true, true};
  cfg.cells_per_block = {8, 8};
  cfg.autotune = true;
  cfg.tune_cache = cache;
  cfg.tune_budget = tiny_budget(32);
  return cfg;
}

TEST(TuneEnv, EndToEndProbePickRecordThenReuse) {
  EnvGuard env(nullptr);  // decide from the config flag alone
  const std::string cache =
      testing::temp_path("cache.json");
  std::remove(cache.c_str());
  Euler<2> phys;

  AmrSolver<2, Euler<2>> first(autotuned_cfg(cache), phys);
  const tune::TuneDecision& d1 = first.tune_decision();
  EXPECT_TRUE(d1.enabled);
  ASSERT_TRUE(d1.tuned);
  EXPECT_FALSE(d1.from_cache);
  EXPECT_EQ(d1.table.size(), tune::default_candidates().size());
  // The 32x32 global grid is preserved and the chosen edge divides it.
  EXPECT_EQ(first.config().cells_per_block[0] *
                first.config().forest.root_blocks[0],
            32);
  EXPECT_EQ(32 % d1.chosen.m, 0);
  EXPECT_EQ(first.config().pad0, d1.chosen.pad0);
  EXPECT_EQ(first.config().sub_block, d1.chosen.sub_block);

  // Second construction: the recorded table short-circuits probing and the
  // decision is identical (deterministic selection from identical bytes).
  AmrSolver<2, Euler<2>> second(autotuned_cfg(cache), phys);
  const tune::TuneDecision& d2 = second.tune_decision();
  EXPECT_TRUE(d2.from_cache);
  EXPECT_EQ(d2.chosen, d1.chosen);
  ASSERT_EQ(d2.table.size(), d1.table.size());
  for (std::size_t i = 0; i < d1.table.size(); ++i) {
    EXPECT_EQ(d2.table[i].cand, d1.table[i].cand);
    EXPECT_EQ(d2.table[i].ns_per_cell, d1.table[i].ns_per_cell);
  }
  std::remove(cache.c_str());
}

TEST(TuneEnv, EnvZeroForcesOffAndLayoutUntouched) {
  EnvGuard env("0");
  const std::string cache = testing::temp_path("cache.json");
  std::remove(cache.c_str());
  Euler<2> phys;
  AmrSolver<2, Euler<2>> solver(autotuned_cfg(cache), phys);
  EXPECT_FALSE(solver.tune_decision().enabled);
  EXPECT_FALSE(solver.tune_decision().tuned);
  EXPECT_EQ(solver.config().cells_per_block, (IVec<2>{8, 8}));
  EXPECT_EQ(solver.config().forest.root_blocks, (IVec<2>{4, 4}));
  EXPECT_EQ(solver.config().pad0, 0);
  EXPECT_EQ(solver.config().sub_block, 0);
  // Forced off: no probe ran, so no cache was written.
  std::FILE* f = std::fopen(cache.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(TuneEnv, EnvOneForcesOnOverConfigDefault) {
  EnvGuard env("1");
  const std::string cache = testing::temp_path("cache.json");
  std::remove(cache.c_str());
  auto cfg = autotuned_cfg(cache);
  cfg.autotune = false;  // env wins
  Euler<2> phys;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  EXPECT_TRUE(solver.tune_decision().enabled);
  EXPECT_TRUE(solver.tune_decision().tuned);
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace ab
