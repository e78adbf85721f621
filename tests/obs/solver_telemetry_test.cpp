// Solver-level telemetry guarantees: attaching a Telemetry (trace enabled,
// report open) must be bitwise invisible to the numerics at every thread
// count, and the artifacts it produces — per-step JSONL records, Chrome
// trace spans, per-rank traffic tables — must be internally consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "amr/solver.hpp"
#include "obs/telemetry.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/euler.hpp"
#include "support/mini_json.hpp"

namespace ab {
namespace {

constexpr int kSteps = 6;

Euler<2> euler;

void euler_ic(const RVec<2>& x, Euler<2>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5;
  s = euler.from_primitive(1.0 + 0.8 * std::exp(-40 * (dx * dx + dy * dy)),
                           {0.4, -0.3}, 1.0);
}

AmrSolver<2, Euler<2>>::Config base_cfg(int threads) {
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.num_threads = threads;
  cfg.flux_correction = true;
  cfg.apply_positivity_fix = true;
  return cfg;
}

/// The determinism-test script (adapt + step + periodic regrids) with an
/// optional telemetry attached; returns the full leaf state for bitwise
/// comparison.
std::vector<double> run(int threads, obs::Telemetry* tel) {
  auto cfg = base_cfg(threads);
  cfg.telemetry = tel;
  AmrSolver<2, Euler<2>> solver(cfg, euler);
  solver.init(euler_ic);
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  solver.adapt(crit);
  solver.init(euler_ic);
  for (int i = 0; i < kSteps; ++i) {
    solver.step(solver.compute_dt());
    if (i % 3 == 2) solver.adapt(crit);
  }
  std::vector<double> out;
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    out.push_back(static_cast<double>(solver.forest().level(id)));
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Euler<2>::NVAR; ++k) out.push_back(v.at(k, p));
    });
  }
  return out;
}

std::vector<testjson::Value> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<testjson::Value> records;
  std::string line;
  while (std::getline(in, line)) {
    testjson::Value doc;
    EXPECT_TRUE(testjson::parse(line, doc)) << line;
    records.push_back(std::move(doc));
  }
  return records;
}

class TelemetryBitwise : public ::testing::TestWithParam<int> {};

// The central zero-cost-off / read-only guarantee: a fully active telemetry
// (span collection on, JSONL sink open) must not perturb a single bit of
// the solution, serial or threaded.
TEST_P(TelemetryBitwise, ActiveTelemetryDoesNotPerturbSolution) {
  const int threads = GetParam();
  const std::vector<double> plain = run(threads, nullptr);

  obs::Telemetry tel;
  tel.trace.set_enabled(true);
  const std::string path = ::testing::TempDir() + "tel_bitwise_" +
                           std::to_string(threads) + ".jsonl";
  ASSERT_TRUE(tel.open_report(path));
  const std::vector<double> observed = run(threads, &tel);

  ASSERT_EQ(plain.size(), observed.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    ASSERT_EQ(plain[i], observed[i]) << "element " << i;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Threads, TelemetryBitwise, ::testing::Values(1, 4));

void check_report(int threads) {
  obs::Telemetry tel;
  const std::string path = ::testing::TempDir() + "tel_report_" +
                           std::to_string(threads) + ".jsonl";
  ASSERT_TRUE(tel.open_report(path));
  run(threads, &tel);

  const std::vector<testjson::Value> records = read_jsonl(path);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kSteps));

  // Phases recorded strictly inside step(); compute_dt / regrid run between
  // steps and ride in the next record, so they are excluded from the
  // wall-time consistency check.
  const char* in_step[] = {"ghost_exchange", "stage_update", "reflux",
                           "epilogue"};
  double wall_total = 0.0, in_step_total = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const testjson::Value& r = records[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.is_object());
    EXPECT_EQ(r.find("step")->number, static_cast<double>(i));
    EXPECT_GT(r.find("dt")->number, 0.0);
    EXPECT_GT(r.find("blocks")->number, 0.0);
    EXPECT_GT(r.find("cells_updated")->number, 0.0);
    const double wall = r.find("wall_s")->number;
    EXPECT_GT(wall, 0.0);
    const testjson::Value* ghost = r.find("ghost_ops");
    ASSERT_NE(ghost, nullptr);
    EXPECT_GT(ghost->find("copy")->number, 0.0);  // periodic 2x2: always
    const testjson::Value* phases = r.find("phases");
    ASSERT_NE(phases, nullptr);
    ASSERT_TRUE(phases->is_object());
    double sum = 0.0;
    for (const char* name : in_step) {
      const testjson::Value* p = phases->find(name);
      if (p != nullptr) sum += p->number;
    }
    EXPECT_GT(sum, 0.0) << "step " << i;
    wall_total += wall;
    in_step_total += sum;
  }
  // The in-step phase scopes tile the step almost completely; allow slack
  // for scope overhead and the untimed residue (store swaps, accounting).
  EXPECT_LE(in_step_total, wall_total * 1.25 + 1e-3);
  EXPECT_GE(in_step_total, wall_total * 0.25);

  // Cumulative counters in the final record.
  const testjson::Value* counters = records.back().find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("solver.steps")->number,
            static_cast<double>(kSteps));
  EXPECT_GT(counters->find("solver.block_updates")->number, 0.0);
  EXPECT_GT(counters->find("solver.flops")->number, 0.0);
  EXPECT_GT(counters->find("solver.ghost_copy_ops")->number, 0.0);
  // Regrids happened after steps 3 and 6 of the script (i % 3 == 2).
  EXPECT_GT(counters->find("solver.refined")->number +
                counters->find("solver.coarsened")->number,
            0.0);
  const testjson::Value* gauges = records.back().find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("solver.dt")->number,
            records.back().find("dt")->number);
  // Pool substrate accounting (the default config is pooled): cumulative
  // slab traffic counters plus the final arena shape gauges.
  ASSERT_NE(counters->find("pool.fresh_allocs"), nullptr);
  EXPECT_GT(counters->find("pool.fresh_allocs")->number, 0.0);
  ASSERT_NE(counters->find("pool.reuse_hits"), nullptr);
  EXPECT_GE(counters->find("pool.reuse_hits")->number, 0.0);
  ASSERT_NE(gauges->find("pool.chunks"), nullptr);
  EXPECT_GT(gauges->find("pool.chunks")->number, 0.0);
  ASSERT_NE(gauges->find("pool.slabs_in_use"), nullptr);
  EXPECT_GT(gauges->find("pool.slabs_in_use")->number, 0.0);
  std::remove(path.c_str());
}

TEST(StepReportJsonl, SerialRecordsAreConsistent) { check_report(1); }
TEST(StepReportJsonl, ThreadedRecordsAreConsistent) { check_report(4); }

/// Every thread count runs the same step phases, so serial and threaded
/// runs record the same spans: one per phase scope, no per-block task or
/// stall spans. Returns the run's solver.block_updates counter.
std::uint64_t expect_step_phase_spans(int threads) {
  obs::Telemetry tel;
  tel.trace.set_enabled(true);
  run(threads, &tel);
  bool saw_ghost = false, saw_stage = false, saw_dt = false;
  bool saw_reflux = false, saw_epilogue = false, saw_regrid = false;
  for (const auto& e : tel.trace.events()) {
    if (std::strcmp(e.name, "ghost_exchange") == 0) saw_ghost = true;
    if (std::strcmp(e.name, "stage_update") == 0) saw_stage = true;
    if (std::strcmp(e.name, "compute_dt") == 0) saw_dt = true;
    if (std::strcmp(e.name, "reflux") == 0) saw_reflux = true;
    if (std::strcmp(e.name, "epilogue") == 0) saw_epilogue = true;
    if (std::strcmp(e.name, "regrid") == 0) saw_regrid = true;
    EXPECT_TRUE(std::strcmp(e.cat, "phase") == 0 ||
                std::strcmp(e.cat, "regrid") == 0)
        << e.name << " in category " << e.cat;
    EXPECT_GE(e.t1_ns, e.t0_ns);
  }
  EXPECT_TRUE(saw_ghost);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_dt);
  EXPECT_TRUE(saw_reflux);
  EXPECT_TRUE(saw_epilogue);
  EXPECT_TRUE(saw_regrid);
  return tel.metrics.counter("solver.block_updates")->value();
}

TEST(TraceSpans, SerialRunRecordsStepPhases) {
  EXPECT_GT(expect_step_phase_spans(1), 0u);
}

// Threaded block tasks run inside the stage_update phase span on the pool
// rather than as spans of their own; the block_updates counter still
// records every one of them, the same count as the serial run's.
TEST(TraceSpans, ThreadedRunRecordsPhasesAndBlockTasks) {
  const std::uint64_t threaded = expect_step_phase_spans(4);
  EXPECT_GT(threaded, 0u);
  EXPECT_EQ(threaded, expect_step_phase_spans(1));
}

// ------------------------------------------------------------ RankSolver

// Both solvers run one stepping core, so a serial and a rank-parallel run
// of the same script (2D Euler with refluxing and a regrid) write the same
// step records: the same phases, compute_dt and reflux included, and equal
// step, time, block, cell, regrid and ghost-op fields. Only the rank
// records carry a per-rank traffic table.
TEST(StepReportJsonl, SerialAndRankRecordsMatch) {
  const int steps = 4;
  const int npes = 3;
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  auto run_script = [&](auto& solver) {
    solver.init(euler_ic);
    solver.adapt(crit);
    solver.init(euler_ic);
    for (int i = 0; i < steps; ++i) {
      solver.step(solver.compute_dt());
      if (i == 1) solver.adapt(crit);
    }
  };
  const std::string serial_path =
      ::testing::TempDir() + "serial_vs_rank_serial.jsonl";
  const std::string rank_path =
      ::testing::TempDir() + "serial_vs_rank_rank.jsonl";
  {
    obs::Telemetry tel;
    ASSERT_TRUE(tel.open_report(serial_path));
    auto cfg = base_cfg(1);
    cfg.telemetry = &tel;
    AmrSolver<2, Euler<2>> serial(cfg, euler);
    run_script(serial);
  }
  {
    obs::Telemetry tel;
    ASSERT_TRUE(tel.open_report(rank_path));
    RankSolver<2, Euler<2>>::Config rcfg;
    rcfg.solver = base_cfg(1);
    rcfg.solver.telemetry = &tel;
    rcfg.npes = npes;
    rcfg.transport = wire::TransportKind::Board;
    RankSolver<2, Euler<2>> ranks(rcfg, euler);
    run_script(ranks);
  }

  const std::vector<testjson::Value> serial = read_jsonl(serial_path);
  const std::vector<testjson::Value> rank = read_jsonl(rank_path);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(steps));
  ASSERT_EQ(rank.size(), serial.size());
  double regrid_events = 0.0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "step " << i);
    const testjson::Value& a = serial[i];
    const testjson::Value& b = rank[i];
    for (const char* field : {"step", "t", "dt", "blocks", "cells_updated",
                              "refined", "coarsened"}) {
      ASSERT_NE(a.find(field), nullptr) << field;
      ASSERT_NE(b.find(field), nullptr) << field;
      EXPECT_EQ(a.find(field)->number, b.find(field)->number) << field;
    }
    regrid_events +=
        a.find("refined")->number + a.find("coarsened")->number;
    const testjson::Value* ga = a.find("ghost_ops");
    const testjson::Value* gb = b.find("ghost_ops");
    ASSERT_NE(ga, nullptr);
    ASSERT_NE(gb, nullptr);
    for (const char* kind : {"copy", "restrict", "prolong"})
      EXPECT_EQ(ga->find(kind)->number, gb->find(kind)->number) << kind;
    EXPECT_GT(ga->find("copy")->number, 0.0);
    const std::vector<std::string> phases = a.find("phases")->keys();
    EXPECT_EQ(phases, b.find("phases")->keys());
    for (const char* name : {"compute_dt", "ghost_exchange", "stage_update",
                             "reflux", "epilogue"})
      EXPECT_NE(std::find(phases.begin(), phases.end(), name), phases.end())
          << name;
    EXPECT_EQ(a.find("per_rank"), nullptr);
    const testjson::Value* per_rank = b.find("per_rank");
    ASSERT_NE(per_rank, nullptr);
    EXPECT_EQ(per_rank->arr.size(), static_cast<std::size_t>(npes));
  }
  // The script's regrids (before step 0 and after step 1) changed the grid.
  EXPECT_GT(regrid_events, 0.0);
  std::remove(serial_path.c_str());
  std::remove(rank_path.c_str());
}

template <class Phys>
void expect_rank_identical(const RankSolver<2, Phys>& a,
                           const RankSolver<2, Phys>& b) {
  ASSERT_EQ(a.forest().num_leaves(), b.forest().num_leaves());
  const Box<2> interior =
      Box<2>::from_extent(a.config().solver.cells_per_block);
  for (int id : a.forest().leaves()) {
    ConstBlockView<2> va = a.block_view(id);
    ConstBlockView<2> vb = b.block_view(id);
    for_each_cell<2>(interior, [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k) ASSERT_EQ(va.at(k, p), vb.at(k, p));
    });
  }
}

TEST(RankSolverTelemetry, PerRankTrafficRecordsAndBitwiseInvisibility) {
  const int npes = 3;
  auto scfg = base_cfg(1);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = npes;
  rcfg.policy = PartitionPolicy::RoundRobin;
  RankSolver<2, Euler<2>> plain(rcfg, euler);

  obs::Telemetry tel;
  const std::string path = ::testing::TempDir() + "rank_tel.jsonl";
  ASSERT_TRUE(tel.open_report(path));
  rcfg.solver.telemetry = &tel;
  RankSolver<2, Euler<2>> observed(rcfg, euler);

  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  for (RankSolver<2, Euler<2>>* s : {&plain, &observed}) {
    s->adapt(crit);
    s->init(euler_ic);
  }
  const int steps = 4;
  for (int i = 0; i < steps; ++i) {
    const double dt = plain.compute_dt();
    ASSERT_EQ(dt, observed.compute_dt());
    plain.step(dt);
    observed.step(dt);
  }
  expect_rank_identical(plain, observed);

  const std::vector<testjson::Value> records = read_jsonl(path);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(steps));
  for (const testjson::Value& r : records) {
    const testjson::Value* per_rank = r.find("per_rank");
    ASSERT_NE(per_rank, nullptr);
    ASSERT_TRUE(per_rank->is_array());
    ASSERT_EQ(per_rank->arr.size(), static_cast<std::size_t>(npes));
    double sent_m = 0, recv_m = 0, sent_b = 0, recv_b = 0;
    for (int pe = 0; pe < npes; ++pe) {
      const testjson::Value& t = per_rank->arr[static_cast<std::size_t>(pe)];
      EXPECT_EQ(t.find("rank")->number, static_cast<double>(pe));
      sent_m += t.find("sent_messages")->number;
      recv_m += t.find("recv_messages")->number;
      sent_b += t.find("sent_bytes")->number;
      recv_b += t.find("recv_bytes")->number;
    }
    // Every message has exactly one sender and one receiver.
    EXPECT_EQ(sent_m, recv_m);
    EXPECT_EQ(sent_b, recv_b);
    EXPECT_GT(sent_m, 0.0);  // 3 ranks over a periodic 2x2 forest: traffic
  }
  const testjson::Value* counters = records.back().find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("rank.steps")->number, static_cast<double>(steps));
  EXPECT_GT(counters->find("rank.ghost_bytes")->number, 0.0);
  const testjson::Value* gauges = records.back().find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GE(gauges->find("rank.load_imbalance")->number, 1.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ab
