// Fault-injection suite: the lossy wire (drop / corrupt / duplicate /
// reorder) must never change a single bit of the simulation, and a
// simulated rank death must recover to a state bitwise-equal to a fresh
// solver restarted from the same checkpoint. Registered under the `fault`
// ctest label.
#include "parsim/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "amr/solver.hpp"
#include "obs/telemetry.hpp"
#include "parsim/partition.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "support/rng.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

using ab::testing::splitmix64;

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, DeterministicReplay) {
  FaultPlan::Config cfg;
  cfg.seed = 77;
  cfg.drop_rate = 0.2;
  cfg.corrupt_rate = 0.2;
  cfg.duplicate_rate = 0.1;
  cfg.reorder_rate = 0.1;
  FaultPlan a(cfg), b(cfg);
  std::vector<double> pa(32), pb(32);
  for (int i = 0; i < 50; ++i) {
    for (std::size_t k = 0; k < pa.size(); ++k)
      pa[k] = pb[k] = static_cast<double>(splitmix64(i * 64 + k));
    a.transmit(0, 1, pa.data(), pa.size());
    b.transmit(0, 1, pb.data(), pb.size());
    ASSERT_EQ(pa, pb);
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().reordered, b.stats().reordered);
  EXPECT_GT(a.stats().injected(), 0);
}

TEST(FaultPlan, PayloadAlwaysDeliveredClean) {
  FaultPlan::Config cfg;
  cfg.drop_rate = 0.25;
  cfg.corrupt_rate = 0.25;
  cfg.duplicate_rate = 0.15;
  cfg.reorder_rate = 0.15;
  FaultPlan plan(cfg);
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = 1 + (i % 17);
    std::vector<double> payload(n), original(n);
    for (std::size_t k = 0; k < n; ++k)
      original[k] = payload[k] =
          std::ldexp(static_cast<double>(splitmix64(i * 31 + k)), -40);
    plan.transmit(i % 3, (i + 1) % 3, payload.data(), n);
    ASSERT_EQ(payload, original) << "payload " << i << " arrived damaged";
  }
  const FaultStats& s = plan.stats();
  EXPECT_EQ(s.transmissions, 200);
  EXPECT_EQ(s.delivered, 200);
  EXPECT_GT(s.dropped, 0);
  EXPECT_GT(s.corrupted, 0);
  EXPECT_GT(s.duplicated, 0);
  EXPECT_GT(s.reordered, 0);
  EXPECT_EQ(s.retries, s.dropped + s.corrupted);
}

TEST(FaultPlan, RetryStormExceedsMaxRetries) {
  FaultPlan::Config cfg;
  cfg.drop_rate = 1.0;
  cfg.max_retries = 4;
  FaultPlan plan(cfg);
  std::vector<double> payload(8, 1.0);
  EXPECT_THROW(plan.transmit(0, 1, payload.data(), payload.size()), Error);
}

TEST(FaultPlan, FaultBudgetCapsInjection) {
  FaultPlan::Config cfg;
  cfg.drop_rate = 1.0;
  cfg.max_faults = 3;
  FaultPlan plan(cfg);
  std::vector<double> payload(8, 1.0);
  plan.transmit(0, 1, payload.data(), payload.size());
  EXPECT_EQ(plan.stats().dropped, 3);
  EXPECT_EQ(plan.stats().delivered, 1);
  // Budget exhausted: later payloads pass straight through.
  plan.transmit(0, 1, payload.data(), payload.size());
  EXPECT_EQ(plan.stats().dropped, 3);
  EXPECT_EQ(plan.stats().delivered, 2);
}

TEST(FaultPlan, InertConfigurationsAreNoops) {
  FaultPlan plan(FaultPlan::Config{});  // all rates zero
  std::vector<double> payload = {1.0, 2.0, 3.0};
  plan.transmit(0, 1, payload.data(), payload.size());
  plan.transmit(0, 1, payload.data(), 0);  // zero-length frame
  EXPECT_EQ(plan.stats().delivered, 2);
  EXPECT_EQ(plan.stats().injected(), 0);
  EXPECT_EQ(payload, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(FaultPlan, RejectsBadConfig) {
  FaultPlan::Config cfg;
  cfg.drop_rate = 0.7;
  cfg.corrupt_rate = 0.7;  // sums past 1
  EXPECT_THROW(FaultPlan{cfg}, Error);
  FaultPlan::Config neg;
  neg.reorder_rate = -0.1;
  EXPECT_THROW(FaultPlan{neg}, Error);
}

// ----------------------------------------- solver equivalence harness

/// Data-independent criterion, identical to the rank_solver_test one: both
/// solvers see the same flags regardless of data layout.
struct SeededTopologyCriterion {
  std::uint64_t seed = 0;
  int max_level = 2;

  AdaptFlag operator()(const Forest<2>& f, const BlockStore<2>&,
                       int id) const {
    std::uint64_t h = splitmix64(seed ^ static_cast<std::uint64_t>(
                                            f.level(id) * 0x9E37u));
    for (int d = 0; d < 2; ++d)
      h = splitmix64(h ^ static_cast<std::uint64_t>(f.coords(id)[d] + 1));
    const int r = static_cast<int>(h % 4);
    if (r == 0 && f.level(id) < max_level) return AdaptFlag::Refine;
    if (r == 1 && f.level(id) > 0) return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

template <class Phys>
void expect_serial_identical(const AmrSolver<2, Phys>& serial,
                             const RankSolver<2, Phys>& ranks) {
  ASSERT_EQ(serial.forest().num_leaves(), ranks.forest().num_leaves());
  const BlockLayout<2>& lay = serial.store().layout();
  for (int id : serial.forest().leaves()) {
    const int rid = ranks.forest().find(serial.forest().level(id),
                                        serial.forest().coords(id));
    ASSERT_GE(rid, 0) << "leaf missing in rank solver";
    ConstBlockView<2> a = serial.store().view(id);
    ConstBlockView<2> b = ranks.block_view(rid);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k)
        ASSERT_EQ(a.at(k, p), b.at(k, p))
            << "var " << k << " cell (" << p[0] << "," << p[1] << ")";
    });
  }
}

template <class Phys>
void expect_ranks_identical(const RankSolver<2, Phys>& a,
                            const RankSolver<2, Phys>& b) {
  ASSERT_EQ(a.forest().num_leaves(), b.forest().num_leaves());
  const BlockLayout<2> lay(a.config().solver.cells_per_block,
                           a.config().solver.ghost, Phys::NVAR);
  for (int id : a.forest().leaves()) {
    const int bid =
        b.forest().find(a.forest().level(id), a.forest().coords(id));
    ASSERT_GE(bid, 0) << "leaf missing in reference solver";
    ConstBlockView<2> va = a.block_view(id);
    ConstBlockView<2> vb = b.block_view(bid);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k)
        ASSERT_EQ(va.at(k, p), vb.at(k, p))
            << "var " << k << " cell (" << p[0] << "," << p[1] << ")";
    });
  }
}

AmrSolver<2, Euler<2>>::Config euler_cfg() {
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.apply_positivity_fix = true;
  cfg.flux_correction = true;
  return cfg;
}

std::function<void(const RVec<2>&, Euler<2>::State&)> euler_ic(
    const Euler<2>& phys) {
  return [phys](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(
        1.0 + 0.4 * std::exp(-40.0 * (dx * dx + dy * dy)), {0.3, 0.1}, 1.0);
  };
}

/// Faulty-wire equivalence: a RankSolver whose every message crosses a
/// lossy FaultPlan wire must stay bitwise equal to the serial AmrSolver —
/// through ghost exchange, refluxing, coarsen gathers, and migration.
TEST(FaultyWire, RankSolverStaysBitwiseUnderMessageFaults) {
  for (const int npes : {2, 3, 5}) {
    SCOPED_TRACE(::testing::Message() << "npes=" << npes);
    const std::uint64_t seed = splitmix64(9000 + npes);
    Euler<2> phys;
    const auto scfg = euler_cfg();
    AmrSolver<2, Euler<2>> serial(scfg, phys);

    FaultPlan::Config fcfg;
    fcfg.seed = seed;
    fcfg.drop_rate = 0.1;
    fcfg.corrupt_rate = 0.1;
    fcfg.duplicate_rate = 0.05;
    fcfg.reorder_rate = 0.05;
    FaultPlan plan(fcfg);
    RankSolver<2, Euler<2>>::Config rcfg;
    rcfg.solver = scfg;
    rcfg.npes = npes;
    rcfg.policy = PartitionPolicy::Morton;
    rcfg.faults = &plan;
    RankSolver<2, Euler<2>> ranks(rcfg, phys);

    const auto ic = euler_ic(phys);
    for (int round = 0; round < 2; ++round) {
      SeededTopologyCriterion crit{splitmix64(seed + round), 2};
      serial.adapt(crit);
      ranks.adapt(crit);
    }
    serial.init(ic);
    ranks.init(ic);
    for (int s = 0; s < 6; ++s) {
      const double dts = serial.compute_dt();
      ASSERT_EQ(dts, ranks.compute_dt()) << "dt diverged at step " << s;
      serial.step(dts);
      ranks.step(dts);
      if (s == 2 || s == 4) {
        SeededTopologyCriterion crit{splitmix64(seed * 977 + s), 2};
        const auto a = serial.adapt(crit);
        const auto b = ranks.adapt(crit);
        ASSERT_EQ(a.refined, b.refined);
        ASSERT_EQ(a.coarsened, b.coarsened);
      }
    }
    expect_serial_identical(serial, ranks);
    EXPECT_GT(plan.stats().injected(), 0)
        << "the wire injected nothing; the run proved nothing";
    EXPECT_GT(plan.stats().retries, 0);
  }
}

// ------------------------------------------------------------- recovery

void copy_file(const std::string& from, const std::string& to) {
  std::ifstream is(from, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing " << from;
  std::ofstream os(to, std::ios::binary | std::ios::trunc);
  os << is.rdbuf();
}

/// The acceptance property: kill rank 1 mid-run; the recovered run's final
/// state must be bitwise equal to a fresh solver restarted from the same
/// checkpoint and advanced without any failure.
TEST(Recovery, RankDeathRecoversBitwiseFromLastCheckpoint) {
  const std::string ckpt = testing::temp_path("ckpt.bin");
  const std::string ref = testing::temp_path("ref.bin");
  Euler<2> phys;
  const auto scfg = euler_cfg();
  const auto ic = euler_ic(phys);
  const double dt = 0.002;
  const double t_end = 8.5 * dt;  // 9 steps uninterrupted

  FaultPlan::Config fcfg;
  fcfg.seed = 1234;
  fcfg.drop_rate = 0.1;
  fcfg.corrupt_rate = 0.1;
  fcfg.kill_rank = 1;
  fcfg.kill_at_step = 4;
  FaultPlan plan(fcfg);
  RankSolver<2, Euler<2>>::Config acfg;
  acfg.solver = scfg;
  acfg.npes = 3;
  acfg.policy = PartitionPolicy::Morton;
  acfg.faults = &plan;
  acfg.checkpoint_every = 3;  // recovery point = state after 3 steps
  acfg.checkpoint_path = ckpt;
  RankSolver<2, Euler<2>> a(acfg, phys);
  SeededTopologyCriterion crit{splitmix64(31), 2};
  a.adapt(crit);
  a.init(ic);

  int deaths = 0;
  while (a.time() < t_end) {
    try {
      a.step(dt);
    } catch (const RankFailure& f) {
      EXPECT_EQ(f.rank(), 1);
      // Preserve the recovery point before later auto-saves overwrite it.
      copy_file(ckpt, ref);
      a.recover(f.rank());
      ++deaths;
    }
  }
  ASSERT_EQ(deaths, 1) << "the kill trigger never fired";
  EXPECT_EQ(a.num_alive(), 2);
  EXPECT_FALSE(a.rank_alive(1));
  for (int id : a.forest().leaves())
    EXPECT_NE(a.block_owner(id), 1) << "dead rank still owns block " << id;

  // Reference: fresh 3-rank solver (all alive, clean wire) restarted from
  // the recovery point and advanced over the same time interval.
  RankSolver<2, Euler<2>>::Config bcfg;
  bcfg.solver = scfg;
  bcfg.npes = 3;
  bcfg.policy = PartitionPolicy::Morton;
  RankSolver<2, Euler<2>> b(bcfg, phys);
  b.restore(ref);
  while (b.time() < t_end) b.step(dt);

  EXPECT_EQ(a.time(), b.time());
  expect_ranks_identical(a, b);
  std::remove(ckpt.c_str());
  std::remove(ref.c_str());
}

TEST(Recovery, AdvanceToRecoversAndAdaptExcludesDeadRank) {
  const std::string ckpt = testing::temp_path("ckpt.bin");
  Euler<2> phys;
  const auto scfg = euler_cfg();
  FaultPlan::Config fcfg;
  fcfg.kill_rank = 2;
  fcfg.kill_at_step = 2;
  FaultPlan plan(fcfg);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = 4;
  rcfg.policy = PartitionPolicy::Hilbert;
  rcfg.faults = &plan;
  rcfg.checkpoint_every = 2;
  rcfg.checkpoint_path = ckpt;
  RankSolver<2, Euler<2>> a(rcfg, phys);
  a.init(euler_ic(phys));
  const double mass0 = a.total_conserved(0);

  const int steps = a.advance_to(1.0, 5);
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(a.num_alive(), 3);
  EXPECT_FALSE(a.rank_alive(2));

  // Re-partitioning after a regrid must never hand blocks to the dead
  // rank.
  SeededTopologyCriterion crit{splitmix64(55), 2};
  const auto res = a.adapt(crit);
  EXPECT_GT(res.refined + res.coarsened, 0);
  for (int id : a.forest().leaves()) EXPECT_NE(a.block_owner(id), 2);
  a.step(a.compute_dt());
  EXPECT_TRUE(std::isfinite(a.total_conserved(0)));
  EXPECT_GT(mass0, 0.0);
  std::remove(ckpt.c_str());
}

TEST(Recovery, DeadRankIsNoIdlePeInImbalanceOrEfficiency) {
  // After a death the machine is the survivors. Rank 1 of 4 dies at step
  // 2, and the 16 roots re-partition 5/6/5 over ranks 0, 2 and 3: the
  // imbalance is 6 / (16 / 3) = 1.125 over three PEs, not 6 / (16 / 4)
  // with the dead rank counted as an idle one, and the step is priced on
  // the survivors' records alone.
  const std::string ckpt = testing::temp_path("ckpt.bin");
  Euler<2> phys;
  FaultPlan::Config fcfg;
  fcfg.kill_rank = 1;
  fcfg.kill_at_step = 2;
  FaultPlan plan(fcfg);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = euler_cfg();
  rcfg.solver.forest.root_blocks = {4, 4};
  rcfg.npes = 4;
  rcfg.faults = &plan;
  rcfg.checkpoint_every = 2;
  rcfg.checkpoint_path = ckpt;
  RankSolver<2, Euler<2>> a(rcfg, phys);
  a.init(euler_ic(phys));
  a.advance_to(1.0, 4);
  ASSERT_EQ(a.num_alive(), 3);
  ASSERT_FALSE(a.rank_alive(1));

  std::vector<int> survivors = a.owner();
  const int slot[4] = {0, -1, 1, 2};
  for (int& o : survivors)
    if (o >= 0) o = slot[o];
  const RankStepCost& c = a.last_step_cost();
  EXPECT_EQ(c.imbalance, load_imbalance(survivors, 3));
  EXPECT_DOUBLE_EQ(c.imbalance, 1.125);

  ASSERT_EQ(c.per_rank.size(), 4u);
  EXPECT_EQ(c.per_rank[1].flops, 0u);
  EXPECT_EQ(c.per_rank[1].sent_messages + c.per_rank[1].recv_messages, 0);
  const StepCost alive = price_pes(
      {c.per_rank[0], c.per_rank[2], c.per_rank[3]}, rcfg.machine);
  EXPECT_EQ(c.model.efficiency, alive.efficiency);
  EXPECT_EQ(c.model.t_step, alive.t_step);
  EXPECT_EQ(c.model.t_serial, alive.t_serial);
  std::remove(ckpt.c_str());
}

/// A corrupt checkpoint throws from restore() and from recover(), and the
/// rank solver stays as it was: the same live ranks, forest and owners, and
/// the next steps bitwise equal to an untouched twin. The whole file is
/// checked before anything changes, and recover() checks it before it
/// retires the dead rank.
TEST(CorruptRestart, RestoreAndRecoverLeaveTheRankSolverAsItWas) {
  Euler<2> phys;
  const double dt = 0.002;
  for (const bool via_recover : {false, true}) {
    SCOPED_TRACE(via_recover ? "recover" : "restore");
    const std::string ckpt = testing::temp_path("ckpt.bin");
    const std::string twin_ckpt = testing::temp_path("twin.bin");
    auto config = [](const std::string& path) {
      RankSolver<2, Euler<2>>::Config rcfg;
      rcfg.solver = euler_cfg();
      rcfg.npes = 3;
      rcfg.policy = PartitionPolicy::Morton;
      rcfg.checkpoint_every = 2;
      rcfg.checkpoint_path = path;
      return rcfg;
    };
    RankSolver<2, Euler<2>> a(config(ckpt), phys);
    RankSolver<2, Euler<2>> twin(config(twin_ckpt), phys);
    for (auto* s : {&a, &twin}) {
      s->adapt(SeededTopologyCriterion{splitmix64(77), 2});
      s->init(euler_ic(phys));
      for (int i = 0; i < 3; ++i) s->step(dt);
    }
    ASSERT_NE(a.forest().num_leaves(), 4) << "the run never adapted";

    // One flipped bit in the data section of the last auto-checkpoint.
    std::vector<char> bytes;
    {
      std::ifstream is(ckpt, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 4);
    {
      std::ofstream os(ckpt, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    const int leaves0 = a.forest().num_leaves();
    const std::vector<int> owner0 = a.owner();
    try {
      if (via_recover)
        a.recover(1);
      else
        a.restore(ckpt);
      ADD_FAILURE() << "a corrupt checkpoint was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("CRC mismatch in section 'data'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(a.num_alive(), 3);
    EXPECT_TRUE(a.rank_alive(1));
    EXPECT_EQ(a.forest().num_leaves(), leaves0);
    EXPECT_EQ(a.owner(), owner0);
    EXPECT_EQ(a.time(), twin.time());
    for (int i = 0; i < 3; ++i) {
      a.step(dt);
      twin.step(dt);
    }
    EXPECT_EQ(a.time(), twin.time());
    expect_ranks_identical(a, twin);
    std::remove(ckpt.c_str());
    std::remove(twin_ckpt.c_str());
  }
}

TEST(Recovery, DeathWithoutCheckpointIsAHardError) {
  Euler<2> phys;
  FaultPlan::Config fcfg;
  fcfg.kill_rank = 0;
  fcfg.kill_at_step = 1;
  FaultPlan plan(fcfg);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = euler_cfg();
  rcfg.npes = 2;
  rcfg.faults = &plan;  // no checkpoint_every: nothing to recover from
  RankSolver<2, Euler<2>> a(rcfg, phys);
  a.init(euler_ic(phys));
  try {
    a.advance_to(1.0, 3);
    FAIL() << "rank death without a checkpoint must not be survivable";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no checkpoint to recover from"),
              std::string::npos)
        << e.what();
  }
}

TEST(Recovery, CadenceRequiresAPath) {
  Euler<2> phys;
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = euler_cfg();
  rcfg.checkpoint_every = 2;  // but no checkpoint_path
  EXPECT_THROW((RankSolver<2, Euler<2>>(rcfg, phys)), Error);
}

TEST(Recovery, TelemetryCountsCheckpointsFaultsAndRecoveries) {
  const std::string ckpt = testing::temp_path("ckpt.bin");
  Euler<2> phys;
  obs::Telemetry tel;
  FaultPlan::Config fcfg;
  fcfg.drop_rate = 0.15;
  fcfg.corrupt_rate = 0.15;
  fcfg.kill_rank = 1;
  fcfg.kill_at_step = 3;
  FaultPlan plan(fcfg);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = euler_cfg();
  rcfg.solver.telemetry = &tel;
  rcfg.npes = 3;
  rcfg.faults = &plan;
  rcfg.checkpoint_every = 2;
  rcfg.checkpoint_path = ckpt;
  RankSolver<2, Euler<2>> a(rcfg, phys);
  a.init(euler_ic(phys));
  a.advance_to(1.0, 6);
  EXPECT_EQ(a.num_alive(), 2);

  const obs::MetricsSnapshot snap = tel.metrics.snapshot();
  auto counter = [&snap](const std::string& name) -> std::int64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return static_cast<std::int64_t>(v);
    return -1;
  };
  // Auto-saves at step indexes 0, 2, 4 (a possible re-fire of an index
  // after recovery rewinds is also a save), so at least 3.
  EXPECT_GE(counter("ckpt.saves"), 3);
  EXPECT_GT(counter("ckpt.bytes"), 0);
  EXPECT_EQ(counter("fault.rank_deaths"), 1);
  EXPECT_EQ(counter("fault.recoveries"), 1);
  const FaultStats& fs = plan.stats();
  if (fs.dropped > 0) {
    EXPECT_EQ(counter("fault.dropped"), fs.dropped);
  }
  if (fs.corrupted > 0) {
    EXPECT_EQ(counter("fault.corrupted"), fs.corrupted);
  }
  EXPECT_GT(fs.injected(), 0);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace ab
