// Cross-rank span conservation: on a traced rank-parallel run, every
// message the substrate moved appears in the causal trace as exactly one
// send span and one receive span whose parent is that send — no orphans,
// no duplicates, no phantom spans — and the per-phase span counts equal
// the pair-aggregated message counts the accounting layer (PeTraffic,
// RankRunTotals, RegridCost) reports. Retransmission spans ("fault") must
// each hang off a real send.
//
// The matrix mirrors the rank-solver equivalence suite: npes x partition
// policy x distributed metadata x lossy wire, each with seeded topology
// churn (two pre-init adapt rounds, regrids after steps 2 and 4) so ghost
// fills, flux corrections, coarsen gathers, migrations, and topology
// deltas all cross the wire. Replayable under AB_DIST_META=1 like the
// equivalence suite.
//
// Tracing makes the topology-delta exchange synchronous (so each delta's
// span pair closes within its round); untraced runs drain it during the
// next step. Each traced run's final bytes must equal an untraced twin's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/telemetry.hpp"
#include "parsim/fault.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/advection.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

using ab::testing::splitmix64;

/// Data-independent criterion (same shape as the equivalence harness):
/// flags from a hash of (seed, level, coords), so topology churn is
/// reproducible from the seed alone.
template <int D>
struct SeededTopologyCriterion {
  std::uint64_t seed = 0;
  int max_level = 2;

  AdaptFlag operator()(const Forest<D>& f, const BlockStore<D>&,
                       int id) const {
    std::uint64_t h = splitmix64(seed ^ static_cast<std::uint64_t>(
                                            f.level(id) * 0x9E37u));
    for (int d = 0; d < D; ++d)
      h = splitmix64(h ^ static_cast<std::uint64_t>(f.coords(id)[d] + 1));
    const int r = static_cast<int>(h % 4);
    if (r == 0 && f.level(id) < max_level) return AdaptFlag::Refine;
    if (r == 1 && f.level(id) > 0) return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

AmrSolver<2, LinearAdvection<2>>::Config base_cfg() {
  AmrSolver<2, LinearAdvection<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  // Flux correction routes the message board through every step too.
  cfg.flux_correction = true;
  return cfg;
}

void gaussian_ic(const RVec<2>& x, LinearAdvection<2>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5;
  s[0] = 1.0 + 0.8 * std::exp(-30.0 * (dx * dx + dy * dy));
}

using Solver = RankSolver<2, LinearAdvection<2>>;

/// The churn script: two pre-init adapt rounds, then `steps` steps with
/// regrids after steps 2 and 4. `after_step` runs after every step, before
/// that step's regrid.
template <class AfterStep>
void run_churn(Solver& ranks, std::uint64_t seed, int steps,
               const AfterStep& after_step) {
  const int max_level = ranks.config().solver.forest.max_level;
  for (int round = 0; round < 2; ++round)
    ranks.adapt(SeededTopologyCriterion<2>{splitmix64(seed + round),
                                           max_level});
  ranks.init(gaussian_ic);
  for (int s = 0; s < steps; ++s) {
    ranks.step(ranks.compute_dt());
    after_step();
    if (s == 2 || s == 4)
      ranks.adapt(SeededTopologyCriterion<2>{splitmix64(seed * 977 + s),
                                             max_level});
  }
}

/// Every leaf's interior bytes in global leaf order.
std::vector<double> leaf_bytes(const Solver& ranks) {
  std::vector<double> out;
  const Box<2> interior =
      Box<2>::from_extent(ranks.config().solver.cells_per_block);
  for (int id : ranks.forest().leaves()) {
    ConstBlockView<2> v = ranks.block_view(id);
    for_each_cell<2>(interior, [&](IVec<2> p) { out.push_back(v.at(0, p)); });
  }
  return out;
}

bool is_step_phase(const std::string& name) {
  return name == "ghost_exchange" || name == "flux_correction";
}

void run_conservation(std::uint64_t seed, int npes, PartitionPolicy policy,
                      bool distmeta, bool lossy) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " npes=" << npes
               << " policy=" << static_cast<int>(policy)
               << " distmeta=" << distmeta << " lossy=" << lossy);
  obs::Telemetry tel;
  tel.trace.set_enabled(true);

  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(seed ^ 0xFA17ull);
  fcfg.drop_rate = 0.06;
  fcfg.corrupt_rate = 0.06;
  fcfg.duplicate_rate = 0.04;
  fcfg.reorder_rate = 0.04;
  FaultPlan plan(fcfg);

  LinearAdvection<2> phys;
  phys.velocity = {0.7, -0.4};
  Solver::Config rcfg;
  rcfg.solver = base_cfg();
  rcfg.npes = npes;
  rcfg.policy = policy;
  rcfg.distributed_metadata = distmeta;
  rcfg.faults = lossy ? &plan : nullptr;
  Solver::Config traced_cfg = rcfg;
  traced_cfg.solver.telemetry = &tel;
  Solver ranks(traced_cfg, phys);

  // Step-phase PeTraffic (ghost + flux), accumulated per rank as we go;
  // regrid traffic lands in RankRunTotals instead.
  std::vector<std::int64_t> pe_sent(static_cast<std::size_t>(npes), 0);
  std::vector<std::int64_t> pe_recv(static_cast<std::size_t>(npes), 0);
  const int steps = 6;
  run_churn(ranks, seed, steps, [&] {
    const std::vector<PeTraffic>& pr = ranks.last_step_cost().per_rank;
    ASSERT_EQ(pr.size(), static_cast<std::size_t>(npes));
    for (int p = 0; p < npes; ++p) {
      pe_sent[static_cast<std::size_t>(p)] += pr[static_cast<std::size_t>(p)]
                                                  .sent_messages;
      pe_recv[static_cast<std::size_t>(p)] += pr[static_cast<std::size_t>(p)]
                                                  .recv_messages;
    }
  });

  // The untraced twin (its own fault plan from the same config) exchanges
  // its topology deltas asynchronously; the solution bytes must not notice.
  {
    FaultPlan twin_plan(fcfg);
    Solver::Config twin_cfg = rcfg;
    twin_cfg.faults = lossy ? &twin_plan : nullptr;
    Solver twin(twin_cfg, phys);
    run_churn(twin, seed, steps, [] {});
    const std::vector<double> a = leaf_bytes(ranks);
    const std::vector<double> b = leaf_bytes(twin);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b[i]) << "traced vs untraced, element " << i;
  }

  // Classify the causal spans.
  const std::vector<obs::TraceEvent> events = tel.trace.events();
  std::map<std::uint64_t, const obs::TraceEvent*> send_by_id;
  std::vector<const obs::TraceEvent*> recvs, faults;
  std::map<std::string, std::int64_t> sends_by_name;
  std::vector<std::int64_t> rank_sent(static_cast<std::size_t>(npes), 0);
  std::vector<std::int64_t> rank_recv(static_cast<std::size_t>(npes), 0);
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.cat, "send") == 0) {
      ASSERT_NE(e.id, 0u);
      ASSERT_GE(e.rank, 0);
      ASSERT_LT(e.rank, npes);
      ASSERT_GE(e.step, 0);
      ASSERT_TRUE(send_by_id.emplace(e.id, &e).second)
          << "duplicate send span id " << e.id;
      ++sends_by_name[e.name];
      if (is_step_phase(e.name))
        ++rank_sent[static_cast<std::size_t>(e.rank)];
    } else if (std::strcmp(e.cat, "recv") == 0) {
      recvs.push_back(&e);
    } else if (std::strcmp(e.cat, "fault") == 0) {
      faults.push_back(&e);
    }
  }

  // Conservation: exactly one receive per send, parent-linked to it, on
  // the same step with the same phase name.
  ASSERT_EQ(recvs.size(), send_by_id.size());
  std::map<std::uint64_t, int> recv_per_send;
  for (const obs::TraceEvent* r : recvs) {
    ASSERT_NE(r->parent, 0u) << "receive span without a parent send";
    const auto it = send_by_id.find(r->parent);
    ASSERT_NE(it, send_by_id.end())
        << "receive span parented to unknown send " << r->parent;
    const obs::TraceEvent* s = it->second;
    EXPECT_STREQ(r->name, s->name);
    EXPECT_EQ(r->step, s->step);
    ASSERT_GE(r->rank, 0);
    ASSERT_LT(r->rank, npes);
    EXPECT_EQ(++recv_per_send[r->parent], 1)
        << "send span " << r->parent << " received twice";
    if (is_step_phase(r->name))
      ++rank_recv[static_cast<std::size_t>(r->rank)];
  }

  // Span counts equal the accounting layer's pair-aggregated message
  // counts, phase by phase.
  const RankRunTotals& t = ranks.totals();
  EXPECT_EQ(sends_by_name["ghost_exchange"], t.ghost_messages);
  EXPECT_EQ(sends_by_name["flux_correction"], t.flux_messages);
  EXPECT_EQ(sends_by_name["coarsen_gather"], t.gather_messages);
  EXPECT_EQ(sends_by_name["migration"], t.migration_messages);
  EXPECT_EQ(sends_by_name["topo_delta"], t.topo_delta_messages);
  std::int64_t named = 0;
  for (const auto& [name, n] : sends_by_name) {
    EXPECT_TRUE(name == "ghost_exchange" || name == "flux_correction" ||
                name == "coarsen_gather" || name == "migration" ||
                name == "topo_delta")
        << "unexpected send-span phase " << name;
    named += n;
  }
  EXPECT_EQ(named, static_cast<std::int64_t>(send_by_id.size()));
  if (!ranks.distributed_metadata()) {
    EXPECT_EQ(sends_by_name["topo_delta"], 0);
  }

  // Per-rank step-phase span counts equal the PeTraffic counters: sends
  // keyed by source rank, receives by destination rank.
  for (int p = 0; p < npes; ++p) {
    EXPECT_EQ(rank_sent[static_cast<std::size_t>(p)],
              pe_sent[static_cast<std::size_t>(p)])
        << "send spans vs PeTraffic.sent_messages on rank " << p;
    EXPECT_EQ(rank_recv[static_cast<std::size_t>(p)],
              pe_recv[static_cast<std::size_t>(p)])
        << "recv spans vs PeTraffic.recv_messages on rank " << p;
  }

  // Retransmissions: children of real sends, present only on lossy runs
  // (and only when there was cross-rank traffic to lose).
  for (const obs::TraceEvent* f : faults)
    EXPECT_NE(send_by_id.find(f->parent), send_by_id.end())
        << "fault span parented to unknown send " << f->parent;
  if (lossy && npes > 1) {
    EXPECT_GT(plan.stats().injected(), 0);
    // Retransmit spans appear exactly when the wire forced retries (the
    // plan is seeded, so this is deterministic per combo).
    EXPECT_EQ(faults.empty(), plan.stats().retries == 0);
  } else {
    EXPECT_TRUE(faults.empty());
  }
  if (npes == 1) {
    EXPECT_TRUE(send_by_id.empty());  // nothing crosses a rank
  }
}

class SpanConservation
    : public ::testing::TestWithParam<
          std::tuple<int, PartitionPolicy, bool, bool>> {};

TEST_P(SpanConservation, EverySendHasExactlyOneReceive) {
  const int npes = std::get<0>(GetParam());
  const PartitionPolicy policy = std::get<1>(GetParam());
  const bool distmeta = std::get<2>(GetParam());
  const bool lossy = std::get<3>(GetParam());
  const std::uint64_t seed = splitmix64(
      7000 + 64 * npes + 8 * static_cast<int>(policy) + 2 * distmeta + lossy);
  run_conservation(seed, npes, policy, distmeta, lossy);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, SpanConservation,
    ::testing::Combine(::testing::Values(1, 2, 5, 8),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::Hilbert),
                       ::testing::Values(false),
                       ::testing::Values(false, true)));

INSTANTIATE_TEST_SUITE_P(
    DistMeta, SpanConservation,
    ::testing::Combine(::testing::Values(2, 5, 8),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::Hilbert),
                       ::testing::Values(true),
                       ::testing::Values(false, true)));

}  // namespace
}  // namespace ab
