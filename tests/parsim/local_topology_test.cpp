// Oracle tests for the distributed-metadata local topology.
//
// The hull a rank discovers by SFC-key probes must equal, exactly, the set
// of remote blocks the forest's global scan (face_neighbor_leaves) says are
// face-adjacent to its owned blocks — on seeded random 2:1 forests, across
// regrids, for rank counts from 2 to 1024, for both SFC policies — and with
// the hull-prefetch hints a regrid ships, which may only save probes. A
// scale test pins the O(blocks/rank + hull) memory claim at 4096 simulated
// ranks.
#include "parsim/local_topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "core/forest.hpp"
#include "parsim/partition.hpp"
#include "support/random_forest.hpp"
#include "support/rng.hpp"
#include "util/error.hpp"

namespace ab {
namespace {

using testing::RandomForestOptions;
using testing::random_forest;
using testing::SplitMix64;

constexpr PartitionPolicy kSfcPolicies[] = {PartitionPolicy::Morton,
                                            PartitionPolicy::Hilbert};
constexpr int kRankCounts[] = {2, 8, 64, 1024};

/// Global-scan oracle: per rank, the ids of remote leaves face-adjacent to
/// any of its owned leaves.
template <int D>
std::vector<std::set<int>> oracle_hulls(const Forest<D>& f,
                                        const std::vector<int>& owner,
                                        int npes) {
  std::vector<std::set<int>> hull(static_cast<std::size_t>(npes));
  for (int id : f.leaves()) {
    const int pe = owner[id];
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side)
        for (int nb : f.face_neighbor_leaves(id, dim, side))
          if (owner[nb] != pe)
            hull[static_cast<std::size_t>(pe)].insert(nb);
  }
  return hull;
}

/// Check every rank's probe-discovered hull against the oracle, plus the
/// descriptor fields and neighbor-rank lists.
template <int D>
void expect_hulls_match_oracle(const Forest<D>& f,
                               const std::vector<int>& owner, int npes,
                               PartitionPolicy policy) {
  const LocalTopologySet<D> topo(f, owner, npes, policy);
  const std::vector<std::set<int>> want = oracle_hulls(f, owner, npes);
  for (int pe = 0; pe < npes; ++pe) {
    SCOPED_TRACE(::testing::Message() << "rank " << pe);
    const LocalTopology<D>& t = topo.rank(pe);
    std::set<int> got;
    std::set<int> got_ranks;
    for (const BlockDesc<D>& b : t.hull()) {
      got.insert(b.id);
      got_ranks.insert(b.owner);
      // Hull descriptors carry the truth about the remote block.
      EXPECT_EQ(b.owner, owner[b.id]);
      EXPECT_EQ(b.level, f.level(b.id));
      EXPECT_EQ(b.coords, f.coords(b.id));
      EXPECT_EQ(b.key_begin, topo.curve().interval_begin(b.level, b.coords));
      EXPECT_EQ(b.key_end, b.key_begin + topo.curve().span(b.level));
    }
    EXPECT_EQ(got, want[static_cast<std::size_t>(pe)]);
    EXPECT_EQ(std::vector<int>(got_ranks.begin(), got_ranks.end()),
              t.neighbor_ranks());
    // Every owned and hull block is known; owned blocks carry pe itself.
    for (const BlockDesc<D>& b : t.owned()) {
      EXPECT_EQ(b.owner, pe);
      EXPECT_TRUE(topo.knows(pe, b.level, b.coords));
    }
    for (const BlockDesc<D>& b : t.hull())
      EXPECT_TRUE(topo.knows(pe, b.level, b.coords));
  }
}

TEST(LocalTopologyOracle, RandomForests2D) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(testing::splitmix64(seed));
    RandomForestOptions<2> opt;
    opt.root_blocks = {static_cast<int>(1 + rng.below(3)),
                       static_cast<int>(1 + rng.below(3))};
    opt.max_level = 3;
    opt.periodic = rng.below(2) == 0;
    opt.steps = 50;
    const Forest<2> f = random_forest<2>(rng, opt);
    for (PartitionPolicy policy : kSfcPolicies) {
      for (int npes : kRankCounts) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " policy "
                     << static_cast<int>(policy) << " npes " << npes);
        expect_hulls_match_oracle<2>(
            f, partition_blocks<2>(f, npes, policy), npes, policy);
      }
    }
  }
}

TEST(LocalTopologyOracle, RandomForests3D) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(testing::splitmix64(0x3D ^ seed));
    RandomForestOptions<3> opt;
    opt.root_blocks = IVec<3>(2);
    opt.max_level = 2;
    opt.periodic = seed % 2 == 0;
    opt.steps = 25;
    const Forest<3> f = random_forest<3>(rng, opt);
    for (PartitionPolicy policy : kSfcPolicies) {
      for (int npes : {2, 8, 64}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " policy "
                     << static_cast<int>(policy) << " npes " << npes);
        expect_hulls_match_oracle<3>(
            f, partition_blocks<3>(f, npes, policy), npes, policy);
      }
    }
  }
}

TEST(LocalTopologyOracle, RootMaskedForest) {
  // L-shaped domain: probes across the masked gap must come back empty,
  // not wrong.
  Forest<2>::Config cfg;
  cfg.root_blocks = {3, 3};
  cfg.max_level = 3;
  cfg.root_active = [](IVec<2> c) { return !(c[0] == 2 && c[1] == 2); };
  Forest<2> f(cfg);
  f.refine(f.leaves()[0]);
  f.refine(f.leaves()[3]);
  for (PartitionPolicy policy : kSfcPolicies) {
    for (int npes : {2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy) << " npes "
                   << npes);
      expect_hulls_match_oracle<2>(
          f, partition_blocks<2>(f, npes, policy), npes, policy);
    }
  }
}

TEST(LocalTopologyOracle, TracksForestAcrossRegrids) {
  // The structure is rebuilt from scratch each regrid; the oracle must hold
  // at every snapshot of an evolving forest, not just freshly random ones.
  SplitMix64 rng(testing::splitmix64(0x4E64D1Dull));
  RandomForestOptions<2> opt;
  opt.root_blocks = {2, 2};
  opt.max_level = 3;
  opt.periodic = true;
  opt.steps = 30;
  Forest<2> f = random_forest<2>(rng, opt);
  for (int regrid = 0; regrid < 6; ++regrid) {
    SCOPED_TRACE(::testing::Message() << "regrid " << regrid);
    // Mutate: a burst of random refines/coarsens (same move set the
    // generator uses), then re-check every (policy, npes) combination.
    for (int i = 0; i < 12; ++i) {
      const auto& leaves = f.leaves();
      const int id = leaves[rng.below(leaves.size())];
      if (rng.below(4) < 3) {
        if (f.level(id) < opt.max_level) f.refine(id);
      } else {
        const int p = f.parent(id);
        if (p >= 0 && f.can_coarsen(p)) f.coarsen(p);
      }
    }
    for (PartitionPolicy policy : kSfcPolicies)
      for (int npes : kRankCounts)
        expect_hulls_match_oracle<2>(
            f, partition_blocks<2>(f, npes, policy), npes, policy);
  }
}

/// The hull-prefetch hints RankSolver ships on a regrid: every post-regrid
/// leaf's descriptor goes from its new owner to that owner's neighbor ranks
/// in the stale pre-regrid view, and each rank sorts what it got by key.
template <int D>
std::vector<std::vector<BlockDesc<D>>> shipped_hints(
    const Forest<D>& f, const std::vector<int>& owner,
    const LocalTopologySet<D>& stale) {
  std::vector<std::vector<BlockDesc<D>>> hints(
      static_cast<std::size_t>(stale.npes()));
  for (int id : f.leaves()) {
    BlockDesc<D> b;
    b.level = f.level(id);
    b.coords = f.coords(id);
    b.key_begin = stale.curve().interval_begin(b.level, b.coords);
    b.key_end = b.key_begin + stale.curve().span(b.level);
    b.owner = owner[static_cast<std::size_t>(id)];
    for (int q : stale.rank(b.owner).neighbor_ranks())
      hints[static_cast<std::size_t>(q)].push_back(b);
  }
  for (auto& h : hints)
    std::sort(h.begin(), h.end(),
              [](const BlockDesc<D>& a, const BlockDesc<D>& b) {
                return a.key_begin < b.key_begin;
              });
  return hints;
}

template <int D>
void expect_same_hulls(const LocalTopologySet<D>& a,
                       const LocalTopologySet<D>& b) {
  ASSERT_EQ(a.npes(), b.npes());
  for (int pe = 0; pe < a.npes(); ++pe) {
    SCOPED_TRACE(::testing::Message() << "rank " << pe);
    const std::vector<BlockDesc<D>>& ha = a.rank(pe).hull();
    const std::vector<BlockDesc<D>>& hb = b.rank(pe).hull();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id);
      EXPECT_EQ(ha[i].level, hb[i].level);
      EXPECT_EQ(ha[i].coords, hb[i].coords);
      EXPECT_EQ(ha[i].key_begin, hb[i].key_begin);
      EXPECT_EQ(ha[i].key_end, hb[i].key_end);
      EXPECT_EQ(ha[i].owner, hb[i].owner);
    }
    EXPECT_EQ(a.rank(pe).neighbor_ranks(), b.rank(pe).neighbor_ranks());
  }
}

TEST(LocalTopologyPrefetch, ShippedHintsSaveProbesAndLeaveHullsUnchanged) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(testing::splitmix64(0x9F3Cull ^ seed));
    RandomForestOptions<2> opt;
    opt.root_blocks = {static_cast<int>(1 + rng.below(3)),
                       static_cast<int>(1 + rng.below(3))};
    opt.max_level = 3;
    opt.periodic = rng.below(2) == 0;
    opt.steps = 50;
    Forest<2> f = random_forest<2>(rng, opt);
    // The stale views every (policy, npes) pair held before the regrid.
    struct Combo {
      PartitionPolicy policy;
      int npes;
      std::unique_ptr<LocalTopologySet<2>> stale;
    };
    std::vector<Combo> combos;
    for (PartitionPolicy policy : kSfcPolicies)
      for (int npes : {2, 8, 64})
        combos.push_back(
            {policy, npes,
             std::make_unique<LocalTopologySet<2>>(
                 f, partition_blocks<2>(f, npes, policy), npes, policy)});
    // The regrid: a burst of random refines/coarsens.
    for (int i = 0; i < 12; ++i) {
      const auto& leaves = f.leaves();
      const int id = leaves[rng.below(leaves.size())];
      if (rng.below(4) < 3) {
        if (f.level(id) < opt.max_level) f.refine(id);
      } else {
        const int p = f.parent(id);
        if (p >= 0 && f.can_coarsen(p)) f.coarsen(p);
      }
    }
    for (const Combo& c : combos) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " policy "
                   << static_cast<int>(c.policy) << " npes " << c.npes);
      const std::vector<int> owner = partition_blocks<2>(f, c.npes, c.policy);
      const LocalTopologySet<2> plain(f, owner, c.npes, c.policy);
      std::vector<std::vector<BlockDesc<2>>> hints =
          shipped_hints<2>(f, owner, *c.stale);
      const LocalTopologySet<2> hinted(f, owner, c.npes, c.policy, &hints);
      expect_same_hulls(plain, hinted);
      // Every validated hint replaces exactly one remote probe.
      EXPECT_GT(hinted.stats().prefetch_hits, 0);
      EXPECT_EQ(hinted.stats().prefetch_hits + hinted.stats().remote_probes,
                plain.stats().remote_probes);

      // A hint naming the wrong owner is never a hit.
      std::vector<std::vector<BlockDesc<2>>> wrong_owner = hints;
      for (auto& h : wrong_owner)
        for (BlockDesc<2>& b : h) b.owner = (b.owner + 1) % c.npes;
      const LocalTopologySet<2> misowned(f, owner, c.npes, c.policy,
                                         &wrong_owner);
      EXPECT_EQ(misowned.stats().prefetch_hits, 0);
      expect_same_hulls(plain, misowned);

      // Nor is one whose coordinates went stale (its key range still
      // covers the probe, so only the descriptor check can catch it).
      std::vector<std::vector<BlockDesc<2>>> stale_coords = hints;
      for (auto& h : stale_coords)
        for (BlockDesc<2>& b : h) b.coords[0] ^= 1;
      const LocalTopologySet<2> moved(f, owner, c.npes, c.policy,
                                      &stale_coords);
      EXPECT_EQ(moved.stats().prefetch_hits, 0);
      expect_same_hulls(plain, moved);
    }
  }
}

// A rank's hints cross a channel as [count, then per block: level,
// coords..., owner]. Every value comes off the wire, so each is checked
// before it indexes anything.

Forest<2>::Config hint_grid() {
  Forest<2>::Config cfg;
  cfg.root_blocks = {3, 2};
  cfg.max_level = 2;
  return cfg;
}

TEST(LocalTopologyHints, PayloadRoundTrips) {
  const CurveMap<2> curve(hint_grid(), PartitionPolicy::Hilbert);
  std::vector<double> payload;
  pack_block_hint<2>(payload, 0, IVec<2>{2, 1}, 0);
  pack_block_hint<2>(payload, 2, IVec<2>{11, 7}, 4);
  ASSERT_EQ(payload.size(), 1u + 2u * 4u);
  const std::vector<BlockDesc<2>> got =
      unpack_block_hints<2>(payload.data(), payload.size(), curve, 5);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].level, 0);
  EXPECT_EQ(got[0].coords, (IVec<2>{2, 1}));
  EXPECT_EQ(got[0].owner, 0);
  EXPECT_EQ(got[1].level, 2);
  EXPECT_EQ(got[1].coords, (IVec<2>{11, 7}));
  EXPECT_EQ(got[1].owner, 4);
  EXPECT_EQ(got[1].key_begin, curve.interval_begin(2, IVec<2>{11, 7}));
  EXPECT_EQ(got[1].key_end, got[1].key_begin + curve.span(2));
}

TEST(LocalTopologyHints, CraftedPayloadsAreRejected) {
  const CurveMap<2> curve(hint_grid(), PartitionPolicy::Morton);
  std::vector<double> good;
  pack_block_hint<2>(good, 1, IVec<2>{5, 3}, 1);  // [1, 1, 5, 3, 1]
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto rejected = [&](std::size_t at, double value, std::size_t n) {
    std::vector<double> bad = good;
    bad[at] = value;
    try {
      (void)unpack_block_hints<2>(bad.data(), n, curve, 5);
      return false;
    } catch (const Error&) {
      return true;
    }
  };
  const std::size_t n = good.size();
  EXPECT_FALSE(rejected(0, 1.0, n));
  EXPECT_TRUE(rejected(0, -1.0, n));    // negative count
  EXPECT_TRUE(rejected(0, 2.0, n));     // count past the payload
  EXPECT_TRUE(rejected(0, 0.0, n));     // count short of the payload
  EXPECT_TRUE(rejected(0, nan, n));
  EXPECT_TRUE(rejected(0, 1.0, n - 1));  // a truncated hint
  EXPECT_TRUE(rejected(0, 1.0, 0));      // no count at all
  EXPECT_TRUE(rejected(1, 3.0, n));     // level above max_level
  EXPECT_TRUE(rejected(1, -1.0, n));
  EXPECT_TRUE(rejected(1, 0.5, n));
  EXPECT_TRUE(rejected(1, nan, n));
  EXPECT_TRUE(rejected(2, 6.0, n));     // x outside 3 << 1 roots
  EXPECT_TRUE(rejected(3, 4.0, n));     // y outside 2 << 1 roots
  EXPECT_TRUE(rejected(3, -1.0, n));
  EXPECT_TRUE(rejected(2, 1e300, n));
  EXPECT_TRUE(rejected(4, 5.0, n));     // owner outside npes
  EXPECT_TRUE(rejected(4, -1.0, n));
}

TEST(LocalTopology, CurveIntervalsAreDisjointAndContainTheirCells) {
  SplitMix64 rng(testing::splitmix64(0xC0FFEEull));
  RandomForestOptions<2> opt;
  opt.max_level = 4;
  opt.steps = 60;
  const Forest<2> f = random_forest<2>(rng, opt);
  for (PartitionPolicy policy : kSfcPolicies) {
    SCOPED_TRACE(::testing::Message() << "policy "
                                      << static_cast<int>(policy));
    const CurveMap<2> curve(f.config(), policy);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    for (int id : f.leaves()) {
      const int level = f.level(id);
      const IVec<2> c = f.coords(id);
      const std::uint64_t begin = curve.interval_begin(level, c);
      const std::uint64_t end = begin + curve.span(level);
      intervals.push_back({begin, end});
      // Every fine cell of the block keys into the block's interval — the
      // property that makes probe lookup exact.
      const int shift = curve.max_level() - level;
      for (int i = 0; i < 8; ++i) {
        IVec<2> fine = c.shifted_left(shift);
        for (int d = 0; d < 2; ++d)
          fine[d] += static_cast<int>(rng.below(1ull << shift));
        const std::uint64_t key = curve.point_key(fine);
        EXPECT_GE(key, begin);
        EXPECT_LT(key, end);
      }
    }
    // Leaves tile the domain, so their key intervals partition the key
    // space: sorted, they must be disjoint.
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i)
      EXPECT_LE(intervals[i - 1].second, intervals[i].first);
  }
}

TEST(LocalTopology, DirectoryResolvesRangeEndpoints) {
  SplitMix64 rng(testing::splitmix64(0xD14ull));
  const Forest<2> f = random_forest<2>(rng);
  for (PartitionPolicy policy : kSfcPolicies) {
    for (int npes : {3, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy) << " npes "
                   << npes);
      const std::vector<int> owner = partition_blocks<2>(f, npes, policy);
      const LocalTopologySet<2> topo(f, owner, npes, policy);
      // Both endpoints of every block's interval resolve to its owner.
      for (int id : f.leaves()) {
        const std::uint64_t begin =
            topo.curve().interval_begin(f.level(id), f.coords(id));
        const std::uint64_t end = begin + topo.curve().span(f.level(id));
        EXPECT_EQ(topo.directory().owner_of(begin), owner[id]);
        EXPECT_EQ(topo.directory().owner_of(end - 1), owner[id]);
      }
      // Past the last owned key: no owner.
      EXPECT_EQ(topo.directory().owner_of(~std::uint64_t{0}), -1);
    }
  }
}

TEST(LocalTopology, EmptyRanksGetNoRangeAndNoHull) {
  // Far more ranks than blocks: most ranks own nothing. They must have no
  // directory range, an empty hull, and lookups must never resolve to them.
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  Forest<2> f(cfg);  // 4 leaves
  for (PartitionPolicy policy : kSfcPolicies) {
    SCOPED_TRACE(::testing::Message() << "policy "
                                      << static_cast<int>(policy));
    const int npes = 1024;
    const std::vector<int> owner = partition_blocks<2>(f, npes, policy);
    const LocalTopologySet<2> topo(f, owner, npes, policy);
    EXPECT_LE(topo.directory().num_ranges(), 4u);
    int populated = 0;
    for (int pe = 0; pe < npes; ++pe) {
      const LocalTopology<2>& t = topo.rank(pe);
      if (!t.owned().empty()) {
        ++populated;
        continue;
      }
      EXPECT_TRUE(t.hull().empty());
      EXPECT_TRUE(t.neighbor_ranks().empty());
    }
    EXPECT_EQ(populated, 4);
    expect_hulls_match_oracle<2>(f, owner, npes, policy);
  }
}

TEST(LocalTopology, SingleRankOwnsEverythingAndHullsAreEmpty) {
  SplitMix64 rng(testing::splitmix64(0x1ull));
  const Forest<2> f = random_forest<2>(rng);
  for (PartitionPolicy policy : kSfcPolicies) {
    const std::vector<int> owner = partition_blocks<2>(f, 1, policy);
    const LocalTopologySet<2> topo(f, owner, 1, policy);
    EXPECT_EQ(static_cast<int>(topo.rank(0).owned().size()), f.num_leaves());
    EXPECT_TRUE(topo.rank(0).hull().empty());
    EXPECT_TRUE(topo.rank(0).neighbor_ranks().empty());
    EXPECT_EQ(topo.directory().num_ranges(), 1u);
  }
}

TEST(LocalTopology, RejectsNonSfcPoliciesAndWideLevelDiff) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  Forest<2> f(cfg);
  const std::vector<int> owner =
      partition_blocks<2>(f, 2, PartitionPolicy::Morton);
  EXPECT_FALSE(CurveMap<2>::supports(PartitionPolicy::RoundRobin));
  EXPECT_FALSE(CurveMap<2>::supports(PartitionPolicy::GreedyLpt));
  EXPECT_THROW(
      LocalTopologySet<2>(f, owner, 2, PartitionPolicy::RoundRobin), Error);
  Forest<2>::Config wide = cfg;
  wide.max_level_diff = 2;
  Forest<2> g(wide);
  EXPECT_THROW(LocalTopologySet<2>(g, partition_blocks<2>(g, 2,
                                                          PartitionPolicy::Morton),
                                   2, PartitionPolicy::Morton),
               Error);
}

TEST(LocalTopologyScale, FourThousandRanksStayPerRankSized) {
  // 2x2 roots uniformly refined to level 5: 4 * 4^5 = 4096 leaves, one per
  // simulated rank. The distributed claim: per-rank topology is
  // O(blocks/rank + hull), nowhere near O(total blocks).
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.max_level = 5;
  Forest<2> f(cfg);
  for (int l = 0; l < 5; ++l) {
    const std::vector<int> leaves = f.leaves();
    for (int id : leaves) f.refine(id);
  }
  ASSERT_EQ(f.num_leaves(), 4096);
  const int npes = 4096;
  for (PartitionPolicy policy : kSfcPolicies) {
    SCOPED_TRACE(::testing::Message() << "policy "
                                      << static_cast<int>(policy));
    const std::vector<int> owner = partition_blocks<2>(f, npes, policy);
    const LocalTopologySet<2> topo(f, owner, npes, policy);
    EXPECT_EQ(topo.max_owned(), 1u);
    // A uniform 2D block has at most 4 face neighbors.
    EXPECT_LE(topo.max_hull(), 4u);
    // Per-rank descriptor memory is a handful of blocks, not thousands:
    // orders of magnitude under the global forest's footprint.
    const std::size_t global_bytes = f.topology_bytes();
    EXPECT_LT(topo.max_rank_bytes(), global_bytes / 64);
    EXPECT_LT(topo.max_rank_bytes(), 64 * sizeof(BlockDesc<2>));
    // The directory is O(P) ranges, shared, and small.
    EXPECT_LE(topo.directory().num_ranges(),
              static_cast<std::size_t>(npes));
    // Probe work is O(total faces), 8 probes per block in 2D.
    EXPECT_EQ(topo.stats().probes, 4096 * 8);
  }
}

}  // namespace
}  // namespace ab
