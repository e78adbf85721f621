// Property and corruption tests for the binarized-octree topology codec.
//
// Round-trip: splitmix64-fuzzed forests (2:1-constrained by construction)
// must decode to the exact leaf set and re-encode byte-stably — the same
// forest always produces the same bytes, which is what lets ranks compare
// topology payloads for equality. Corruption: any truncation, any single
// bit flip, trailing garbage, and semantically-damaged-but-CRC-valid
// headers must be rejected with a diagnostic (mirroring the checkpoint
// corruption matrix in tests/io/checkpoint_corruption_test.cpp).
#include "util/topo_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/forest.hpp"
#include "support/random_forest.hpp"
#include "support/rng.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ab {
namespace {

using testing::RandomForestOptions;
using testing::random_forest;
using testing::SplitMix64;

/// Sorted (level, coords) leaf list of a forest, for set comparison
/// against a decoded snapshot (whose DFS order differs from Morton order
/// on multi-root grids).
template <int D>
std::vector<TopoRecord<D>> leaf_records(const Forest<D>& f) {
  std::vector<TopoRecord<D>> recs;
  for (int id : f.leaves()) recs.push_back({f.level(id), f.coords(id)});
  std::sort(recs.begin(), recs.end(),
            [](const TopoRecord<D>& a, const TopoRecord<D>& b) {
              if (a.level != b.level) return a.level < b.level;
              return a.coords < b.coords;
            });
  return recs;
}

template <int D>
void expect_roundtrip(const Forest<D>& f) {
  const std::vector<std::uint8_t> bytes = encode_topology<D>(f);
  const TopoSnapshot<D> snap = decode_topology<D>(bytes);
  EXPECT_EQ(snap.root_blocks, f.config().root_blocks);
  EXPECT_EQ(snap.max_level, f.config().max_level);
  ASSERT_EQ(static_cast<int>(snap.leaves.size()), f.num_leaves());
  std::vector<TopoRecord<D>> got = snap.leaves;
  std::sort(got.begin(), got.end(),
            [](const TopoRecord<D>& a, const TopoRecord<D>& b) {
              if (a.level != b.level) return a.level < b.level;
              return a.coords < b.coords;
            });
  EXPECT_EQ(got, leaf_records(f));
  // Byte stability: rebuilding a forest from the snapshot and re-encoding
  // reproduces the identical byte stream.
  Forest<D> g = forest_from_snapshot<D>(f.config(), snap);
  EXPECT_EQ(encode_topology<D>(g), bytes);
}

TEST(TopoCodec, FuzzedForestsRoundTripByteStably2D) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    SplitMix64 rng(testing::splitmix64(seed));
    RandomForestOptions<2> opt;
    opt.root_blocks = {static_cast<int>(1 + rng.below(3)),
                       static_cast<int>(1 + rng.below(3))};
    opt.max_level = static_cast<int>(2 + rng.below(3));
    opt.periodic = rng.below(2) == 0;
    opt.steps = static_cast<int>(rng.below(60));
    expect_roundtrip(random_forest<2>(rng, opt));
  }
}

TEST(TopoCodec, FuzzedForestsRoundTripByteStably3D) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    SplitMix64 rng(testing::splitmix64(0xABCDull + seed));
    RandomForestOptions<3> opt;
    opt.root_blocks = IVec<3>(static_cast<int>(1 + rng.below(2)));
    opt.max_level = 2;
    opt.steps = static_cast<int>(rng.below(25));
    expect_roundtrip(random_forest<3>(rng, opt));
  }
}

TEST(TopoCodec, OneDimensionalAndPristineForestsRoundTrip) {
  Forest<1>::Config c1;
  c1.root_blocks = IVec<1>(5);
  c1.max_level = 4;
  Forest<1> f1(c1);
  f1.refine(f1.leaves()[2]);
  f1.refine(f1.leaves()[3]);
  expect_roundtrip(f1);

  Forest<2>::Config c2;
  c2.root_blocks = {3, 2};
  Forest<2> f2(c2);  // no refinement at all
  expect_roundtrip(f2);
}

TEST(TopoCodec, RootMaskedForestRoundTrips) {
  // L-shaped domain: the presence bits must carry the mask through.
  Forest<2>::Config cfg;
  cfg.root_blocks = {3, 3};
  cfg.max_level = 3;
  cfg.root_active = [](IVec<2> c) { return !(c[0] == 2 && c[1] == 2); };
  Forest<2> f(cfg);
  f.refine(f.leaves()[0]);
  const std::vector<std::uint8_t> bytes = encode_topology<2>(f);
  const TopoSnapshot<2> snap = decode_topology<2>(bytes);
  ASSERT_EQ(static_cast<int>(snap.leaves.size()), f.num_leaves());
  Forest<2> g = forest_from_snapshot<2>(cfg, snap);
  EXPECT_EQ(encode_topology<2>(g), bytes);
}

// --- Corruption matrix --------------------------------------------------

Forest<2> sample_forest() {
  SplitMix64 rng(0x5EEDull);
  RandomForestOptions<2> opt;
  opt.root_blocks = {2, 2};
  opt.max_level = 3;
  opt.steps = 30;
  return random_forest<2>(rng, opt);
}

/// Decode must throw Error; returns the message for content checks.
std::string expect_rejected(const std::vector<std::uint8_t>& bytes) {
  std::string msg;
  try {
    (void)decode_topology<2>(bytes);
    ADD_FAILURE() << "corrupt topology stream was accepted";
  } catch (const Error& e) {
    msg = e.what();
  }
  return msg;
}

TEST(TopoCodecCorruption, TruncationAtEveryLengthIsRejected) {
  const std::vector<std::uint8_t> good = encode_topology<2>(sample_forest());
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    SCOPED_TRACE(::testing::Message()
                 << "truncated to " << cut << " of " << good.size());
    const std::vector<std::uint8_t> bad(good.begin(),
                                        good.begin() +
                                            static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(expect_rejected(bad).empty());
  }
}

TEST(TopoCodecCorruption, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> good = encode_topology<2>(sample_forest());
  // The decoded result of the clean stream, to verify flips can't alias.
  const TopoSnapshot<2> truth = decode_topology<2>(good);
  ASSERT_GT(truth.leaves.size(), 0u);
  for (std::size_t at = 0; at < good.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE(::testing::Message()
                   << "flip byte " << at << " bit " << bit);
      std::vector<std::uint8_t> bad = good;
      bad[at] = static_cast<std::uint8_t>(bad[at] ^ (1u << bit));
      EXPECT_FALSE(expect_rejected(bad).empty());
    }
  }
}

TEST(TopoCodecCorruption, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bad = encode_topology<2>(sample_forest());
  bad.push_back(0);
  EXPECT_NE(expect_rejected(bad).find("trailing"), std::string::npos);
}

TEST(TopoCodecCorruption, EmptyAndForeignStreamsAreRejected) {
  EXPECT_NE(expect_rejected({}).find("truncated"), std::string::npos);
  std::vector<std::uint8_t> garbage(64, 0xAB);
  EXPECT_NE(expect_rejected(garbage).find("magic"), std::string::npos);
  // A topology decoder must not accept a delta stream.
  const std::vector<std::uint8_t> delta =
      encode_topo_delta<2>({{TopoDeltaOp::Refine, 1, {2, 3}}});
  EXPECT_NE(expect_rejected(delta).find("magic"), std::string::npos);
}

TEST(TopoCodecCorruption, DimensionMismatchIsRejected) {
  const std::vector<std::uint8_t> bytes = encode_topology<2>(sample_forest());
  try {
    (void)decode_topology<3>(bytes);
    ADD_FAILURE() << "2D stream accepted by 3D decoder";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dimension mismatch"),
              std::string::npos);
  }
}

/// Patch `bytes[at] = value` and re-seal the CRC trailer, producing a
/// frame-consistent stream only semantic validation can reject.
std::vector<std::uint8_t> patched_with_valid_crc(std::vector<std::uint8_t> b,
                                                 std::size_t at,
                                                 std::uint8_t value) {
  b[at] = value;
  const std::uint32_t crc = crc32(b.data(), b.size() - 4);
  for (int i = 0; i < 4; ++i)
    b[b.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFFu);
  return b;
}

TEST(TopoCodecCorruption, SemanticDamageWithValidCrcIsRejected) {
  const Forest<2> f = sample_forest();
  // The max_level=1 patch below only bites if the stream refines past
  // level 1, so pin that property of the sample first.
  int deepest = 0;
  for (int id : f.leaves()) deepest = std::max(deepest, f.level(id));
  ASSERT_GE(deepest, 2);
  const std::vector<std::uint8_t> good = encode_topology<2>(f);
  // Byte 9 is max_level. Over the cap: rejected by the bound check.
  EXPECT_NE(expect_rejected(patched_with_valid_crc(good, 9, 99))
                .find("level cap"),
            std::string::npos);
  // Below the forest's actual depth: the bitstream now refines past the
  // declared max_level.
  EXPECT_NE(expect_rejected(patched_with_valid_crc(good, 9, 1))
                .find("below max_level"),
            std::string::npos);
  // Byte 20 is the low byte of leaf_count (magic 8 + dim/max_level/pad 4 +
  // root_blocks 8): an off-by-one count with a valid CRC must still fail.
  EXPECT_NE(expect_rejected(patched_with_valid_crc(good, 20, good[20] ^ 1))
                .find("leaf count mismatch"),
            std::string::npos);
}

TEST(TopoCodec, SnapshotRejectsMismatchedConfig) {
  Forest<2> f = sample_forest();
  const TopoSnapshot<2> snap = decode_topology<2>(encode_topology<2>(f));
  Forest<2>::Config other = f.config();
  other.root_blocks = {5, 5};
  EXPECT_THROW(forest_from_snapshot<2>(other, snap), Error);
}

// --- Delta records ------------------------------------------------------

TEST(TopoDelta, FuzzedRecordsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    SplitMix64 rng(testing::splitmix64(0xD311A ^ seed));
    std::vector<TopoDeltaRecord<3>> recs(rng.below(20));
    for (auto& r : recs) {
      r.op = rng.below(2) == 0 ? TopoDeltaOp::Refine : TopoDeltaOp::Coarsen;
      r.level = static_cast<int>(rng.below(17));
      for (int d = 0; d < 3; ++d)
        r.coords[d] = static_cast<int>(rng.below(1u << 20));
    }
    const std::vector<std::uint8_t> bytes = encode_topo_delta<3>(recs);
    EXPECT_EQ(decode_topo_delta<3>(bytes), recs);
    // Byte stability.
    EXPECT_EQ(encode_topo_delta<3>(recs), bytes);
  }
}

TEST(TopoDelta, EmptyDeltaRoundTrips) {
  const std::vector<std::uint8_t> bytes = encode_topo_delta<2>({});
  EXPECT_TRUE(decode_topo_delta<2>(bytes).empty());
}

TEST(TopoDelta, OutOfRangeRecordsAreRejectedAtEncode) {
  EXPECT_THROW(encode_topo_delta<2>({{TopoDeltaOp::Refine, 32, {0, 0}}}),
               Error);
  EXPECT_THROW(encode_topo_delta<2>({{TopoDeltaOp::Refine, 0, {1 << 20, 0}}}),
               Error);
  EXPECT_THROW(encode_topo_delta<2>({{TopoDeltaOp::Refine, 0, {-1, 0}}}),
               Error);
}

TEST(TopoDeltaCorruption, TruncationAndBitFlipsAreRejected) {
  const std::vector<TopoDeltaRecord<2>> recs = {
      {TopoDeltaOp::Refine, 2, {5, 9}},
      {TopoDeltaOp::Coarsen, 1, {3, 0}},
      {TopoDeltaOp::Refine, 0, {1, 1}},
  };
  const std::vector<std::uint8_t> good = encode_topo_delta<2>(recs);
  auto rejected = [](const std::vector<std::uint8_t>& bytes) {
    try {
      (void)decode_topo_delta<2>(bytes);
      return false;
    } catch (const Error&) {
      return true;
    }
  };
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    SCOPED_TRACE(::testing::Message() << "cut " << cut);
    EXPECT_TRUE(rejected({good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(cut)}));
  }
  for (std::size_t at = 0; at < good.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE(::testing::Message() << "flip " << at << ":" << bit);
      std::vector<std::uint8_t> bad = good;
      bad[at] = static_cast<std::uint8_t>(bad[at] ^ (1u << bit));
      EXPECT_TRUE(rejected(bad));
    }
  }
  std::vector<std::uint8_t> bad = good;
  bad.push_back(7);
  EXPECT_TRUE(rejected(bad));
}

// A delta crosses a rank channel as [byte length, bytes eight per double].
// The length comes off the wire, so it is checked before any byte is read.

TEST(TopoDeltaPayload, RoundTripsThroughDoubles) {
  const std::vector<TopoDeltaRecord<2>> recs = {
      {TopoDeltaOp::Refine, 2, {5, 9}},
      {TopoDeltaOp::Coarsen, 1, {3, 0}},
  };
  const std::vector<double> payload = pack_topo_delta<2>(recs);
  EXPECT_EQ(payload[0],
            static_cast<double>(encode_topo_delta<2>(recs).size()));
  EXPECT_EQ(unpack_topo_delta<2>(payload.data(), payload.size()), recs);
  const std::vector<double> empty = pack_topo_delta<2>({});
  EXPECT_TRUE(unpack_topo_delta<2>(empty.data(), empty.size()).empty());
}

TEST(TopoDeltaPayload, CraftedLengthsAreRejected) {
  const std::vector<double> good =
      pack_topo_delta<2>({{TopoDeltaOp::Refine, 1, {1, 2}}});
  const double room = static_cast<double>((good.size() - 1) * sizeof(double));
  auto rejected = [&good](double length, std::size_t n) {
    std::vector<double> bad = good;
    bad[0] = length;
    try {
      (void)unpack_topo_delta<2>(bad.data(), n);
      return false;
    } catch (const Error&) {
      return true;
    }
  };
  EXPECT_TRUE(rejected(room + 1.0, good.size()));  // past the end
  EXPECT_TRUE(rejected(1e300, good.size()));
  EXPECT_TRUE(rejected(std::numeric_limits<double>::quiet_NaN(), good.size()));
  EXPECT_TRUE(rejected(std::numeric_limits<double>::infinity(), good.size()));
  EXPECT_TRUE(rejected(-8.0, good.size()));
  EXPECT_TRUE(rejected(good[0] - 0.5, good.size()));  // not an integer
  EXPECT_TRUE(rejected(good[0], good.size() + 1));  // a stray double after
  EXPECT_TRUE(rejected(good[0], 0));                 // no length at all
  EXPECT_FALSE(rejected(good[0], good.size()));
}

}  // namespace
}  // namespace ab
