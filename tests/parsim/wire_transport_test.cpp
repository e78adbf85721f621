// Wire-transport suite (`wire` ctest label): the shared-memory wire
// behind MessageBoard must carry every exchange round's payloads while the
// simulation stays BITWISE identical to the serial solver.
//
// Layers under test, bottom up:
//   - frame codec + FrameSequencer: bounded-window dedup/reassembly whose
//     memory stays flat over a long lossy run (the satellite regression),
//   - the shm byte rings: spill-and-flush discipline over finite rings,
//   - WireHub: CRC framing and fault materialization (corruptions become
//     bad frames + clean retransmits, duplicates real double-sends,
//     reorders sequence-swapped splits),
//   - MessageBoard over the hub: one frame per (src, dst) channel per
//     flush, so a step's frames equal its pair-aggregated messages and a
//     faulted frame carries every send() of its channel,
//   - RankSolver over the wire, single-process (every payload takes a
//     ring round trip) and SPMD (run_process_group forks one real OS
//     process per rank; remote payloads genuinely cross process
//     boundaries) — including mid-run regrids, lossy wires, and a
//     killed-then-recovered rank.
#include "parsim/wire/hub.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "amr/solver.hpp"
#include "obs/telemetry.hpp"
#include "parsim/fault.hpp"
#include "parsim/rank_solver.hpp"
#include "parsim/wire/frame.hpp"
#include "parsim/wire/process_group.hpp"
#include "parsim/wire/transport.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "support/churn_criterion.hpp"
#include "support/rng.hpp"
#include "util/crc32.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

using ab::testing::splitmix64;

// ----------------------------------------------------------- frame codec

TEST(WireFrame, HeaderRoundTrip) {
  wire::FrameHeader h;
  h.src = 3;
  h.dst = 7;
  h.seq = 0xDEADBEEFu;
  h.payload_bytes = 4096;
  h.crc = 0x12345678u;
  std::uint8_t buf[wire::kFrameHeaderBytes];
  wire::encode_frame_header(h, buf);
  const wire::FrameHeader g = wire::decode_frame_header(buf);
  EXPECT_EQ(g.src, h.src);
  EXPECT_EQ(g.dst, h.dst);
  EXPECT_EQ(g.seq, h.seq);
  EXPECT_EQ(g.payload_bytes, h.payload_bytes);
  EXPECT_EQ(g.crc, h.crc);
}

TEST(WireFrame, DecodeRejectsDesync) {
  wire::FrameHeader h;
  h.payload_bytes = 16;
  std::uint8_t buf[wire::kFrameHeaderBytes];
  wire::encode_frame_header(h, buf);
  // Bad magic = the stream lost framing; unrecoverable, must throw.
  std::uint8_t bad[wire::kFrameHeaderBytes];
  std::memcpy(bad, buf, sizeof buf);
  bad[0] ^= 0xFFu;
  EXPECT_THROW(wire::decode_frame_header(bad), Error);
  // A nonzero reserved byte 8.
  std::memcpy(bad, buf, sizeof buf);
  bad[8] = 17;
  EXPECT_THROW(wire::decode_frame_header(bad), Error);
  // Insane payload size.
  std::memcpy(bad, buf, sizeof buf);
  wire::detail::put_u32(bad + 16, wire::kMaxFramePayload + 1);
  EXPECT_THROW(wire::decode_frame_header(bad), Error);
}

wire::FrameHeader frame_at(std::uint32_t seq, std::uint8_t fill,
                           std::uint32_t nbytes = 8) {
  wire::FrameHeader h;
  h.src = 0;
  h.dst = 1;
  h.seq = seq;
  h.payload_bytes = nbytes;
  (void)fill;
  return h;
}

TEST(WireFrame, SequencerDedupsAndReassembles) {
  wire::FrameSequencer seq;
  wire::WireStats stats;
  std::vector<std::vector<std::uint8_t>> out;
  std::uint8_t p0[8] = {0}, p1[8] = {1}, p2[8] = {2};

  seq.accept(frame_at(0, 0), p0, stats, &out);
  ASSERT_EQ(out.size(), 1u);  // in order: delivered immediately
  seq.accept(frame_at(0, 0), p0, stats, &out);
  EXPECT_EQ(out.size(), 1u);  // duplicate of a delivered frame: discarded
  EXPECT_EQ(stats.dup_discards, 1);

  seq.accept(frame_at(2, 2), p2, stats, &out);
  EXPECT_EQ(out.size(), 1u);  // ahead of the gap: stashed
  EXPECT_EQ(stats.reorder_stashes, 1);
  EXPECT_EQ(seq.stash_depth(), 1u);
  seq.accept(frame_at(2, 2), p2, stats, &out);
  EXPECT_EQ(stats.dup_discards, 2);  // duplicate of a stashed frame

  seq.accept(frame_at(1, 1), p1, stats, &out);
  ASSERT_EQ(out.size(), 3u);  // the gap filled: 1 then the stashed 2
  EXPECT_EQ(out[1][0], 1);
  EXPECT_EQ(out[2][0], 2);
  EXPECT_EQ(seq.stash_depth(), 0u);
  EXPECT_EQ(seq.next_seq(), 3u);
  EXPECT_EQ(stats.frames_recv, 3);
}

TEST(WireFrame, SequencerWindowIsBoundedAndViolationsThrow) {
  wire::FrameSequencer seq;
  wire::WireStats stats;
  std::vector<std::vector<std::uint8_t>> out;
  std::uint8_t p[8] = {0};

  const std::size_t empty_bytes = seq.state_bytes();
  // Stash the whole window (seq 0 missing), then fill the gap: everything
  // drains and the dedup state returns to its empty baseline — the
  // memory-flat property in miniature.
  for (std::uint32_t s = 1; s <= wire::kSeqWindow; ++s)
    seq.accept(frame_at(s, 0), p, stats, &out);
  EXPECT_EQ(seq.stash_depth(), static_cast<std::size_t>(wire::kSeqWindow));
  EXPECT_GT(seq.state_bytes(), empty_bytes);
  // One frame past the window is a protocol violation.
  EXPECT_THROW(seq.accept(frame_at(wire::kSeqWindow + 1, 0), p, stats, &out),
               Error);
  seq.accept(frame_at(0, 0), p, stats, &out);
  EXPECT_EQ(seq.stash_depth(), 0u);
  EXPECT_EQ(seq.next_seq(), wire::kSeqWindow + 1);
  EXPECT_EQ(seq.state_bytes(), empty_bytes);

  // A duplicate older than the window has slid out of the dedup state; a
  // correct sender can never produce it, so it must fail loudly rather
  // than deliver twice.
  wire::FrameSequencer far;
  for (std::uint32_t s = 0; s <= wire::kSeqWindow + 4; ++s)
    far.accept(frame_at(s, 0), p, stats, &out);
  EXPECT_THROW(far.accept(frame_at(0, 0), p, stats, &out), Error);
}

// ------------------------------------------------------- byte transports

TEST(WireTransportBytes, BulkBytesSpillAndArriveInOrder) {
  // 3 MB on one channel: far beyond the ring (64 KB at every process
  // count), so the spill queue and flush() path are exercised for real.
  wire::ShmRings t(3);
  const std::size_t n = 3u << 20;
  std::vector<std::uint8_t> in(n), out(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = static_cast<std::uint8_t>(splitmix64(i) & 0xFF);
  t.send(0, 2, in.data(), n);
  EXPECT_GT(t.pending_bytes(), 0u);  // the ring cannot hold 3 MB
  std::size_t got = 0;
  while (got < n) {
    t.flush();
    const std::size_t r = t.recv_some(0, 2, out.data() + got, n - got);
    got += r;
  }
  EXPECT_EQ(std::memcmp(in.data(), out.data(), n), 0);
  t.flush();
  EXPECT_EQ(t.pending_bytes(), 0u);
  // The other direction of the pair is a distinct stream.
  const char msg[] = "reverse";
  t.send(2, 0, msg, sizeof msg);
  char back[sizeof msg] = {0};
  std::size_t m = 0;
  while (m < sizeof msg) {
    t.flush();
    m += t.recv_some(2, 0, back + m, sizeof msg - m);
  }
  EXPECT_STREQ(back, msg);
}

/// The message of the Error `parse_transport(name)` throws ("" if none).
std::string parse_error(const std::string& name) {
  try {
    wire::parse_transport(name);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(WireTransport, ParseAndNames) {
  EXPECT_EQ(wire::parse_transport("board"), wire::TransportKind::Board);
  EXPECT_EQ(wire::parse_transport("shm"), wire::TransportKind::Shm);
  // A typo'd AB_TRANSPORT must fail loudly, not silently run in-process,
  // and say what it accepts. "socket" names no wire any more.
  for (const char* bad : {"sokcet", "", "socket"}) {
    const std::string msg = parse_error(bad);
    EXPECT_NE(msg.find("board"), std::string::npos) << bad << ": " << msg;
    EXPECT_NE(msg.find("shm"), std::string::npos) << bad << ": " << msg;
  }
  EXPECT_STREQ(wire::transport_name(wire::TransportKind::Board), "board");
  EXPECT_STREQ(wire::transport_name(wire::TransportKind::Shm), "shm");
}

// --------------------------------------------------------------- the hub

TEST(WireHub, FaultsMaterializeAsRealFrames) {
  // Push payloads through FaultPlan (which reports what it drew) and the
  // hub (which realizes the draws as actual frames): every delivery must
  // be the clean bytes, and the hub's counters must match the plan's
  // exactly — one CRC reject per corruption, one dup discard per
  // duplicate, one stash per reorder.
  wire::WireHub hub(2);
  hub.set_recv_timeout(10.0);
  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(0xABCDu);
  fcfg.corrupt_rate = 0.25;
  fcfg.duplicate_rate = 0.15;
  fcfg.reorder_rate = 0.15;
  FaultPlan plan(fcfg);
  std::vector<double> buf(32), got(32);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = static_cast<double>(splitmix64(round * 100 + i));
    const WireFaults wf = plan.transmit(0, 1, buf.data(), buf.size());
    hub.send(0, 1, buf.data(), buf.size(), wf);
    hub.recv(0, 1, got.data(), got.size());
    ASSERT_EQ(std::memcmp(buf.data(), got.data(), buf.size() * 8), 0)
        << "faulty wire corrupted round " << round;
  }
  const wire::WireStats& ws = hub.stats();
  const FaultStats& fs = plan.stats();
  EXPECT_GT(fs.corrupted, 0);
  EXPECT_GT(fs.duplicated, 0);
  EXPECT_GT(fs.reordered, 0);
  EXPECT_EQ(ws.crc_rejects, fs.corrupted);
  EXPECT_EQ(ws.dup_discards, fs.duplicated);
  EXPECT_EQ(ws.reorder_stashes, fs.reordered);
  EXPECT_GT(ws.stash_peak, 0);
  EXPECT_EQ(ws.payload_bytes, 200 * 32 * 8);
}

TEST(WireHub, RecvTimesOutLoudly) {
  wire::WireHub hub(2);
  hub.set_recv_timeout(0.05);
  double out[4];
  EXPECT_THROW(hub.recv(0, 1, out, 4), Error);
}

TEST(WireHub, DedupStateStaysFlatOverLongLossyRun) {
  // The satellite regression: receiver-side dedup/reassembly memory is a
  // bounded sliding window, NOT a grows-forever set of seen sequence ids.
  // Staging buffers may ratchet their capacity up to the worst single
  // burst (a few frames), so the discriminator is twofold: the footprint
  // never exceeds a window-derived constant, and growth EVENTS are rare —
  // a per-sequence leak would grow on nearly every one of the thousands
  // of faulted rounds below.
  wire::WireHub hub(2);
  hub.set_recv_timeout(10.0);
  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(0xF1A7u);
  fcfg.corrupt_rate = 0.2;
  fcfg.duplicate_rate = 0.25;
  fcfg.reorder_rate = 0.25;
  FaultPlan plan(fcfg);
  std::vector<double> buf(64), got(64);
  auto round = [&](int r) {
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = static_cast<double>(splitmix64(r * 1000 + i));
    const WireFaults wf = plan.transmit(0, 1, buf.data(), buf.size());
    hub.send(0, 1, buf.data(), buf.size(), wf);
    hub.recv(0, 1, got.data(), got.size());
    ASSERT_EQ(std::memcmp(buf.data(), got.data(), buf.size() * 8), 0);
  };
  std::size_t high_water = 0;
  int growth_events = 0;
  for (int r = 0; r < 8000; ++r) {
    round(r);
    const std::size_t s = hub.dedup_state_bytes();
    if (s > high_water) {
      high_water = s;
      ++growth_events;
    }
  }
  // Bounded by the window (order kSeqWindow frames of this payload) plus
  // the unparsed buffer's capacity, which each pump grows by the 64 KB read
  // chunk (reserved, never zeroed) — not by the number of rounds: ~4000
  // injected faults at ~560 wire bytes each would dwarf this if any
  // per-sequence state leaked.
  EXPECT_LE(high_water, 128u * 1024u);
  EXPECT_LT(growth_events, 100);
  // The run actually was lossy, and the window bound held.
  EXPECT_GT(hub.stats().dup_discards, 1000);
  EXPECT_GT(hub.stats().reorder_stashes, 1000);
  EXPECT_GT(hub.stats().crc_rejects, 1000);
  EXPECT_LE(hub.stats().stash_peak,
            static_cast<std::int64_t>(wire::kSeqWindow));
}

/// This process's resident shared-memory bytes (RssShmem in
/// /proc/self/status), or -1 where the kernel does not report it.
std::int64_t resident_shmem_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "RssShmem: %lld kB", &kb) == 1) break;
  std::fclose(f);
  return kb < 0 ? -1 : static_cast<std::int64_t>(kb) * 1024;
}

TEST(WireHub, ShmResidentRingMemoryStaysBounded) {
  // A ring's cursors only advance, so traffic wraps it through every page
  // it owns and each page it touches stays resident. Resident memory must
  // therefore stop at what the rings hold once each has wrapped, not grow
  // with the rounds a long run carries: 600 rounds of one 2 KB frame on
  // every channel of 8 ranks, 1.2 MB per channel in all.
  constexpr int kPes = 8;
  wire::WireHub hub(kPes);
  hub.set_recv_timeout(10.0);
  std::vector<double> buf(256), got(256);
  auto round = [&](int r) {
    for (int src = 0; src < kPes; ++src)
      for (int dst = 0; dst < kPes; ++dst) {
        if (src == dst) continue;
        buf[0] = static_cast<double>(r * kPes * kPes + src * kPes + dst);
        hub.send(src, dst, buf.data(), buf.size());
      }
    for (int src = 0; src < kPes; ++src)
      for (int dst = 0; dst < kPes; ++dst) {
        if (src == dst) continue;
        hub.recv(src, dst, got.data(), got.size());
        ASSERT_EQ(got[0],
                  static_cast<double>(r * kPes * kPes + src * kPes + dst));
      }
  };
  for (int r = 0; r < 100; ++r) round(r);
  const std::int64_t at100 = resident_shmem_bytes();
  if (at100 < 0) GTEST_SKIP() << "RssShmem is not in /proc/self/status";
  for (int r = 100; r < 600; ++r) round(r);
  const std::int64_t at600 = resident_shmem_bytes();
  EXPECT_EQ(hub.stats().frames_recv, 600 * kPes * (kPes - 1));
  EXPECT_LE(at600 - at100, 256 * 1024)
      << "resident shared memory grew from " << at100 << " to " << at600
      << " bytes between rounds 100 and 600";
}

// ------------------------------------------- shared equivalence plumbing

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

/// Throwing require(): usable both under gtest and inside forked workers
/// (where ASSERT_* cannot unwind to the parent).
void require(bool cond, const std::string& what) {
  if (!cond) throw Error("wire test: " + what);
}

/// Bitwise comparison of all leaf interiors, throwing on divergence.
template <class Phys>
void require_identical(const AmrSolver<2, Phys>& serial,
                       const RankSolver<2, Phys>& ranks) {
  require(serial.forest().num_leaves() == ranks.forest().num_leaves(),
          "leaf count diverged from serial");
  const BlockLayout<2>& lay = serial.store().layout();
  for (int id : serial.forest().leaves()) {
    const int rid = ranks.forest().find(serial.forest().level(id),
                                        serial.forest().coords(id));
    require(rid >= 0 && ranks.forest().is_leaf(rid),
            "leaf missing in rank solver");
    ConstBlockView<2> a = serial.store().view(id);
    ConstBlockView<2> b = ranks.block_view(rid);
    bool same = true;
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k)
        if (a.at(k, p) != b.at(k, p)) same = false;
    });
    require(same, "state diverged from serial");
  }
}

/// Order-independent fingerprint of the rank solver's full state: CRC-32
/// over (level, coords, interior cells) of every leaf in forest order,
/// plus the leaf count and simulated time. Equal digests across worker
/// processes == bitwise-equal states.
template <class Phys>
std::vector<std::uint8_t> state_digest(const RankSolver<2, Phys>& ranks) {
  std::uint32_t crc = 0;
  std::int64_t leaves = 0;
  for (int id : ranks.forest().leaves()) {
    const std::int32_t lvl = ranks.forest().level(id);
    crc = crc32_update(crc, &lvl, sizeof lvl);
    const IVec<2> c = ranks.forest().coords(id);
    for (int d = 0; d < 2; ++d) {
      const std::int32_t x = c[d];
      crc = crc32_update(crc, &x, sizeof x);
    }
    ConstBlockView<2> v = ranks.block_view(id);
    for_each_cell<2>(v.layout->interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k) {
        const double val = v.at(k, p);
        crc = crc32_update(crc, &val, sizeof val);
      }
    });
    ++leaves;
  }
  const double t = ranks.time();
  std::vector<std::uint8_t> blob(sizeof crc + sizeof leaves + sizeof t);
  std::memcpy(blob.data(), &crc, sizeof crc);
  std::memcpy(blob.data() + sizeof crc, &leaves, sizeof leaves);
  std::memcpy(blob.data() + sizeof crc + sizeof leaves, &t, sizeof t);
  return blob;
}

AmrSolver<2, LinearAdvection<2>>::Config advection_cfg() {
  AmrSolver<2, LinearAdvection<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  return cfg;
}

LinearAdvection<2> advection_phys() {
  LinearAdvection<2> p;
  p.velocity = {0.7, -0.4};
  return p;
}

void advection_ic(const RVec<2>& x, LinearAdvection<2>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5;
  s[0] = 1.0 + 0.8 * std::exp(-30.0 * (dx * dx + dy * dy));
}

AmrSolver<2, Euler<2>>::Config euler_cfg(bool flux_correction) {
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.apply_positivity_fix = true;
  cfg.flux_correction = flux_correction;
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

/// The canonical equivalence script over a given wire (the same one
/// rank_solver_test runs on the Board path): two seeded adapt rounds,
/// init, 6 steps with regrids (re-partition + migration) after steps 2
/// and 4 — every exchange round crosses the transport. `hub` null means
/// the solver resolves `kind` and owns a private single-process hub for
/// Shm; a non-null `hub` makes the run Shm.
template <class Phys>
void run_wire_equivalence(
    const typename AmrSolver<2, Phys>::Config& scfg, const Phys& phys,
    const std::function<void(const RVec<2>&, typename Phys::State&)>& ic,
    std::uint64_t seed, wire::TransportKind kind, int npes,
    PartitionPolicy policy, bool distmeta = false,
    FaultPlan* faults = nullptr, wire::WireHub* hub = nullptr,
    std::vector<std::uint8_t>* digest_out = nullptr) {
  AmrSolver<2, Phys> serial(scfg, phys);
  typename RankSolver<2, Phys>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = npes;
  rcfg.policy = policy;
  rcfg.distributed_metadata = distmeta;
  rcfg.faults = faults;
  rcfg.transport = kind;
  rcfg.wire = hub;
  RankSolver<2, Phys> ranks(rcfg, phys);
  // An external hub wins; otherwise env (AB_TRANSPORT) wins over the
  // config axis, so the whole suite stays replayable under a forced
  // transport.
  const wire::TransportKind expect =
      hub != nullptr ? wire::TransportKind::Shm
                     : wire::resolve_transport(kind);
  require(ranks.transport_kind() == expect, "transport resolution");
  if (expect != wire::TransportKind::Board) {
    require(ranks.wire_hub() != nullptr, "wire hub missing");
    if (hub == nullptr) ranks.wire_hub()->set_recv_timeout(20.0);
  }

  const int max_level = scfg.forest.max_level;
  for (int round = 0; round < 2; ++round) {
    SeededTopologyCriterion<2> crit{splitmix64(seed + round), max_level};
    const auto a = serial.adapt(crit);
    const auto b = ranks.adapt(crit);
    require(a.refined == b.refined && a.coarsened == b.coarsened,
            "seeded adapt diverged");
  }
  serial.init(ic);
  ranks.init(ic);
  require_identical(serial, ranks);
  for (int s = 0; s < 6; ++s) {
    const double dts = serial.compute_dt();
    const double dtr = ranks.compute_dt();
    require(dts == dtr, "dt diverged at step " + std::to_string(s));
    serial.step(dts);
    ranks.step(dtr);
    if (s == 2 || s == 4) {
      SeededTopologyCriterion<2> crit{splitmix64(seed * 977 + s), max_level};
      const auto a = serial.adapt(crit);
      const auto b = ranks.adapt(crit);
      require(a.refined == b.refined && a.coarsened == b.coarsened,
              "mid-run regrid diverged");
      require_identical(serial, ranks);
    }
  }
  require_identical(serial, ranks);
  if (expect != wire::TransportKind::Board && npes > 1 &&
      ranks.forest().num_leaves() > 1) {
    const wire::WireStats& ws = ranks.wire_hub()->stats();
    require(ws.frames_sent > 0, "no frames crossed the wire");
    require(ws.payload_bytes > 0, "no payload crossed the wire");
  }
  if (digest_out != nullptr) *digest_out = state_digest(ranks);
}

// ------------------------------------- single-process ring round trips

// Transport x rank count x policy (global metadata): the full script with
// every payload routed through the rings and back.
class WireEquivalence
    : public ::testing::TestWithParam<
          std::tuple<wire::TransportKind, int, PartitionPolicy, bool>> {};

TEST_P(WireEquivalence, BitwiseEqualsSerial) {
  const auto [kind, npes, policy, distmeta] = GetParam();
  SCOPED_TRACE(::testing::Message()
               << "transport=" << wire::transport_name(kind)
               << " npes=" << npes << " policy=" << static_cast<int>(policy)
               << " distmeta=" << distmeta);
  const std::uint64_t seed =
      splitmix64(7000 + 16 * npes + static_cast<int>(policy));
  run_wire_equivalence<LinearAdvection<2>>(advection_cfg(), advection_phys(),
                                           advection_ic, seed, kind, npes,
                                           policy, distmeta);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, WireEquivalence,
    ::testing::Combine(::testing::Values(wire::TransportKind::Shm),
                       ::testing::Values(2, 5),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::RoundRobin),
                       ::testing::Values(false)));

// Distributed metadata over the wire: topology deltas and hull-prefetch
// descriptors share each rank pair's one stream with every other round,
// each received before adapt() returns.
INSTANTIATE_TEST_SUITE_P(
    DistMeta, WireEquivalence,
    ::testing::Combine(::testing::Values(wire::TransportKind::Shm),
                       ::testing::Values(3, 5),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::Hilbert),
                       ::testing::Values(true)));

TEST(WireEquivalenceEuler, RefluxingWithGlobalAndDistributedMetadata) {
  // Flux correction adds a correction round to every step on top of ghost
  // fills and migration.
  Euler<2> phys;
  run_wire_equivalence<Euler<2>>(euler_cfg(true), phys, euler_ic(phys),
                                 splitmix64(7501), wire::TransportKind::Shm,
                                 4, PartitionPolicy::RoundRobin);
  run_wire_equivalence<Euler<2>>(euler_cfg(true), phys, euler_ic(phys),
                                 splitmix64(7502), wire::TransportKind::Shm, 3,
                                 PartitionPolicy::Morton, true);
}

TEST(WireEquivalenceFaults, LossyWireStaysBitwise) {
  // All four fault types on the real wire, distmeta on: corruptions must
  // surface as CRC rejects, duplicates as seq discards, reorders as
  // stashes — and the run must stay bitwise-serial through all of it.
  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(0xFA22u);
  fcfg.drop_rate = 0.06;
  fcfg.corrupt_rate = 0.08;
  fcfg.duplicate_rate = 0.05;
  fcfg.reorder_rate = 0.05;
  FaultPlan plan(fcfg);
  AmrSolver<2, LinearAdvection<2>>::Config scfg = advection_cfg();
  LinearAdvection<2> phys = advection_phys();
  typename RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = 5;
  rcfg.policy = PartitionPolicy::Hilbert;
  rcfg.distributed_metadata = true;
  rcfg.faults = &plan;
  rcfg.transport = wire::TransportKind::Shm;
  if (wire::resolve_transport(rcfg.transport) == wire::TransportKind::Board)
    GTEST_SKIP() << "AB_TRANSPORT forced the board path";
  AmrSolver<2, LinearAdvection<2>> serial(scfg, phys);
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  ranks.wire_hub()->set_recv_timeout(20.0);
  SeededTopologyCriterion<2> crit{splitmix64(0xFA23u), 2};
  serial.adapt(crit);
  ranks.adapt(crit);
  serial.init(advection_ic);
  ranks.init(advection_ic);
  for (int s = 0; s < 6; ++s) {
    const double dt = serial.compute_dt();
    ASSERT_EQ(dt, ranks.compute_dt());
    serial.step(dt);
    ranks.step(dt);
    if (s == 2 || s == 4) {
      SeededTopologyCriterion<2> c2{splitmix64(0xFA24u + s), 2};
      serial.adapt(c2);
      ranks.adapt(c2);
    }
  }
  require_identical(serial, ranks);
  ASSERT_GT(plan.stats().injected(), 0)
      << "the wire injected nothing; the run proved nothing";
  const wire::WireStats& ws = ranks.wire_hub()->stats();
  if (plan.stats().corrupted > 0) {
    EXPECT_GT(ws.crc_rejects, 0);
  }
  if (plan.stats().duplicated > 0) {
    EXPECT_GT(ws.dup_discards, 0);
  }
  if (plan.stats().reordered > 0) {
    EXPECT_GT(ws.reorder_stashes, 0);
  }
}

// ------------------------------------------- one frame per channel flush

TEST(WireBoard, OneFramePerChannelFlush) {
  // k sends on (0, 1) and two on (2, 1) cross the wire as two frames — at
  // one frame per send() they would be k + 2 — and the receives return the
  // bytes sent.
  wire::WireHub hub(3);
  hub.set_recv_timeout(10.0);
  MessageBoard board;
  board.set_wire(&hub);
  const int k = 5;
  std::vector<std::vector<double>> a, b;
  for (int i = 0; i < k; ++i) {
    a.push_back({i + 0.5, -3.0 * i, 1e300 / (i + 1)});
    board.send(0, 1, a.back().data(), 3);
  }
  for (int i = 0; i < 2; ++i) {
    b.emplace_back(static_cast<std::size_t>(4 + i), 7.0 * i - 1.25);
    board.send(2, 1, b.back().data(), 4 + i);
  }
  const wire::WireStats& ws = hub.stats();
  EXPECT_EQ(ws.frames_sent, 0) << "sends must wait for the flush";
  for (const auto& want : a) {
    const double* got = board.receive(0, 1, 3);
    EXPECT_EQ(std::vector<double>(got, got + 3), want);
  }
  for (const auto& want : b) {
    const double* got =
        board.receive(2, 1, static_cast<std::int64_t>(want.size()));
    EXPECT_EQ(std::vector<double>(got, got + want.size()), want);
  }
  EXPECT_EQ(ws.frames_sent, 2);
  EXPECT_EQ(board.messages(), 2);
  EXPECT_EQ(ws.payload_bytes, board.bytes());

  // A second flush in the same round adds one frame per channel that
  // gained bytes, and the receive continues where the first one stopped.
  const double more[2] = {9.0, -0.0};
  board.send(0, 1, more, 2);
  board.flush();
  EXPECT_EQ(ws.frames_sent, 3);
  const double* got = board.receive(0, 1, 2);
  EXPECT_EQ(got[0], 9.0);
  EXPECT_TRUE(std::signbit(got[1]));
  EXPECT_EQ(ws.frames_sent, 3);
  EXPECT_EQ(board.messages(), 2);

  // The next round starts empty.
  board.clear();
  EXPECT_EQ(board.messages(), 0);
  board.send(1, 0, more, 1);
  EXPECT_EQ(*board.receive(1, 0, 1), 9.0);
  EXPECT_EQ(ws.frames_sent, 4);
}

/// The (source rank, destination rank, fill phase) channels one ghost fill
/// of `ranks` sends, from the exchanger's plan and the partition.
template <class Phys>
std::set<std::tuple<int, int, int>> ghost_channels(
    const RankSolver<2, Phys>& ranks) {
  std::set<std::tuple<int, int, int>> out;
  for (const auto& op : ranks.exchanger().ops()) {
    const int ps = ranks.owner()[static_cast<std::size_t>(op.src)];
    const int pd = ranks.owner()[static_cast<std::size_t>(op.dst)];
    if (ps != pd) out.insert({ps, pd, op.kind == GhostOpKind::Prolong});
  }
  return out;
}

class WireFrames : public ::testing::TestWithParam<wire::TransportKind> {};

TEST_P(WireFrames, StepAndMigrationFramesEqualPairChannels) {
  // A step with flux correction sends one frame per ghost (pair, phase)
  // channel per fill plus one per flux channel; a regrid's migration
  // round sends one per (old owner, new owner) channel.
  AmrSolver<2, LinearAdvection<2>>::Config scfg = advection_cfg();
  scfg.flux_correction = true;
  const LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = 3;
  rcfg.policy = PartitionPolicy::Morton;
  rcfg.transport = GetParam();
  if (wire::resolve_transport(GetParam()) == wire::TransportKind::Board)
    GTEST_SKIP() << "AB_TRANSPORT forced the board path";
  AmrSolver<2, LinearAdvection<2>> serial(scfg, phys);
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  ranks.wire_hub()->set_recv_timeout(20.0);
  const wire::WireStats& ws = ranks.wire_hub()->stats();
  for (int round = 0; round < 2; ++round) {
    SeededTopologyCriterion<2> crit{splitmix64(0xABCDu + round), 2};
    serial.adapt(crit);
    ranks.adapt(crit);
  }
  serial.init(advection_ic);
  ranks.init(advection_ic);

  const auto channels = ghost_channels(ranks);
  std::set<std::pair<int, int>> pairs;
  for (const auto& [s, d, phase] : channels) pairs.insert({s, d});
  ASSERT_FALSE(pairs.empty());
  std::int64_t f0 = ws.frames_sent;
  const double dt = serial.compute_dt();
  ASSERT_EQ(dt, ranks.compute_dt());
  serial.step(dt);
  ranks.step(dt);
  const RankStepCost& sc = ranks.last_step_cost();
  ASSERT_GT(sc.flux_messages, 0) << "no flux channel crossed a rank";
  const std::int64_t fills = scfg.rk_stages;
  EXPECT_EQ(sc.ghost_messages,
            fills * static_cast<std::int64_t>(pairs.size()));
  EXPECT_EQ(ws.frames_sent - f0,
            fills * static_cast<std::int64_t>(channels.size()) +
                sc.flux_messages);

  // Refining without coarsening moves blocks only by migration: no
  // coarsen gathers share the regrid's frames.
  const auto refine_only = [](const Forest<2>& f, const BlockStore<2>& b,
                              int id) {
    const AdaptFlag a =
        SeededTopologyCriterion<2>{splitmix64(0xF7A2u), 2}(f, b, id);
    return a == AdaptFlag::Refine ? a : AdaptFlag::Keep;
  };
  f0 = ws.frames_sent;
  serial.adapt(refine_only);
  ranks.adapt(refine_only);
  const RegridCost& rc = ranks.last_regrid_cost();
  ASSERT_GT(rc.migrated_blocks, rc.migration_messages)
      << "no migration channel carried two blocks";
  EXPECT_EQ(rc.gather_messages, 0);
  EXPECT_EQ(ws.frames_sent - f0, rc.migration_messages);
  for (int s = 0; s < 2; ++s) {
    const double dts = serial.compute_dt();
    ASSERT_EQ(dts, ranks.compute_dt());
    serial.step(dts);
    ranks.step(dts);
  }
  require_identical(serial, ranks);
}

INSTANTIATE_TEST_SUITE_P(Backends, WireFrames,
                         ::testing::Values(wire::TransportKind::Shm));

enum class FrameFault { Corrupt, Duplicate, Reorder };

class WireFaultedFrames
    : public ::testing::TestWithParam<
          std::tuple<wire::TransportKind, FrameFault>> {};

TEST_P(WireFaultedFrames, FaultedFrameCarriesEverySendOfItsChannel) {
  // The wire is clean until a regrid whose one migration channel carries
  // several blocks; then the plan faults exactly the next frame — that
  // channel's, so one corrupted, duplicated or reordered frame carries
  // several send() calls. The run stays bitwise equal to serial.
  const auto [kind, fault] = GetParam();
  if (wire::resolve_transport(kind) == wire::TransportKind::Board)
    GTEST_SKIP() << "AB_TRANSPORT forced the board path";
  const AmrSolver<2, LinearAdvection<2>>::Config scfg = advection_cfg();
  const LinearAdvection<2> phys = advection_phys();
  FaultPlan plan(FaultPlan::Config{});
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = 2;
  rcfg.policy = PartitionPolicy::Morton;
  rcfg.faults = &plan;
  rcfg.transport = kind;
  AmrSolver<2, LinearAdvection<2>> serial(scfg, phys);
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  ranks.wire_hub()->set_recv_timeout(20.0);
  serial.init(advection_ic);
  ranks.init(advection_ic);
  serial.step(serial.compute_dt());
  ranks.step(ranks.compute_dt());

  FaultPlan::Config fcfg;
  fcfg.corrupt_rate = fault == FrameFault::Corrupt ? 1.0 : 0.0;
  fcfg.duplicate_rate = fault == FrameFault::Duplicate ? 1.0 : 0.0;
  fcfg.reorder_rate = fault == FrameFault::Reorder ? 1.0 : 0.0;
  fcfg.max_faults = 1;
  plan = FaultPlan(fcfg);
  const wire::WireStats w0 = ranks.wire_hub()->stats();
  // Refine the two roots of the bottom row: both sit on rank 0, and the
  // re-partition moves several of their children to rank 1.
  const auto bottom_row = [](const Forest<2>& f, const BlockStore<2>&,
                             int id) {
    return f.level(id) == 0 && f.coords(id)[1] == 0 ? AdaptFlag::Refine
                                                    : AdaptFlag::Keep;
  };
  serial.adapt(bottom_row);
  ranks.adapt(bottom_row);
  const RegridCost& rc = ranks.last_regrid_cost();
  ASSERT_EQ(rc.migration_messages, 1);
  ASSERT_GE(rc.migrated_blocks, 2);

  const FaultStats& fs = plan.stats();
  const wire::WireStats& ws = ranks.wire_hub()->stats();
  EXPECT_EQ(fs.transmissions, 1) << "one draw per channel flush";
  EXPECT_EQ(fs.injected(), 1);
  EXPECT_EQ(ws.frames_sent - w0.frames_sent, 2);
  // The receiver meets a duplicate only when it next reads the channel,
  // so the hub's counters are checked after a few more (clean) steps.
  for (int s = 0; s < 3; ++s) {
    const double dt = serial.compute_dt();
    ASSERT_EQ(dt, ranks.compute_dt());
    serial.step(dt);
    ranks.step(dt);
  }
  require_identical(serial, ranks);
  EXPECT_EQ(fs.injected(), 1);
  switch (fault) {
    case FrameFault::Corrupt:
      EXPECT_EQ(fs.corrupted, 1);
      EXPECT_EQ(ws.crc_rejects - w0.crc_rejects, 1);
      break;
    case FrameFault::Duplicate:
      EXPECT_EQ(fs.duplicated, 1);
      EXPECT_EQ(ws.dup_discards - w0.dup_discards, 1);
      break;
    case FrameFault::Reorder:
      EXPECT_EQ(fs.reordered, 1);
      EXPECT_EQ(ws.reorder_stashes - w0.reorder_stashes, 1);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WireFaultedFrames,
    ::testing::Combine(::testing::Values(wire::TransportKind::Shm),
                       ::testing::Values(FrameFault::Corrupt,
                                         FrameFault::Duplicate,
                                         FrameFault::Reorder)));

// ------------------------------------------ every round ends in its call

/// Wire totals of the golden churn shape on shm: 8 ranks, Hilbert
/// partition, distributed metadata, 4^2 roots of 8^2 cells. One adapt,
/// init and one step, then a regrid that changes the topology, with no
/// step after it.
wire::WireStats churn_until_regrid(obs::Telemetry* tel) {
  Euler<2> phys;
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver.forest.root_blocks = {4, 4};
  rcfg.solver.forest.periodic = {true, true};
  rcfg.solver.forest.max_level = 2;
  rcfg.solver.cells_per_block = {8, 8};
  rcfg.solver.flux_correction = true;
  rcfg.solver.apply_positivity_fix = true;
  rcfg.solver.telemetry = tel;
  rcfg.npes = 8;
  rcfg.policy = PartitionPolicy::Hilbert;
  rcfg.distributed_metadata = true;
  rcfg.transport = wire::TransportKind::Shm;
  RankSolver<2, Euler<2>> ranks(rcfg, phys);
  ranks.wire_hub()->set_recv_timeout(20.0);
  ranks.adapt(testing::ChurnCriterion<2>{splitmix64(11)});
  ranks.init(euler_ic(phys));
  ranks.step(ranks.compute_dt());
  const auto r = ranks.adapt(testing::ChurnCriterion<2>{splitmix64(101)});
  require(r.refined + r.coarsened > 0, "the last regrid changed nothing");
  require(ranks.last_regrid_cost().topo_delta_messages > 0,
          "the last regrid sent no topology delta");
  return ranks.wire_hub()->stats();
}

TEST(WireRounds, AdaptReceivesEveryFrameTracedOrNot) {
  // Every round receives all it sends before adapt() returns, so no frame
  // is left on the wire, and tracing changes neither the frames nor the
  // bytes that cross it.
  if (wire::resolve_transport(wire::TransportKind::Shm) ==
      wire::TransportKind::Board)
    GTEST_SKIP() << "AB_TRANSPORT forced the board path";
  obs::Telemetry tel;
  tel.trace.set_enabled(true);
  const wire::WireStats untraced = churn_until_regrid(nullptr);
  const wire::WireStats traced = churn_until_regrid(&tel);
  EXPECT_EQ(untraced.frames_recv, untraced.frames_sent);
  EXPECT_EQ(traced.frames_recv, traced.frames_sent);
  EXPECT_EQ(untraced.frames_sent, traced.frames_sent);
  EXPECT_EQ(untraced.payload_bytes, traced.payload_bytes);
}

// --------------------------------------------------------- env plumbing

TEST(WireTransportEnv, EnvOverridesConfigAndTyposFailLoudly) {
  // This test owns AB_TRANSPORT; stash any externally forced value (the
  // whole suite is replayable under AB_TRANSPORT=shm) and restore it.
  const char* outer_env = std::getenv("AB_TRANSPORT");
  const std::string outer = outer_env ? outer_env : "";
  unsetenv("AB_TRANSPORT");
  LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = advection_cfg();
  rcfg.npes = 3;
  rcfg.policy = PartitionPolicy::Morton;
  {
    RankSolver<2, LinearAdvection<2>> r(rcfg, phys);
    EXPECT_EQ(r.transport_kind(), wire::TransportKind::Board);  // default
    EXPECT_EQ(r.wire_hub(), nullptr);
  }
  ASSERT_EQ(setenv("AB_TRANSPORT", "shm", 1), 0);
  {
    RankSolver<2, LinearAdvection<2>> r(rcfg, phys);
    EXPECT_EQ(r.transport_kind(), wire::TransportKind::Shm);
    EXPECT_NE(r.wire_hub(), nullptr);
  }
  ASSERT_EQ(setenv("AB_TRANSPORT", "board", 1), 0);
  {
    // Env wins in both directions: board overrides a shm config.
    auto rr = rcfg;
    rr.transport = wire::TransportKind::Shm;
    RankSolver<2, LinearAdvection<2>> r(rr, phys);
    EXPECT_EQ(r.transport_kind(), wire::TransportKind::Board);
    EXPECT_EQ(r.wire_hub(), nullptr);
  }
  // A typo, or the name of a wire that no longer exists, throws and
  // names the values that work.
  for (const char* bad : {"sokcet", "socket"}) {
    ASSERT_EQ(setenv("AB_TRANSPORT", bad, 1), 0);
    try {
      RankSolver<2, LinearAdvection<2>> r(rcfg, phys);
      ADD_FAILURE() << "AB_TRANSPORT=" << bad << " did not throw";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("board"), std::string::npos) << msg;
      EXPECT_NE(msg.find("shm"), std::string::npos) << msg;
    }
  }
  unsetenv("AB_TRANSPORT");
  {
    // Config-requested transport without env.
    auto rr = rcfg;
    rr.transport = wire::TransportKind::Shm;
    RankSolver<2, LinearAdvection<2>> r(rr, phys);
    EXPECT_EQ(r.transport_kind(), wire::TransportKind::Shm);
    EXPECT_NE(r.wire_hub(), nullptr);
  }
  {
    // A hub the solver did not build carries the run over shm.
    wire::WireHub hub(rcfg.npes);
    auto rr = rcfg;
    rr.wire = &hub;
    RankSolver<2, LinearAdvection<2>> r(rr, phys);
    EXPECT_EQ(r.transport_kind(), wire::TransportKind::Shm);
    EXPECT_EQ(r.wire_hub(), &hub);
  }
  if (outer_env) {
    ASSERT_EQ(setenv("AB_TRANSPORT", outer.c_str(), 1), 0);
  }
}

// -------------------------------------------- real multi-process (SPMD)

// Worker count x distmeta x lossy: the hub is built BEFORE the fork, each
// worker binds to its rank and runs the full equivalence
// script (serial solver included — every worker proves itself bitwise
// against serial locally), and the parent asserts every worker's final
// state digest is identical across processes AND equal to an in-process
// Board-path reference.
class WireSpmd
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(WireSpmd, BitwiseAcrossRealProcesses) {
  const auto [npes, distmeta, lossy] = GetParam();
  SCOPED_TRACE(::testing::Message() << "npes=" << npes << " distmeta="
                                    << distmeta << " lossy=" << lossy);
  const std::uint64_t seed = splitmix64(8000 + 8 * npes + (distmeta ? 4 : 0));
  const PartitionPolicy policy =
      distmeta ? PartitionPolicy::Hilbert : PartitionPolicy::Morton;
  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(seed ^ 0xFAu);
  if (lossy) {
    fcfg.drop_rate = 0.05;
    fcfg.corrupt_rate = 0.06;
    fcfg.duplicate_rate = 0.04;
    fcfg.reorder_rate = 0.04;
  }
  auto body = [&](wire::WireHub* hub,
                  std::vector<std::uint8_t>* digest) {
    // Each process builds its own plan from the same config: the draws
    // are deterministic, so every worker materializes the same faults.
    FaultPlan plan(fcfg);
    run_wire_equivalence<LinearAdvection<2>>(
        advection_cfg(), advection_phys(), advection_ic, seed,
        wire::TransportKind::Board, npes, policy, distmeta,
        lossy ? &plan : nullptr, hub, digest);
    if (lossy) require(plan.stats().injected() > 0, "nothing injected");
  };

  wire::WireHub hub(npes);  // pre-fork: workers inherit the channels
  const std::vector<wire::WorkerResult> results =
      wire::run_process_group(npes, [&](int w) {
        hub.set_process(w);
        hub.set_recv_timeout(30.0);
        std::vector<std::uint8_t> digest;
        body(&hub, &digest);
        const wire::WireStats& ws = hub.stats();
        require(ws.frames_sent > 0 || npes == 1, "worker sent nothing");
        return digest;
      });

  std::vector<std::uint8_t> ref;
  body(nullptr, &ref);  // in-process Board-path reference
  ASSERT_FALSE(ref.empty());
  for (const wire::WorkerResult& r : results) {
    ASSERT_TRUE(r.ok) << "worker " << r.worker << ": " << r.error;
    EXPECT_EQ(r.blob, ref) << "worker " << r.worker
                           << " diverged from the in-process reference";
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, WireSpmd,
                         ::testing::Values(std::make_tuple(2, false, false),
                                           std::make_tuple(4, false, false),
                                           std::make_tuple(4, true, false),
                                           std::make_tuple(2, false, true),
                                           std::make_tuple(4, true, true)));

// A rank dies mid-run in every process (the fault plan replays the same
// kill everywhere); each worker recovers from its own checkpoint file and
// the survivors' final state must be identical across processes and equal
// to the in-process recovery reference.
TEST(WireSpmdRecovery, KilledRankRecoversBitwise) {
  const int npes = 3;
  const std::string base = testing::temp_path("spmd_recovery");
  Euler<2> phys;
  const auto scfg = euler_cfg(true);
  const auto ic = euler_ic(phys);
  const double dt = 0.002;
  const double t_end = 8.5 * dt;
  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(0x1C1Du);
  fcfg.drop_rate = 0.05;
  fcfg.corrupt_rate = 0.05;
  fcfg.kill_rank = 1;
  fcfg.kill_at_step = 4;

  auto body = [&](wire::WireHub* hub, const std::string& ckpt) {
    FaultPlan plan(fcfg);
    typename RankSolver<2, Euler<2>>::Config rcfg;
    rcfg.solver = scfg;
    rcfg.npes = npes;
    rcfg.policy = PartitionPolicy::Morton;
    rcfg.faults = &plan;
    rcfg.checkpoint_every = 3;
    rcfg.checkpoint_path = ckpt;
    rcfg.wire = hub;
    RankSolver<2, Euler<2>> ranks(rcfg, phys);
    SeededTopologyCriterion<2> crit{splitmix64(31), 2};
    ranks.adapt(crit);
    ranks.init(ic);
    int deaths = 0;
    while (ranks.time() < t_end) {
      try {
        ranks.step(dt);
      } catch (const RankFailure& f) {
        require(f.rank() == 1, "wrong rank died");
        ranks.recover(f.rank());
        ++deaths;
      }
    }
    require(deaths == 1, "the kill trigger never fired");
    require(ranks.num_alive() == npes - 1, "alive count after recovery");
    require(!ranks.rank_alive(1), "dead rank still alive");
    const std::vector<std::uint8_t> digest = state_digest(ranks);
    std::remove(ckpt.c_str());
    return digest;
  };

  wire::WireHub hub(npes);
  const std::vector<wire::WorkerResult> results =
      wire::run_process_group(npes, [&](int w) {
        hub.set_process(w);
        hub.set_recv_timeout(30.0);
        // Each worker checkpoints to its own file: the writers are in
        // different processes saving identical bytes, but recovery must
        // read each process's own copy.
        return body(&hub, base + "_w" + std::to_string(w) + ".ckpt");
      });
  const std::vector<std::uint8_t> ref = body(nullptr, base + "_ref.ckpt");
  for (const wire::WorkerResult& r : results) {
    ASSERT_TRUE(r.ok) << "worker " << r.worker << ": " << r.error;
    EXPECT_EQ(r.blob, ref) << "worker " << r.worker
                           << " recovered to a different state";
  }
}

}  // namespace
}  // namespace ab
