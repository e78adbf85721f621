#include "parsim/simulate.hpp"

#include <gtest/gtest.h>

#include "parsim/local_topology.hpp"
#include "parsim/partition.hpp"
#include "parsim/workload.hpp"

namespace ab {
namespace {

struct Fixture {
  Forest<2>::Config cfg;
  Forest<2> forest;
  BlockLayout<2> lay;
  GhostExchanger<2> gx;

  Fixture() : cfg(make_cfg()), forest(cfg), lay({4, 4}, 2, 2),
              gx(forest, lay) {}
  static Forest<2>::Config make_cfg() {
    Forest<2>::Config c;
    c.root_blocks = {4, 4};
    c.periodic = {true, true};
    return c;
  }
};

TEST(Simulate, SinglePeMatchesSerialTime) {
  Fixture fx;
  auto owner = partition_blocks<2>(fx.forest, 1, PartitionPolicy::Morton);
  MachineModel m = MachineModel::cray_t3d();
  auto cost = simulate_step<2>(fx.gx, owner, 1, m,
                               [](int) { return std::uint64_t{1000}; });
  EXPECT_DOUBLE_EQ(cost.t_step, cost.t_serial);
  EXPECT_DOUBLE_EQ(cost.speedup, 1.0);
  EXPECT_DOUBLE_EQ(cost.efficiency, 1.0);
  EXPECT_EQ(cost.remote_bytes, 0);
  EXPECT_EQ(cost.messages, 0);
  EXPECT_GT(cost.local_bytes, 0);
  EXPECT_EQ(cost.total_flops, 16000u);
}

TEST(Simulate, HandComputedTwoPeCase) {
  // 4x4 periodic roots split into two halves by Morton order. Verify the
  // compute side exactly and the comm bookkeeping structurally.
  Fixture fx;
  auto owner = partition_blocks<2>(fx.forest, 2, PartitionPolicy::Morton);
  MachineModel m;
  m.flops_per_sec = 1e6;
  m.latency_sec = 1e-5;
  m.bytes_per_sec = 1e8;
  m.local_bytes_per_sec = 1e9;
  const std::uint64_t per_block = 5000;
  auto cost = simulate_step<2>(fx.gx, owner, 2, m,
                               [&](int) { return per_block; });
  // 8 blocks per PE -> compute = 8*5000/1e6 = 0.04 s on each PE.
  EXPECT_DOUBLE_EQ(cost.max_compute, 0.04);
  EXPECT_GT(cost.max_comm, 0.0);
  EXPECT_GT(cost.remote_bytes, 0);
  EXPECT_GT(cost.local_bytes, 0);
  // Total ghost traffic = all ops (16 blocks * 4 faces * 2 ghost layers *
  // 4 cells * 2 vars * 8 bytes).
  EXPECT_EQ(cost.remote_bytes + cost.local_bytes,
            16LL * 4 * (2 * 4) * 2 * 8);
  EXPECT_DOUBLE_EQ(cost.t_step, cost.max_compute + cost.max_comm);
  EXPECT_LT(cost.efficiency, 1.0);
  EXPECT_GT(cost.efficiency, 0.5);
}

TEST(Simulate, PricesEachPeAndTakesTheSlowest) {
  // Two PEs, priced by hand: each PE pays latency per message it sends or
  // receives, its bytes over the link, its local copies over the copy
  // bandwidth, and its flops; the step waits for the slower PE.
  MachineModel m;
  m.flops_per_sec = 1e6;
  m.latency_sec = 1e-3;
  m.bytes_per_sec = 1e6;
  m.local_bytes_per_sec = 1e7;
  std::vector<PeLoad> pes(2);
  pes[0].flops = 2000000;
  pes[0].local_bytes = 1000000;
  pes[0].add_sent(100000);
  pes[1].add_recv(100000);
  pes[1].flops = 1000000;
  pes[1].add_sent(50000);
  pes[0].add_recv(50000);
  const StepCost c = price_pes(pes, m);
  ASSERT_EQ(c.compute.size(), 2u);
  EXPECT_DOUBLE_EQ(c.compute[0], 2.0);
  EXPECT_DOUBLE_EQ(c.comm[0], 2e-3 + 0.15 + 0.1);
  EXPECT_DOUBLE_EQ(c.compute[1], 1.0);
  EXPECT_DOUBLE_EQ(c.comm[1], 2e-3 + 0.15);
  EXPECT_DOUBLE_EQ(c.t_step, 2.252);
  EXPECT_DOUBLE_EQ(c.max_compute, 2.0);
  EXPECT_DOUBLE_EQ(c.max_comm, 0.252);
  EXPECT_DOUBLE_EQ(c.t_serial, 3.0 + 1150000 / 1e7);
  EXPECT_DOUBLE_EQ(c.efficiency, c.t_serial / 2.252 / 2);
  EXPECT_EQ(c.total_flops, 3000000u);
  EXPECT_EQ(c.messages, 2);
  EXPECT_EQ(c.remote_bytes, 150000);
  EXPECT_EQ(c.local_bytes, 1000000);
}

TEST(Simulate, PerFaceOpCountsMoreMessages) {
  // The paper's per-block communication: all the face ops between two PEs
  // travel as one message. Sent one message per face op instead, the same
  // bytes take more messages and more time.
  Fixture fx;
  const int npes = 4;
  auto owner = partition_blocks<2>(fx.forest, npes, PartitionPolicy::Morton);
  MachineModel m;
  auto flops = [](int) { return std::uint64_t{1000}; };
  const StepCost per_pair = simulate_step<2>(fx.gx, owner, npes, m, flops);
  std::vector<PeLoad> pes(npes);
  for (int id : fx.forest.leaves()) pes[owner[id]].flops += flops(id);
  for (const auto& op : fx.gx.ops()) {
    const int ps = owner[op.src];
    const int pd = owner[op.dst];
    const std::int64_t bytes = fx.gx.op_payload_doubles(op) * 8;
    if (ps == pd) {
      pes[pd].local_bytes += bytes;
    } else {
      pes[ps].add_sent(bytes);
      pes[pd].add_recv(bytes);
    }
  }
  const StepCost per_face = price_pes(pes, m);
  EXPECT_GT(per_face.messages, per_pair.messages);
  EXPECT_EQ(per_face.remote_bytes, per_pair.remote_bytes);
  EXPECT_EQ(per_face.local_bytes, per_pair.local_bytes);
  EXPECT_GT(per_face.max_comm, per_pair.max_comm);
  EXPECT_LT(per_face.efficiency, per_pair.efficiency);
}

TEST(Simulate, EfficiencyDegradesWithLatencyBoundMachine) {
  Fixture fx;
  auto owner = partition_blocks<2>(fx.forest, 8, PartitionPolicy::Morton);
  MachineModel fast_net;
  fast_net.latency_sec = 1e-7;
  MachineModel slow_net;
  slow_net.latency_sec = 1e-2;
  auto f = simulate_step<2>(fx.gx, owner, 8, fast_net,
                            [](int) { return std::uint64_t{100000}; });
  auto s = simulate_step<2>(fx.gx, owner, 8, slow_net,
                            [](int) { return std::uint64_t{100000}; });
  EXPECT_GT(f.efficiency, s.efficiency);
}

TEST(Simulate, LocalityPartitionBeatsRoundRobin) {
  // The paper's point about communication amortization only pays off if
  // neighbors stay on-PE; round-robin destroys that.
  Forest<2>::Config cfg;
  cfg.root_blocks = {8, 8};
  cfg.periodic = {true, true};
  Forest<2> forest(cfg);
  BlockLayout<2> lay({8, 8}, 2, 8);
  GhostExchanger<2> gx(forest, lay);
  MachineModel m;
  auto flops = [](int) { return std::uint64_t{500000}; };
  auto morton = simulate_step<2>(
      gx, partition_blocks<2>(forest, 8, PartitionPolicy::Morton), 8, m,
      flops);
  auto rr = simulate_step<2>(
      gx, partition_blocks<2>(forest, 8, PartitionPolicy::RoundRobin), 8, m,
      flops);
  EXPECT_GT(morton.efficiency, rr.efficiency);
  EXPECT_LT(morton.remote_bytes, rr.remote_bytes);
}

TEST(Simulate, GflopsBoundedByMachinePeak) {
  Fixture fx;
  const int npes = 4;
  auto owner = partition_blocks<2>(fx.forest, npes, PartitionPolicy::Morton);
  MachineModel m;
  auto cost = simulate_step<2>(fx.gx, owner, npes, m,
                               [](int) { return std::uint64_t{200000}; });
  EXPECT_GT(cost.gflops, 0.0);
  EXPECT_LE(cost.gflops, npes * m.flops_per_sec / 1e9 + 1e-12);
}

TEST(Simulate, IdlePesHurtEfficiency) {
  // More PEs than blocks: some PEs idle, efficiency ~ nblocks/npes at best.
  Fixture fx;  // 16 blocks
  auto owner = partition_blocks<2>(fx.forest, 32, PartitionPolicy::Morton);
  MachineModel m;
  auto cost = simulate_step<2>(fx.gx, owner, 32, m,
                               [](int) { return std::uint64_t{100000}; });
  EXPECT_LT(cost.efficiency, 0.6);
}

TEST(Simulate, ScalesToThousandsOfRanks) {
  // Thousands of simulated ranks on a 64x64 block grid (4096 blocks). The
  // cost model must keep pricing sanely, and the distributed-metadata
  // structures built on the same partitions must stay per-rank sized the
  // whole way out.
  Forest<2>::Config cfg;
  cfg.root_blocks = {64, 64};
  cfg.periodic = {true, true};
  Forest<2> forest(cfg);
  BlockLayout<2> lay({4, 4}, 2, 2);
  GhostExchanger<2> gx(forest, lay);
  MachineModel m;
  m.flops_per_sec = 1e9;
  m.latency_sec = 1e-6;
  m.bytes_per_sec = 1e9;
  auto flops = [](int) { return std::uint64_t{500000}; };
  for (int npes : {1024, 2048, 4096}) {
    SCOPED_TRACE(::testing::Message() << "npes " << npes);
    auto owner = partition_blocks<2>(forest, npes, PartitionPolicy::Morton);
    auto cost = simulate_step<2>(gx, owner, npes, m, flops);
    EXPECT_EQ(cost.total_flops, 4096ull * 500000ull);
    EXPECT_GT(cost.speedup, 20.0);
    EXPECT_GT(cost.messages, 0);
    EXPECT_GT(cost.remote_bytes, 0);
    // 4096 uniform blocks split evenly: Morton chunks are aligned tiles,
    // so owned counts are exact and hulls are the tile perimeter.
    const LocalTopologySet<2> topo(forest, owner, npes,
                                   PartitionPolicy::Morton);
    EXPECT_EQ(topo.max_owned(), static_cast<std::size_t>(4096 / npes));
    EXPECT_LE(topo.max_hull(), 16u);
    EXPECT_EQ(topo.directory().num_ranges(),
              static_cast<std::size_t>(npes));
  }
  // One block per rank: every ghost face crosses ranks.
  auto all_remote = simulate_step<2>(
      gx, partition_blocks<2>(forest, 4096, PartitionPolicy::Morton), 4096,
      m, flops);
  EXPECT_EQ(all_remote.local_bytes, 0);
  // Locality still matters at scale: Morton keeps intra-rank faces local
  // and talks to few neighbor ranks; round-robin makes every face remote
  // and scatters it across the machine. On a comm-bound network (where
  // the difference is visible at all) that decides the efficiency.
  MachineModel slow = m;
  slow.latency_sec = 1e-4;
  slow.bytes_per_sec = 1e7;
  auto mo = simulate_step<2>(
      gx, partition_blocks<2>(forest, 1024, PartitionPolicy::Morton), 1024,
      slow, flops);
  auto rr = simulate_step<2>(
      gx, partition_blocks<2>(forest, 1024, PartitionPolicy::RoundRobin),
      1024, slow, flops);
  EXPECT_LT(mo.remote_bytes, rr.remote_bytes);
  EXPECT_GT(mo.efficiency, rr.efficiency);
}

TEST(Simulate, RequiresOwnedLeaves) {
  Fixture fx;
  std::vector<int> owner(fx.forest.node_capacity(), -1);
  MachineModel m;
  EXPECT_THROW(simulate_step<2>(fx.gx, owner, 2, m,
                                [](int) { return std::uint64_t{1}; }),
               Error);
}

}  // namespace
}  // namespace ab
