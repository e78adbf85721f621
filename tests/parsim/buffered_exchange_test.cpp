#include "parsim/buffered_exchange.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "parsim/block_migration.hpp"
#include "parsim/machine.hpp"
#include "parsim/partition.hpp"
#include "parsim/simulate.hpp"

namespace ab {
namespace {

Forest<2> make_forest(unsigned seed) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  cfg.periodic = {true, true};
  cfg.max_level = 3;
  Forest<2> f(cfg);
  std::mt19937 rng(seed);
  for (int i = 0; i < 25; ++i) {
    const auto& leaves = f.leaves();
    const int id = leaves[rng() % leaves.size()];
    if (f.level(id) < 3) f.refine(id);
  }
  return f;
}

void fill_random(const Forest<2>& f, BlockStore<2>& store, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<2> v = store.view(id);
    for_each_cell<2>(store.layout().interior_box(), [&](IVec<2> p) {
      for (int var = 0; var < store.layout().nvar; ++var)
        v.at(var, p) = dist(rng);
    });
  }
}

class BufferedExchangeSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(BufferedExchangeSeeds, BitIdenticalToDirectFill) {
  const unsigned seed = GetParam();
  Forest<2> f = make_forest(seed);
  BlockLayout<2> lay({4, 4}, 2, 3);
  GhostExchanger<2> gx(f, lay);

  for (int npes : {1, 3, 8}) {
    BlockStore<2> direct(lay), buffered(lay);
    fill_random(f, direct, seed * 31 + 1);
    fill_random(f, buffered, seed * 31 + 1);
    gx.fill(direct);
    auto owner = partition_blocks<2>(f, npes, PartitionPolicy::Morton);
    BufferedExchange<2> bx(gx, owner, npes);
    bx.fill(buffered);
    for (int id : f.leaves()) {
      ConstBlockView<2> a = std::as_const(direct).view(id);
      ConstBlockView<2> b = std::as_const(buffered).view(id);
      for_each_cell<2>(lay.ghosted_box(), [&](IVec<2> p) {
        // Corner ghosts are untouched in both (stay at their initial 0).
        for (int var = 0; var < 3; ++var)
          ASSERT_EQ(a.at(var, p), b.at(var, p))
              << "npes=" << npes << " block " << id << " cell " << p;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferedExchangeSeeds,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(BufferedExchange, SinglePeHasNoMessages) {
  Forest<2> f = make_forest(5);
  BlockLayout<2> lay({4, 4}, 2, 1);
  GhostExchanger<2> gx(f, lay);
  auto owner = partition_blocks<2>(f, 1, PartitionPolicy::Morton);
  BufferedExchange<2> bx(gx, owner, 1);
  EXPECT_EQ(bx.messages_per_fill(), 0);
  EXPECT_EQ(bx.bytes_per_fill(), 0);
}

TEST(BufferedExchange, TrafficMatchesCostModelAccounting) {
  // The bytes the buffers actually carry equal what simulate_step charges.
  Forest<2> f = make_forest(9);
  BlockLayout<2> lay({4, 4}, 2, 2);
  GhostExchanger<2> gx(f, lay);
  const int npes = 4;
  auto owner = partition_blocks<2>(f, npes, PartitionPolicy::Morton);
  BufferedExchange<2> bx(gx, owner, npes);
  MachineModel m;
  auto cost = simulate_step<2>(gx, owner, npes, m,
                               [](int) { return std::uint64_t{1}; });
  EXPECT_EQ(bx.bytes_per_fill(), cost.remote_bytes);
  EXPECT_EQ(bx.messages_per_fill(), cost.messages);
  // Every op's bytes are priced once: on a link or as an on-PE copy.
  EXPECT_GT(cost.local_bytes, 0);
  EXPECT_EQ(cost.local_bytes + cost.remote_bytes,
            gx.total_cells() * lay.nvar * 8);
}

TEST(BufferedExchange, RejectsUnownedBlocks) {
  Forest<2> f = make_forest(2);
  BlockLayout<2> lay({4, 4}, 2, 1);
  GhostExchanger<2> gx(f, lay);
  std::vector<int> owner(static_cast<std::size_t>(f.node_capacity()), -1);
  EXPECT_THROW(BufferedExchange<2>(gx, owner, 2), Error);
}

TEST(BufferedExchange, RebuildFollowsTopologyChange) {
  Forest<2> f = make_forest(3);
  BlockLayout<2> lay({4, 4}, 2, 1);
  GhostExchanger<2> gx(f, lay);
  auto owner = partition_blocks<2>(f, 4, PartitionPolicy::Morton);
  BufferedExchange<2> bx(gx, owner, 4);
  const auto bytes_before = bx.bytes_per_fill();
  // Refine somewhere, rebuild everything, repartition.
  f.refine(f.leaves()[0]);
  gx.rebuild();
  owner = partition_blocks<2>(f, 4, PartitionPolicy::Morton);
  BufferedExchange<2> bx2(gx, owner, 4);
  BlockStore<2> direct(lay), buffered(lay);
  fill_random(f, direct, 77);
  fill_random(f, buffered, 77);
  gx.fill(direct);
  bx2.fill(buffered);
  for (int id : f.leaves()) {
    ConstBlockView<2> a = std::as_const(direct).view(id);
    ConstBlockView<2> b = std::as_const(buffered).view(id);
    for_each_cell<2>(lay.ghosted_box(), [&](IVec<2> p) {
      ASSERT_EQ(a.at(0, p), b.at(0, p));
    });
  }
  EXPECT_NE(bytes_before, 0);
}

TEST(BlockMigration, PricedRecordIsWhatMigrateBlocksShips) {
  // migration_loads (what ablation G prices) must describe the round
  // migrate_blocks really runs: the same (old, new) pairs, messages and
  // bytes on every PE.
  Forest<2> f = make_forest(6);
  BlockLayout<2> lay({4, 4}, 2, 3);
  const int npes = 4;
  const auto from = partition_blocks<2>(f, npes, PartitionPolicy::Morton);
  const auto to = partition_blocks<2>(f, npes, PartitionPolicy::RoundRobin);
  std::vector<BlockStore<2>> stores;
  for (int p = 0; p < npes; ++p) stores.emplace_back(lay);
  for (int id : f.leaves())
    stores[static_cast<std::size_t>(from[static_cast<std::size_t>(id)])]
        .ensure(id);
  MessageBoard board;
  const MigrationStats ms = migrate_blocks<2>(f.leaves(), from, to, stores,
                                              board);
  ASSERT_GT(ms.blocks, 0);
  std::vector<PeLoad> shipped(npes);
  board.add_per_pe_traffic(shipped);
  const std::vector<PeLoad> priced =
      migration_loads<2>(f.leaves(), from, to, npes, lay);
  std::int64_t messages = 0, bytes = 0;
  for (int p = 0; p < npes; ++p) {
    const PeLoad& a = shipped[static_cast<std::size_t>(p)];
    const PeLoad& b = priced[static_cast<std::size_t>(p)];
    EXPECT_EQ(a.sent_messages, b.sent_messages) << "pe " << p;
    EXPECT_EQ(a.recv_messages, b.recv_messages) << "pe " << p;
    EXPECT_EQ(a.sent_bytes, b.sent_bytes) << "pe " << p;
    EXPECT_EQ(a.recv_bytes, b.recv_bytes) << "pe " << p;
    messages += b.sent_messages;
    bytes += b.sent_bytes;
  }
  EXPECT_EQ(messages, ms.messages);
  EXPECT_EQ(bytes, ms.bytes);
}

}  // namespace
}  // namespace ab
