// BlockPool arena: O(1) acquire/release bookkeeping, address stability
// under churn, zero-fill on reuse, memory touched only for the slabs handed
// out, and the BlockStore built on top of it (layout matching, swap,
// running counters).
#include "util/block_pool.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/block_store.hpp"
#include "support/rng.hpp"
#include "util/error.hpp"

namespace ab {
namespace {

TEST(BlockPool, AcquireGivesZeroedDistinctAlignedSlabs) {
  BlockPool pool(100);  // deliberately not a multiple of the 8/line
  std::vector<BlockPool::Handle> hs;
  std::unordered_set<double*> seen;
  for (int i = 0; i < 10; ++i) {
    BlockPool::Handle h = pool.acquire();
    ASSERT_TRUE(h.valid());
    double* p = pool.data(h);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "slab " << i << " aliases another";
    for (int k = 0; k < 100; ++k) EXPECT_EQ(p[k], 0.0);
    hs.push_back(h);
  }
  EXPECT_EQ(pool.stats().slabs_in_use, 10);
  EXPECT_EQ(pool.stats().fresh_allocs, 10);
  EXPECT_EQ(pool.stats().reuse_hits, 0);
  EXPECT_EQ(pool.stats().chunks, 1);  // 10 <= kSlabsPerChunk
  for (BlockPool::Handle h : hs) pool.release(h);
  EXPECT_EQ(pool.stats().slabs_in_use, 0);
}

TEST(BlockPool, ReleaseThenAcquireRecyclesAndRezeroes) {
  BlockPool pool(16);
  BlockPool::Handle h = pool.acquire();
  double* p = pool.data(h);
  for (int k = 0; k < 16; ++k) p[k] = 3.25;
  pool.release(h);
  BlockPool::Handle h2 = pool.acquire();
  // Lowest-free-bit policy hands the same slot straight back...
  EXPECT_EQ(pool.data(h2), p);
  EXPECT_EQ(pool.stats().reuse_hits, 1);
  EXPECT_EQ(pool.stats().fresh_allocs, 1);
  // ...zero-filled, so pooled ensure() matches AlignedBuffer::allocate.
  for (int k = 0; k < 16; ++k) EXPECT_EQ(pool.data(h2)[k], 0.0);
}

TEST(BlockPool, GrowsBeyondOneChunkAndReusesFreedSlotsFirst) {
  BlockPool pool(8);
  std::vector<BlockPool::Handle> hs;
  const int n = BlockPool::kSlabsPerChunk + 5;
  for (int i = 0; i < n; ++i) hs.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().chunks, 2);
  EXPECT_EQ(pool.stats().slabs_in_use, n);
  // Free one slab in the (full) first chunk; the next acquire must take it
  // instead of opening chunk 3 or using chunk 2's tail.
  double* freed = pool.data(hs[3]);
  pool.release(hs[3]);
  BlockPool::Handle h = pool.acquire();
  EXPECT_EQ(pool.data(h), freed);
  EXPECT_EQ(pool.stats().chunks, 2);
}

TEST(BlockPool, DoubleFreeAndBadHandleAreRejected) {
  BlockPool pool(8);
  BlockPool::Handle h = pool.acquire();
  pool.release(h);
  EXPECT_THROW(pool.release(h), Error);
  EXPECT_THROW(pool.release(BlockPool::Handle{}), Error);
  EXPECT_THROW(pool.release(BlockPool::Handle{7, 0}), Error);
}

/// Resident anonymous memory of this process in KiB, or -1 where the
/// kernel does not report RssAnon.
long rss_anon_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("RssAnon:", 0) == 0) return std::stol(line.substr(8));
  return -1;
}

// A chunk is allocated unfilled: acquiring one slab from a fresh pool makes
// that slab resident, not the kSlabsPerChunk slabs of its chunk.
TEST(BlockPool, FreshChunkTouchesOnlyTheSlabHandedOut) {
  const std::int64_t slab_doubles = std::int64_t{1} << 17;  // 1 MiB
  const long slab_kib = static_cast<long>(slab_doubles * 8 / 1024);
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer's shadow of the written slab is resident "
                  "anonymous memory too, several times the slab's size";
#endif
  const long before = rss_anon_kib();
  if (before < 0) GTEST_SKIP() << "the kernel does not report RssAnon";
  BlockPool pool(slab_doubles);
  BlockPool::Handle h = pool.acquire();
  double* p = pool.data(h);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[slab_doubles - 1], 0.0);
  const long grown = rss_anon_kib() - before;
  EXPECT_LE(grown, 4 * slab_kib)
      << "one acquire made " << grown << " KiB resident; a slab is "
      << slab_kib << " KiB and a chunk "
      << slab_kib * BlockPool::kSlabsPerChunk;
  pool.release(h);
}

// Address-stability fuzz: slabs held across arbitrary unrelated
// acquire/release churn never move and never alias a concurrently held
// slab. Seeded via splitmix64; the seed is printed on failure.
TEST(BlockPool, AddressStabilityUnderChurnFuzz) {
  const std::uint64_t seed = 0xab10cb001ull;
  SCOPED_TRACE("seed=0xab10cb001");
  ab::testing::SplitMix64 rng(seed);
  BlockPool pool(24);
  struct Held {
    BlockPool::Handle h;
    double* p;
    double tag;
  };
  std::vector<Held> held;
  double next_tag = 1.0;
  for (int round = 0; round < 2000; ++round) {
    const bool grow = held.empty() || (held.size() < 150 && rng.below(2) == 0);
    if (grow) {
      BlockPool::Handle h = pool.acquire();
      double* p = pool.data(h);
      ASSERT_EQ(p[0], 0.0);  // recycled slabs come back zeroed
      p[0] = next_tag;
      held.push_back({h, p, next_tag});
      next_tag += 1.0;
    } else {
      const std::size_t i = rng.below(held.size());
      ASSERT_EQ(held[i].p, pool.data(held[i].h));
      ASSERT_EQ(held[i].p[0], held[i].tag);  // nobody scribbled on it
      pool.release(held[i].h);
      held[i] = held.back();
      held.pop_back();
    }
  }
  // Everything still held is intact and still where it was.
  for (const Held& h : held) {
    EXPECT_EQ(pool.data(h.h), h.p);
    EXPECT_EQ(h.p[0], h.tag);
  }
  EXPECT_EQ(pool.stats().slabs_in_use,
            static_cast<std::int64_t>(held.size()));
  EXPECT_GT(pool.stats().reuse_hits, 0);
}

// --- BlockStore on the pool --------------------------------------------

TEST(BlockStorePool, RejectsLayoutMismatchedPool) {
  BlockLayout<2> lay(IVec<2>(8), 2, 3);
  auto pool = std::make_shared<BlockPool>(lay.block_doubles());
  EXPECT_NO_THROW(BlockStore<2>(lay, pool));
  BlockLayout<2> other(IVec<2>(10), 2, 3);
  EXPECT_THROW(BlockStore<2>(other, pool), Error);
  EXPECT_THROW(BlockStore<2>(lay, nullptr), Error);
}

TEST(BlockStorePool, ReleasedBlockComesBackZeroed) {
  BlockLayout<2> lay(IVec<2>(4), 1, 2);
  auto pool = std::make_shared<BlockPool>(lay.block_doubles());
  BlockStore<2> store(lay, pool);
  store.ensure(3);
  BlockView<2> v = store.view(3);
  for_each_cell<2>(lay.ghosted_box(), [&](IVec<2> p) { v.at(1, p) = 7.0; });
  store.release(3);
  store.release(3);  // no-op on an absent id
  store.ensure(3);   // the recycled slab comes back zero-filled
  EXPECT_EQ(store.view(3).base, v.base);
  for_each_cell<2>(lay.ghosted_box(), [&](IVec<2> p) {
    EXPECT_EQ(store.view(3).at(1, p), 0.0);
  });
  EXPECT_EQ(pool->stats().reuse_hits, 1);
}

TEST(BlockStorePool, SwapBlockAndWholeStoreSwapAcrossSharedPool) {
  BlockLayout<2> lay(IVec<2>(4), 1, 1);
  auto pool = std::make_shared<BlockPool>(lay.block_doubles());
  BlockStore<2> a(lay, pool), b(lay, pool);
  a.ensure(0);
  b.ensure(0);
  a.view(0).at(0, IVec<2>{0, 0}) = 1.0;
  b.view(0).at(0, IVec<2>{0, 0}) = 2.0;
  const double* pa = a.view(0).base;
  a.swap_block(b, 0);
  EXPECT_EQ(a.view(0).at(0, IVec<2>{0, 0}), 2.0);
  EXPECT_EQ(b.view(0).at(0, IVec<2>{0, 0}), 1.0);
  EXPECT_EQ(b.view(0).base, pa);  // O(1) handle swap, no copy
  std::swap(a, b);
  EXPECT_EQ(a.view(0).at(0, IVec<2>{0, 0}), 1.0);
  // Stores with different pools must not swap blocks.
  BlockStore<2> c(lay);  // a private pool
  c.ensure(0);
  EXPECT_THROW(a.swap_block(c, 0), Error);
  // Destruction of a,b returns every slab; the arena sees them all free.
  a = BlockStore<2>(lay, pool);
  b = BlockStore<2>(lay, pool);
  EXPECT_EQ(pool->stats().slabs_in_use, 0);
}

TEST(BlockStorePool, RunningCountersMatchScanBothModes) {
  // Both ways to build a store: its own private pool, or a shared one.
  BlockLayout<3> lay(IVec<3>(4), 1, 2);
  auto pool = std::make_shared<BlockPool>(lay.block_doubles());
  ab::testing::SplitMix64 rng(0xc0117e5ull);
  for (int mode = 0; mode < 2; ++mode) {
    BlockStore<3> store = mode == 0 ? BlockStore<3>(lay)
                                    : BlockStore<3>(lay, pool);
    std::unordered_set<int> live;
    for (int round = 0; round < 300; ++round) {
      const int id = static_cast<int>(rng.below(40));
      if (rng.below(2) == 0) {
        store.ensure(id);
        live.insert(id);
      } else {
        store.release(id);
        live.erase(id);
      }
      ASSERT_EQ(store.num_allocated(), static_cast<int>(live.size()));
      ASSERT_EQ(store.total_doubles(),
                static_cast<std::int64_t>(live.size()) * lay.block_doubles());
    }
  }
}

TEST(BlockStorePool, ViewPointersSurviveUnrelatedEnsureRelease) {
  // The stable-address contract the exchanger relies on: taking a view,
  // then allocating/freeing many other blocks, leaves the view valid.
  BlockLayout<2> lay(IVec<2>(6), 2, 2);
  auto pool = std::make_shared<BlockPool>(lay.block_doubles());
  BlockStore<2> store(lay, pool);
  store.ensure(0);
  BlockView<2> v = store.view(0);
  v.at(0, IVec<2>{1, 1}) = 42.0;
  for (int id = 1; id < 200; ++id) store.ensure(id);
  for (int id = 1; id < 200; id += 2) store.release(id);
  for (int id = 1; id < 200; id += 2) store.ensure(id);
  EXPECT_EQ(store.view(0).base, v.base);
  EXPECT_EQ(v.at(0, IVec<2>{1, 1}), 42.0);
}

}  // namespace
}  // namespace ab
