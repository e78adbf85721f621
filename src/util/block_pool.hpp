// Pooled slab arena for block field storage.
//
// Every BlockStore buffer has the same size (one layout per store), and
// regrid-heavy runs churn those buffers hard: each refine allocates 2^D
// children and frees a parent, each coarsen does the reverse, and every
// migration frees on one rank and allocates on another. Routing each of
// those through malloc/free means, at the paper's 16^3 x nvar block sizes,
// an mmap/munmap round trip (plus page faults re-zeroing memory the solver
// just gave back) per block event. A BlockPool amortizes all of that:
// slabs are carved out of chunk allocations (kSlabsPerChunk blocks per
// chunk) and recycled on a free list, so steady-state regrid churn touches
// no allocator at all and keeps re-using cache-warm pages.
//
// Design (after Boostibot/c_lib's stable_array, see SNIPPETS.md):
//  - stable addresses: a slab's address never changes between acquire and
//    release, and acquiring/releasing other slabs never moves it — so
//    BlockView pointers taken from a pooled store survive unrelated
//    ensure()/release() calls, exactly like the malloc path;
//  - chunked allocation: one 64-byte-aligned allocation serves
//    kSlabsPerChunk slabs (two dereferences to reach a slab: chunk table,
//    then base + slot * stride);
//  - bitfield free-slot tracking: one uint64 word per chunk holds the
//    free mask; acquire takes the lowest set bit (countr_zero), release
//    sets it back — O(1) both ways, and the mask doubles as the
//    "ever used" tracker for reuse accounting;
//  - non-full list: chunks with at least one free slot form a singly
//    linked list (indices, heads embedded in the chunk records), so
//    acquire never scans full chunks.
//
// Acquired slabs are zero-filled, matching AlignedBuffer::allocate, so a
// pooled store is bitwise identical to a malloc'd one by construction.
//
// Thread safety: none — the pool is mutated only from the serial sections
// of the solvers (construction, init, adapt/regrid, migration, restore),
// never from inside a parallel phase. The threaded phases only read and
// write slab *contents*, which is safe because acquire/release are never
// concurrent with them.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/aligned.hpp"
#include "util/error.hpp"

namespace ab {

class BlockPool {
 public:
  static constexpr int kSlabsPerChunk = 64;  // one uint64 free mask per chunk

  /// Opaque slab reference: which chunk, which slot. Cheap to copy and to
  /// swap between stores sharing one pool. A default-constructed handle is
  /// invalid (no slab).
  struct Handle {
    std::int32_t chunk = -1;
    std::int32_t slot = -1;
    bool valid() const { return chunk >= 0; }
  };

  /// Running totals. chunks/slabs_in_use describe the current state;
  /// fresh_allocs/reuse_hits partition all acquire() calls ever made into
  /// first-use-of-a-slot vs. recycled-slot, so reuse_hits / (fresh +
  /// reuse) is the fraction of block allocations the pool absorbed
  /// without touching malloc.
  struct Stats {
    std::int64_t chunks = 0;        ///< chunk allocations held
    std::int64_t slabs_in_use = 0;  ///< currently acquired slabs
    std::int64_t fresh_allocs = 0;  ///< acquires served by a never-used slot
    std::int64_t reuse_hits = 0;    ///< acquires served by a recycled slot
  };

  /// A pool hands out slabs of exactly `slab_doubles` doubles, 64-byte
  /// aligned (the stride between slots is rounded up to the alignment).
  explicit BlockPool(std::int64_t slab_doubles)
      : slab_doubles_(slab_doubles),
        slab_stride_((slab_doubles + kDoublesPerLine - 1) / kDoublesPerLine *
                     kDoublesPerLine) {
    AB_REQUIRE(slab_doubles >= 1, "BlockPool: slab size must be positive");
  }

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  std::int64_t slab_doubles() const { return slab_doubles_; }

  /// Take a zero-filled slab. O(1): the head of the non-full list always
  /// has a free slot; a new chunk is allocated only when the list is empty.
  Handle acquire() {
    if (nonfull_head_ < 0) add_chunk();
    const std::int32_t ci = nonfull_head_;
    Chunk& c = chunks_[static_cast<std::size_t>(ci)];
    AB_ASSERT(c.free_mask != 0);
    const int slot = std::countr_zero(c.free_mask);
    const std::uint64_t bit = std::uint64_t{1} << slot;
    c.free_mask &= ~bit;
    if (c.free_mask == 0) {  // chunk became full: unlink from non-full list
      nonfull_head_ = c.next_nonfull;
      c.next_nonfull = -1;
      c.in_nonfull_list = false;
    }
    if ((c.used_mask & bit) != 0) {
      ++stats_.reuse_hits;
    } else {
      c.used_mask |= bit;
      ++stats_.fresh_allocs;
    }
    ++stats_.slabs_in_use;
    double* p = slab_ptr(c, slot);
    for (std::int64_t i = 0; i < slab_doubles_; ++i) p[i] = 0.0;
    return Handle{ci, slot};
  }

  /// Return a slab to the pool. O(1); the memory is retained for reuse
  /// (chunks are only freed when the pool is destroyed).
  void release(Handle h) {
    AB_REQUIRE(h.valid() &&
                   h.chunk < static_cast<std::int32_t>(chunks_.size()) &&
                   h.slot >= 0 && h.slot < kSlabsPerChunk,
               "BlockPool::release: bad handle");
    Chunk& c = chunks_[static_cast<std::size_t>(h.chunk)];
    const std::uint64_t bit = std::uint64_t{1} << h.slot;
    AB_REQUIRE((c.free_mask & bit) == 0, "BlockPool::release: double free");
    const bool was_full = (c.free_mask == 0);
    c.free_mask |= bit;
    if (was_full && !c.in_nonfull_list) {
      c.next_nonfull = nonfull_head_;
      c.in_nonfull_list = true;
      nonfull_head_ = h.chunk;
    }
    --stats_.slabs_in_use;
  }

  /// Address of the slab behind `h`. Stable for the handle's lifetime.
  double* data(Handle h) {
    AB_ASSERT(h.valid() &&
              h.chunk < static_cast<std::int32_t>(chunks_.size()));
    return slab_ptr(chunks_[static_cast<std::size_t>(h.chunk)], h.slot);
  }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::int64_t kDoublesPerLine =
      static_cast<std::int64_t>(AlignedBuffer::kAlign / sizeof(double));

  struct Chunk {
    AlignedBuffer storage;          // kSlabsPerChunk * slab_stride_ doubles
    std::uint64_t free_mask = ~std::uint64_t{0};  // bit set = slot free
    std::uint64_t used_mask = 0;    // bit set = slot handed out at least once
    std::int32_t next_nonfull = -1;
    bool in_nonfull_list = false;
  };

  double* slab_ptr(Chunk& c, int slot) {
    return c.storage.data() +
           static_cast<std::int64_t>(slot) * slab_stride_;
  }

  void add_chunk() {
    chunks_.emplace_back();
    Chunk& c = chunks_.back();
    c.storage.allocate(
        static_cast<std::size_t>(slab_stride_) * kSlabsPerChunk);
    c.next_nonfull = -1;
    c.in_nonfull_list = true;
    nonfull_head_ = static_cast<std::int32_t>(chunks_.size()) - 1;
    ++stats_.chunks;
  }

  const std::int64_t slab_doubles_;
  const std::int64_t slab_stride_;  // slot-to-slot distance, aligned
  std::vector<Chunk> chunks_;       // chunk table (the two-deref indirection)
  std::int32_t nonfull_head_ = -1;  // head of the non-full chunk list
  Stats stats_;
};

}  // namespace ab
