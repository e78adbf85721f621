#include "core/block_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

namespace ab {
namespace {

TEST(BlockLayout, ExtentsAndStrides) {
  BlockLayout<2> lay({4, 6}, 2, 3);
  EXPECT_EQ(lay.alloc_extent(), (IVec<2>{8, 10}));
  EXPECT_EQ(lay.stride(0), 1);
  EXPECT_EQ(lay.stride(1), 8);
  EXPECT_EQ(lay.field_stride(), 80);
  EXPECT_EQ(lay.block_doubles(), 240);
  EXPECT_EQ(lay.interior_cells(), 24);
}

TEST(BlockLayout, PaddingExtendsDim0Only) {
  BlockLayout<3> lay({4, 4, 4}, 1, 1, /*pad=*/2);
  EXPECT_EQ(lay.alloc_extent(), (IVec<3>{8, 6, 6}));
  EXPECT_EQ(lay.stride(1), 8);
  EXPECT_EQ(lay.stride(2), 48);
}

TEST(BlockLayout, OffsetsCoverAllCellsUniquely) {
  BlockLayout<2> lay({4, 4}, 1, 1);
  std::set<std::int64_t> seen;
  for_each_cell<2>(lay.ghosted_box(),
                   [&](IVec<2> p) { seen.insert(lay.offset(p)); });
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()),
            lay.ghosted_box().volume());
  for (auto off : seen) {
    EXPECT_GE(off, 0);
    EXPECT_LT(off, lay.field_stride());
  }
}

TEST(BlockLayout, OffsetDim0IsStride1) {
  BlockLayout<3> lay({4, 4, 4}, 2, 1);
  IVec<3> p{0, 1, 2};
  IVec<3> q{1, 1, 2};
  EXPECT_EQ(lay.offset(q) - lay.offset(p), 1);
}

TEST(BlockLayout, Boxes) {
  BlockLayout<2> lay({4, 6}, 2, 1);
  EXPECT_EQ(lay.interior_box(), (Box<2>({0, 0}, {4, 6})));
  EXPECT_EQ(lay.ghosted_box(), (Box<2>({-2, -2}, {6, 8})));
}

TEST(BlockLayout, RejectsBadParameters) {
  EXPECT_THROW((BlockLayout<2>({0, 4}, 1, 1)), Error);
  EXPECT_THROW((BlockLayout<2>({4, 4}, -1, 1)), Error);
  EXPECT_THROW((BlockLayout<2>({4, 4}, 1, 0)), Error);
  // Ghost wider than interior is rejected.
  EXPECT_THROW((BlockLayout<2>({2, 8}, 3, 1)), Error);
}

TEST(BlockStore, EnsureReleaseLifecycle) {
  BlockStore<2> s(BlockLayout<2>({4, 4}, 1, 2));
  EXPECT_FALSE(s.has(0));
  s.ensure(3);
  EXPECT_TRUE(s.has(3));
  EXPECT_FALSE(s.has(2));
  EXPECT_EQ(s.num_allocated(), 1);
  s.release(3);
  EXPECT_FALSE(s.has(3));
  EXPECT_EQ(s.num_allocated(), 0);
  // Releasing an unknown id is a no-op.
  s.release(99);
}

TEST(BlockStore, DataIsZeroInitialized) {
  BlockStore<2> s(BlockLayout<2>({2, 2}, 1, 1));
  s.ensure(0);
  ConstBlockView<2> v = std::as_const(s).view(0);
  for_each_cell<2>(s.layout().ghosted_box(),
                   [&](IVec<2> p) { EXPECT_EQ(v.at(0, p), 0.0); });
}

TEST(BlockStore, ViewReadWriteRoundTrip) {
  BlockStore<2> s(BlockLayout<2>({4, 4}, 1, 3));
  s.ensure(5);
  BlockView<2> v = s.view(5);
  for (int var = 0; var < 3; ++var)
    for_each_cell<2>(s.layout().ghosted_box(), [&](IVec<2> p) {
      v.at(var, p) = 100.0 * var + 10.0 * p[0] + p[1];
    });
  ConstBlockView<2> c = std::as_const(s).view(5);
  for (int var = 0; var < 3; ++var)
    for_each_cell<2>(s.layout().ghosted_box(), [&](IVec<2> p) {
      EXPECT_EQ(c.at(var, p), 100.0 * var + 10.0 * p[0] + p[1]);
    });
}

TEST(BlockStore, FieldsAreContiguousAndDisjoint) {
  BlockLayout<2> lay({4, 4}, 1, 2);
  BlockStore<2> s(lay);
  s.ensure(0);
  BlockView<2> v = s.view(0);
  EXPECT_EQ(v.field(1) - v.field(0), lay.field_stride());
  v.at(0, {0, 0}) = 1.0;
  v.at(1, {0, 0}) = 2.0;
  EXPECT_EQ(v.at(0, {0, 0}), 1.0);
}

TEST(BlockStore, TotalDoubles) {
  BlockLayout<2> lay({4, 4}, 1, 1);
  BlockStore<2> s(lay);
  s.ensure(0);
  s.ensure(1);
  EXPECT_EQ(s.total_doubles(), 2 * lay.block_doubles());
}

TEST(BlockStore, EnsureIsIdempotent) {
  BlockStore<2> s(BlockLayout<2>({2, 2}, 1, 1));
  s.ensure(0);
  s.view(0).at(0, {0, 0}) = 7.0;
  s.ensure(0);  // must not wipe
  EXPECT_EQ(s.view(0).at(0, {0, 0}), 7.0);
}

}  // namespace
}  // namespace ab

namespace ab {
namespace {

TEST(BlockStore, SwapBlockExchangesBuffers) {
  BlockLayout<2> lay({4, 4}, 1, 1);
  BlockStore<2> a(lay), b(lay, a.pool());  // swapping stores share a pool
  a.ensure(2);
  b.ensure(2);
  a.view(2).at(0, {1, 1}) = 5.0;
  b.view(2).at(0, {1, 1}) = -3.0;
  const double* pa = a.view(2).base;
  const double* pb = b.view(2).base;
  a.swap_block(b, 2);
  EXPECT_EQ(a.view(2).base, pb);  // O(1) pointer swap, no copy
  EXPECT_EQ(b.view(2).base, pa);
  EXPECT_EQ(a.view(2).at(0, {1, 1}), -3.0);
  EXPECT_EQ(b.view(2).at(0, {1, 1}), 5.0);
}

TEST(BlockStore, SwapBlockRejectsMismatch) {
  BlockStore<2> a(BlockLayout<2>({4, 4}, 1, 1));
  BlockStore<2> b(BlockLayout<2>({4, 4}, 2, 1));
  a.ensure(0);
  b.ensure(0);
  EXPECT_THROW(a.swap_block(b, 0), Error);
  BlockStore<2> c(BlockLayout<2>({4, 4}, 1, 1), a.pool());
  EXPECT_THROW(a.swap_block(c, 0), Error);  // c has no data
  BlockStore<2> d(BlockLayout<2>({4, 4}, 1, 1));
  d.ensure(0);
  EXPECT_THROW(a.swap_block(d, 0), Error);  // d has a pool of its own
}

// The interior codec: variables outer, cells in for_each_cell order, no
// ghosts, through a buffer with no alignment; unpack leaves ghosts alone.
TEST(BlockStore, InteriorCodecRoundTripsThroughUnalignedBuffer) {
  BlockLayout<3> lay({4, 2, 2}, 1, 2, /*pad=*/1);
  BlockStore<3> a(lay), b(lay, a.pool());
  a.ensure(0);
  b.ensure(0);
  BlockView<3> va = a.view(0);
  for_each_cell<3>(lay.ghosted_box(), [&](IVec<3> p) {
    for (int v = 0; v < 2; ++v)
      va.at(v, p) = 100.0 * v + 16 * p[2] + 4 * p[1] + p[0];
  });
  const std::int64_t n = interior_doubles(lay);
  ASSERT_EQ(n, 32);
  std::vector<char> image(static_cast<std::size_t>(n) * sizeof(double) + 1);
  pack_interior<3>(a.view(0), image.data() + 1);
  std::int64_t k = 0;
  for (int v = 0; v < 2; ++v)
    for_each_cell<3>(lay.interior_box(), [&](IVec<3> p) {
      double got;
      std::memcpy(&got, image.data() + 1 + k++ * sizeof(double),
                  sizeof got);
      EXPECT_EQ(got, va.at(v, p));
    });
  BlockView<3> vb = b.view(0);
  vb.at(1, IVec<3>{-1, 0, 0}) = -7.0;  // a ghost the codec must not touch
  unpack_interior<3>(image.data() + 1, vb);
  for_each_cell<3>(lay.interior_box(), [&](IVec<3> p) {
    for (int v = 0; v < 2; ++v) EXPECT_EQ(vb.at(v, p), va.at(v, p));
  });
  EXPECT_EQ(vb.at(1, IVec<3>{-1, 0, 0}), -7.0);
}

}  // namespace
}  // namespace ab
