#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/output.hpp"
#include "support/temp_path.hpp"

namespace ab {
namespace {

TEST(Pgm, WritesCorrectHeaderAndSize) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {2, 2};
  Forest<2> f(cfg);
  f.refine(f.find(0, {0, 0}));
  BlockLayout<2> lay({4, 4}, 1, 1);
  BlockStore<2> store(lay);
  for (int id : f.leaves()) {
    store.ensure(id);
    BlockView<2> v = store.view(id);
    for_each_cell<2>(lay.interior_box(),
                     [&](IVec<2> p) { v.at(0, p) = f.level(id); });
  }
  const std::string path = testing::temp_path("slice.pgm");
  write_pgm_slice(path, f, store, 0);

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  is >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  // Finest level 1, 2x2 roots of 4x4 cells -> 4*4 = 16 pixels per side.
  EXPECT_EQ(w, 16);
  EXPECT_EQ(h, 16);
  EXPECT_EQ(maxval, 255);
  is.get();  // single whitespace after header
  std::string pixels(static_cast<std::size_t>(w) * h, '\0');
  is.read(pixels.data(), w * h);
  EXPECT_TRUE(is.good());
  // Level-1 region (bottom-left quadrant -> bottom rows of the image) is
  // bright (value 1 = max), level-0 dark (0 = min).
  // PGM row 0 is the TOP of the domain: level 0 there.
  EXPECT_EQ(static_cast<unsigned char>(pixels[0]), 0);
  // Bottom-left pixel: last row, first column -> level 1.
  EXPECT_EQ(static_cast<unsigned char>(pixels[(h - 1) * w]), 255);
  // Bottom-right: level 0.
  EXPECT_EQ(static_cast<unsigned char>(pixels[(h - 1) * w + (w - 1)]), 0);
  std::remove(path.c_str());
}

TEST(Pgm, ConstantFieldDoesNotDivideByZero) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {1, 1};
  Forest<2> f(cfg);
  BlockLayout<2> lay({4, 4}, 1, 2);
  BlockStore<2> store(lay);
  store.ensure(f.leaves()[0]);
  const std::string path = testing::temp_path("const.pgm");
  write_pgm_slice(path, f, store, 1);
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  std::remove(path.c_str());
}

TEST(Pgm, RejectsBadVariable) {
  Forest<2>::Config cfg;
  cfg.root_blocks = {1, 1};
  Forest<2> f(cfg);
  BlockStore<2> store(BlockLayout<2>({4, 4}, 1, 1));
  store.ensure(f.leaves()[0]);
  EXPECT_THROW(write_pgm_slice(testing::temp_path("x.pgm"), f, store, 3), Error);
}

}  // namespace
}  // namespace ab
