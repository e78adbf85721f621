#include "io/output.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ab {
namespace {

struct Fixture {
  Forest<2>::Config cfg;
  Forest<2> forest;
  BlockLayout<2> lay;
  BlockStore<2> store;

  Fixture() : cfg(make_cfg()), forest(cfg), lay({4, 4}, 1, 2), store(lay) {
    forest.refine(forest.find(0, {1, 1}));
    for (int id : forest.leaves()) {
      store.ensure(id);
      BlockView<2> v = store.view(id);
      for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
        v.at(0, p) = id + 0.25;
        v.at(1, p) = p[0];
      });
    }
  }
  static Forest<2>::Config make_cfg() {
    Forest<2>::Config c;
    c.root_blocks = {2, 2};
    return c;
  }
};

int count_lines(const std::string& path) {
  std::ifstream is(path);
  int n = 0;
  std::string line;
  while (std::getline(is, line)) ++n;
  return n;
}

TEST(Output, CsvHasHeaderAndOneRowPerCell) {
  Fixture fx;
  const std::string path = testing::temp_path("cells.csv");
  write_cells_csv<2>(path, fx.forest, fx.store, {"rho", "u"});
  // 7 blocks * 16 cells + header.
  EXPECT_EQ(count_lines(path), 7 * 16 + 1);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "x0,x1,level,block,rho,u");
  std::remove(path.c_str());
}

TEST(Output, CsvRejectsNameMismatch) {
  Fixture fx;
  EXPECT_THROW(
      write_cells_csv<2>(testing::temp_path("x.csv"), fx.forest, fx.store,
                         {"rho"}),
      Error);
}

TEST(Output, VtkWritesMasterAndBlockFiles) {
  Fixture fx;
  const std::string prefix = testing::temp_path("vtk");
  write_vtk_blocks<2>(prefix, fx.forest, fx.store, {"rho", "u"});
  std::ifstream master(prefix + ".visit");
  ASSERT_TRUE(master.good());
  std::string first;
  std::getline(master, first);
  EXPECT_EQ(first, "!NBLOCKS 7");
  int blocks = 0;
  std::string name;
  while (std::getline(master, name)) {
    std::ifstream blk(name);
    EXPECT_TRUE(blk.good()) << name;
    std::string l1;
    std::getline(blk, l1);
    EXPECT_EQ(l1, "# vtk DataFile Version 3.0");
    ++blocks;
    std::remove(name.c_str());
  }
  EXPECT_EQ(blocks, 7);
  std::remove((prefix + ".visit").c_str());
}

TEST(Output, AsciiLevelsRendersRefinementDigits) {
  Fixture fx;
  const std::string img = ascii_render_levels(fx.forest);
  // Finest level 1 -> 4x4 character grid (+ newlines).
  std::istringstream is(img);
  std::vector<std::string> rows;
  std::string row;
  while (std::getline(is, row)) rows.push_back(row);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) EXPECT_EQ(r.size(), 4u);
  // Top-right quadrant (refined root (1,1)) shows '1's; rest '0'.
  EXPECT_EQ(rows[0].substr(2, 2), "11");
  EXPECT_EQ(rows[1].substr(2, 2), "11");
  EXPECT_EQ(rows[2], "0000");
  EXPECT_EQ(rows[3], "0000");
}

TEST(Output, AsciiBlocksDrawsBorders) {
  Fixture fx;
  const std::string img = ascii_render_blocks(fx.forest);
  EXPECT_NE(img.find('+'), std::string::npos);
  EXPECT_NE(img.find('-'), std::string::npos);
  EXPECT_NE(img.find('|'), std::string::npos);
  // Unrefined: a coarser picture with fewer '+' corners.
  Forest<2> plain(Fixture::make_cfg());
  const std::string img2 = ascii_render_blocks(plain);
  auto count = [](const std::string& s, char c) {
    return std::count(s.begin(), s.end(), c);
  };
  EXPECT_GT(count(img, '+'), count(img2, '+'));
}

}  // namespace
}  // namespace ab
