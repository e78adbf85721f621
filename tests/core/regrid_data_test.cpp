#include "core/regrid_data.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "support/ghost_reference.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

struct Fixture {
  Forest<2>::Config cfg;
  Forest<2> forest;
  BlockLayout<2> lay;
  BlockStore<2> store;

  Fixture()
      : cfg(make_cfg()), forest(cfg), lay({4, 4}, 2, 2), store(lay) {
    for (int id : forest.leaves()) store.ensure(id);
  }
  static Forest<2>::Config make_cfg() {
    Forest<2>::Config c;
    c.root_blocks = {1, 1};
    c.max_level = 4;
    return c;
  }

  void fill(int id, const std::function<double(RVec<2>, int)>& f) {
    BlockView<2> v = store.view(id);
    RVec<2> lo = forest.block_lo(id);
    RVec<2> dx = forest.block_size(forest.level(id));
    for (int d = 0; d < 2; ++d) dx[d] /= lay.interior[d];
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      RVec<2> x{lo[0] + (p[0] + 0.5) * dx[0], lo[1] + (p[1] + 0.5) * dx[1]};
      for (int var = 0; var < lay.nvar; ++var) v.at(var, p) = f(x, var);
    });
  }

  double integral(int id, int var) const {
    RVec<2> dx = forest.block_size(forest.level(id));
    for (int d = 0; d < 2; ++d) dx[d] /= lay.interior[d];
    double s = 0.0;
    ConstBlockView<2> v = store.view(id);
    for_each_cell<2>(lay.interior_box(),
                     [&](IVec<2> p) { s += v.at(var, p); });
    return s * dx[0] * dx[1];
  }
};

TEST(RegridData, ProlongConservesIntegralConstant) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  fx.fill(root, [](RVec<2>, int var) { return 4.0 + var; });
  const double before = fx.integral(root, 0);
  auto events = fx.forest.refine(root);
  ASSERT_EQ(events.size(), 1u);
  prolong_to_children<2>(fx.store, events[0], Prolongation::Constant);
  EXPECT_FALSE(fx.store.has(root));
  double after = 0.0;
  for (int c : events[0].children) {
    ASSERT_TRUE(fx.store.has(c));
    after += fx.integral(c, 0);
  }
  EXPECT_NEAR(after, before, 1e-14);
  // Constant field stays exactly constant on children.
  for (int c : events[0].children) {
    ConstBlockView<2> v = std::as_const(fx.store).view(c);
    for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
      EXPECT_EQ(v.at(0, p), 4.0);
      EXPECT_EQ(v.at(1, p), 5.0);
    });
  }
}

TEST(RegridData, LimitedLinearProlongConservesIntegral) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  fx.fill(root, [](RVec<2> x, int) {
    return std::sin(3.0 * x[0]) + x[1] * x[1];
  });
  const double before = fx.integral(root, 0);
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::LimitedLinear);
  double after = 0.0;
  for (int c : events[0].children) after += fx.integral(c, 0);
  EXPECT_NEAR(after, before, 1e-13);
}

TEST(RegridData, LimitedLinearProlongExactForLinear) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto fn = [](RVec<2> x, int) { return 2.0 * x[0] - 3.0 * x[1] + 0.5; };
  fx.fill(root, fn);
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::LimitedLinear);
  // Interior fine cells (slope stencil unclamped) reproduce the linear
  // function exactly: parent cells 1..m-2 in each dim.
  for (int c : events[0].children) {
    ConstBlockView<2> v = std::as_const(fx.store).view(c);
    RVec<2> lo = fx.forest.block_lo(c);
    RVec<2> dx = fx.forest.block_size(fx.forest.level(c));
    dx[0] /= 4;
    dx[1] /= 4;
    const int ci = fx.forest.child_index(c);
    for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
      // Parent cell of this fine cell.
      bool clamped = false;
      for (int d = 0; d < 2; ++d) {
        const int gf = p[d] + ((ci >> d) & 1) * 4;
        const int cc = gf >> 1;
        if (cc == 0 || cc == 3) clamped = true;
      }
      if (clamped) return;
      RVec<2> x{lo[0] + (p[0] + 0.5) * dx[0], lo[1] + (p[1] + 0.5) * dx[1]};
      EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-13);
    });
  }
}

TEST(RegridData, RestrictToParentIsExactInverseOfConstantProlong) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto fn = [](RVec<2> x, int var) {
    return std::cos(2.0 * x[0]) * (1.0 + x[1]) + var;
  };
  fx.fill(root, fn);
  std::vector<double> original(16 * 2);
  {
    ConstBlockView<2> v = std::as_const(fx.store).view(root);
    int k = 0;
    for (int var = 0; var < 2; ++var)
      for_each_cell<2>(fx.lay.interior_box(),
                       [&](IVec<2> p) { original[k++] = v.at(var, p); });
  }
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::Constant);
  restrict_to_parent<2>(fx.store, root, events[0].children);
  // Children released, parent restored bit-for-bit (average of 4 equal
  // copies of the parent value).
  for (int c : events[0].children) EXPECT_FALSE(fx.store.has(c));
  ConstBlockView<2> v = std::as_const(fx.store).view(root);
  int k = 0;
  for (int var = 0; var < 2; ++var)
    for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
      EXPECT_DOUBLE_EQ(v.at(var, p), original[k++]);
    });
}

TEST(RegridData, RestrictConservesIntegral) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto events = fx.forest.refine(root);
  // Fill children directly with a non-trivial field.
  double before = 0.0;
  for (int c : events[0].children) {
    fx.store.ensure(c);
    fx.fill(c, [](RVec<2> x, int) { return x[0] * x[0] + 3.0 * x[1]; });
    before += fx.integral(c, 0);
  }
  restrict_to_parent<2>(fx.store, root, events[0].children);
  EXPECT_NEAR(fx.integral(root, 0), before, 1e-14);
}

TEST(RegridData, RoundTripLimitedLinearPreservesLinearExactly) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto fn = [](RVec<2> x, int) { return 7.0 * x[0] + 2.0 * x[1]; };
  fx.fill(root, fn);
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::LimitedLinear);
  restrict_to_parent<2>(fx.store, root, events[0].children);
  // restrict(prolong(u)) == u for ANY prolongation that conserves each
  // coarse cell's total — including at clamped stencils.
  ConstBlockView<2> v = std::as_const(fx.store).view(root);
  RVec<2> dx{0.25, 0.25};
  for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
    RVec<2> x{(p[0] + 0.5) * dx[0], (p[1] + 0.5) * dx[1]};
    EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-13);
  });
}

TEST(RegridData, RejectsOddExtents) {
  Forest<2>::Config c;
  c.root_blocks = {1, 1};
  Forest<2> f(c);
  BlockLayout<2> lay({6, 3}, 1, 1);  // odd in y
  BlockStore<2> store(lay);
  int root = f.leaves()[0];
  store.ensure(root);
  auto events = f.refine(root);
  EXPECT_THROW(
      prolong_to_children<2>(store, events[0], Prolongation::Constant),
      Error);
}

TEST(RegridData, ProlongRequiresParentData) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  fx.store.release(root);
  auto events = fx.forest.refine(root);
  EXPECT_THROW(
      prolong_to_children<2>(fx.store, events[0], Prolongation::Constant),
      Error);
}

// -------------------------------------------------------------------
// Row executor vs per-cell oracle: prolong_to_children and
// restrict_to_parent must write exactly the bytes of the per-cell
// operators (tests/support/ghost_reference.hpp) into the target interiors
// and nothing else, in every dimension, with and without dim-0 padding,
// for every Prolongation.

/// Random values over a block's whole allocation (ghosts included, so a
/// read outside the interior would show), with slopes of both signs.
template <int D>
void seed_random(const BlockLayout<D>& lay, double* base,
                 ab::testing::SplitMix64& rng) {
  for (std::int64_t i = 0; i < lay.block_doubles(); ++i)
    base[i] = rng.uniform(-2.0, 2.0);
}

std::vector<double> copy_block(const double* base, std::int64_t n) {
  return std::vector<double>(base, base + n);
}

/// minmod's arms over a parent interior: [zero, positive, negative] counts
/// of the one-sided difference pairs whose stencil stays in the interior.
template <int D>
void count_minmod_arms(const BlockLayout<D>& lay, const double* parent,
                       std::int64_t arms[3]) {
  ConstBlockView<D> p{parent, &lay};
  for (int v = 0; v < lay.nvar; ++v)
    for_each_cell<D>(lay.interior_box(), [&](IVec<D> c) {
      for (int d = 0; d < D; ++d) {
        if (c[d] - 1 < 0 || c[d] + 1 >= lay.interior[d]) continue;
        IVec<D> lo = c, hi = c;
        lo[d] -= 1;
        hi[d] += 1;
        const double a = p.at(v, hi) - p.at(v, c);
        const double b = p.at(v, c) - p.at(v, lo);
        ++arms[a * b <= 0.0 ? 0 : (a > 0 ? 1 : 2)];
      }
    });
}

template <int D>
void check_regrid_matches_oracle(IVec<D> m, int pad0, std::uint64_t seed) {
  typename Forest<D>::Config cfg;
  cfg.max_level = 1;
  const BlockLayout<D> lay(m, 2, 2, pad0);
  const std::int64_t n = lay.block_doubles();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  std::int64_t arms[3] = {0, 0, 0};
  for (Prolongation kind : {Prolongation::Constant, Prolongation::Linear,
                            Prolongation::LimitedLinear}) {
    SCOPED_TRACE(::testing::Message() << "D=" << D << " pad0=" << pad0
                                    << " prolongation "
                                    << static_cast<int>(kind));
    ab::testing::SplitMix64 rng(seed);
    Forest<D> forest(cfg);
    BlockStore<D> store(lay);
    const int root = forest.leaves()[0];
    store.ensure(root);
    seed_random<D>(lay, store.view(root).base, rng);
    const std::vector<double> parent = copy_block(store.view(root).base, n);
    if (kind == Prolongation::LimitedLinear)
      count_minmod_arms<D>(lay, parent.data(), arms);
    const auto ev = forest.refine(root)[0];
    // Pre-seed the children so bytes outside their interiors are known.
    std::vector<std::vector<double>> expect;
    for (int ci = 0; ci < Forest<D>::kNumChildren; ++ci) {
      store.ensure(ev.children[ci]);
      double* c = store.view(ev.children[ci]).base;
      seed_random<D>(lay, c, rng);
      expect.push_back(copy_block(c, n));
      // The per-cell oracle: child cell q is fine cell q + off of the
      // parent region, in coarse cell (q + off) >> 1.
      BlockView<D> want{expect.back().data(), &lay};
      ConstBlockView<D> pv{parent.data(), &lay};
      for (int v = 0; v < lay.nvar; ++v)
        for_each_cell<D>(lay.interior_box(), [&](IVec<D> q) {
          IVec<D> cc, parity;
          for (int d = 0; d < D; ++d) {
            const int gf = q[d] + ((ci >> d) & 1) * m[d];
            cc[d] = gf >> 1;
            parity[d] = gf & 1;
          }
          want.at(v, q) = ab::testing::prolong_value<D>(
              pv, v, cc, parity, lay.interior_box(), kind);
        });
    }
    prolong_to_children<D>(store, ev, kind);
    ASSERT_FALSE(store.has(root));
    for (int ci = 0; ci < Forest<D>::kNumChildren; ++ci)
      ASSERT_EQ(0, std::memcmp(store.view(ev.children[ci]).base,
                               expect[ci].data(), bytes))
          << "child " << ci;

    // Coarsen back from fresh random children: parent cell p averages the
    // child's fine cells from corner 2p - o*m.
    std::vector<std::vector<double>> kids;
    for (int ci = 0; ci < Forest<D>::kNumChildren; ++ci) {
      double* c = store.view(ev.children[ci]).base;
      seed_random<D>(lay, c, rng);
      kids.push_back(copy_block(c, n));
    }
    store.ensure(root);
    seed_random<D>(lay, store.view(root).base, rng);
    std::vector<double> want = copy_block(store.view(root).base, n);
    BlockView<D> wv{want.data(), &lay};
    for (int ci = 0; ci < Forest<D>::kNumChildren; ++ci) {
      ConstBlockView<D> kv{kids[ci].data(), &lay};
      Box<D> sub;
      for (int d = 0; d < D; ++d) {
        const int o = (ci >> d) & 1;
        sub.lo[d] = o * (m[d] / 2);
        sub.hi[d] = (o + 1) * (m[d] / 2);
      }
      for (int v = 0; v < lay.nvar; ++v)
        for_each_cell<D>(sub, [&](IVec<D> p) {
          IVec<D> corner;
          for (int d = 0; d < D; ++d)
            corner[d] = 2 * p[d] - ((ci >> d) & 1) * m[d];
          wv.at(v, p) = ab::testing::restrict_value<D>(kv, v, corner);
        });
    }
    restrict_to_parent<D>(store, root, ev.children);
    for (int c : ev.children) ASSERT_FALSE(store.has(c));
    ASSERT_EQ(0, std::memcmp(store.view(root).base, want.data(), bytes));
  }
  // The limited slopes took minmod's zero arm and both signed arms.
  EXPECT_GT(arms[0], 0);
  EXPECT_GT(arms[1], 0);
  EXPECT_GT(arms[2], 0);
}

TEST(RegridData, RowTransferMatchesPerCellOracle1D) {
  for (int pad0 : {0, 1})
    check_regrid_matches_oracle<1>(IVec<1>(8), pad0, 11);
}

TEST(RegridData, RowTransferMatchesPerCellOracle2D) {
  for (int pad0 : {0, 1})
    check_regrid_matches_oracle<2>(IVec<2>{8, 6}, pad0, 12);
}

TEST(RegridData, RowTransferMatchesPerCellOracle3D) {
  for (int pad0 : {0, 1})
    check_regrid_matches_oracle<3>(IVec<3>{6, 4, 4}, pad0, 13);
}

}  // namespace
}  // namespace ab
