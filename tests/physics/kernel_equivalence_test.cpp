// The pencil-vectorized kernel (kernel.hpp) must produce BITWISE identical
// output to the retained scalar reference (kernel_reference.hpp) — same
// arithmetic on the same values in the same per-cell order — across every
// physics, spatial order, limiter, and flux scheme, including face-flux
// recording, sub-box tiling, and execution through the threaded AMR driver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "amr/solver.hpp"
#include "core/block_store.hpp"
#include "core/face_flux.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/kernel_reference.hpp"
#include "physics/mhd.hpp"
#include "util/aligned.hpp"

namespace ab {
namespace {

constexpr LimiterKind kLimiters[] = {LimiterKind::None, LimiterKind::MinMod,
                                     LimiterKind::VanLeer, LimiterKind::MC};
constexpr SpatialOrder kOrders[] = {SpatialOrder::First, SpatialOrder::Second};

/// Fill every ghosted cell of `base` from a smooth state function of the
/// (possibly negative) cell index, so slopes, limiter branches, and both
/// signs of the wave speeds are all exercised.
template <int D, class Phys, class F>
void fill_block(const BlockLayout<D>& lay, double* base, const F& state_of) {
  const std::int64_t fs = lay.field_stride();
  for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) {
    const typename Phys::State u = state_of(p);
    const std::int64_t off = lay.offset(p);
    for (int v = 0; v < Phys::NVAR; ++v) base[v * fs + off] = u[v];
  });
}

template <int D, class Phys, class F>
void expect_bitwise_equal(const Phys& phys, const F& state_of,
                          SpatialOrder order, LimiterKind lim,
                          FluxScheme scheme, int m = 8) {
  BlockLayout<D> lay(IVec<D>(m), 2, Phys::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer uin(nd), pencil(nd), reference(nd);
  fill_block<D, Phys>(lay, uin.data(), state_of);
  std::memset(pencil.data(), 0, nd * sizeof(double));
  std::memset(reference.data(), 0, nd * sizeof(double));
  const RVec<D> dx(0.01);
  const double dt = 1e-4;
  const std::uint64_t fa = fv_block_update<D, Phys>(
      lay, uin.data(), pencil.data(), phys, dx, dt, order, lim, scheme);
  const std::uint64_t fb = fv_block_update_reference<D, Phys>(
      lay, uin.data(), reference.data(), phys, dx, dt, order, lim, scheme);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(0, std::memcmp(pencil.data(), reference.data(),
                           nd * sizeof(double)))
      << "order=" << static_cast<int>(order)
      << " limiter=" << static_cast<int>(lim)
      << " scheme=" << static_cast<int>(scheme);
}

TEST(KernelEquivalence, Advection3DAllLimitersAndSchemes) {
  LinearAdvection<3> phys;
  phys.velocity = {1.0, 0.5, -0.2};
  auto state_of = [](IVec<3> p) {
    LinearAdvection<3>::State u;
    u[0] = 1.0 + 0.4 * std::sin(0.3 * p[0] + 0.5 * p[1] - 0.2 * p[2]);
    return u;
  };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters)
      for (FluxScheme scheme : {FluxScheme::Rusanov, FluxScheme::Hll})
        expect_bitwise_equal<3>(phys, state_of, order, lim, scheme);
}

template <int D>
typename Euler<D>::State smooth_euler(const Euler<D>& phys, IVec<D> p) {
  double phase = 0.0;
  for (int d = 0; d < D; ++d) phase += 0.3 * (d + 1) * p[d];
  RVec<D> v;
  for (int d = 0; d < D; ++d) v[d] = 0.3 * std::cos(phase + d);
  return phys.from_primitive(1.0 + 0.3 * std::sin(phase), v,
                             1.0 + 0.2 * std::cos(0.7 * phase));
}

// m = 8 is the default block: even rows throughout except the dim-0 flux
// rows (nf0 = 9), which end on a one-face tail in the two-lane row forms.
// At m = 9 the transverse flux and slope rows get the odd tail instead.
TEST(KernelEquivalence, Euler3DAllLimitersAndSchemes) {
  Euler<3> phys;
  auto state_of = [&](IVec<3> p) { return smooth_euler<3>(phys, p); };
  for (int m : {8, 9})
    for (SpatialOrder order : kOrders)
      for (LimiterKind lim : kLimiters)
        for (FluxScheme scheme :
             {FluxScheme::Rusanov, FluxScheme::Hll, FluxScheme::Roe})
          expect_bitwise_equal<3>(phys, state_of, order, lim, scheme, m);
}

TEST(KernelEquivalence, Mhd3DAllLimitersAndSchemes) {
  IdealMhd<3> phys;
  auto state_of = [&](IVec<3> p) {
    const double phase = 0.3 * p[0] + 0.45 * p[1] - 0.25 * p[2];
    return phys.from_primitive(
        1.0 + 0.25 * std::sin(phase),
        {0.3 * std::cos(phase), -0.2 * std::sin(2 * phase), 0.1},
        {0.2, 0.3 + 0.1 * std::cos(phase), 0.1},
        1.0 + 0.2 * std::cos(0.7 * phase));
  };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters)
      for (FluxScheme scheme :
           {FluxScheme::Rusanov, FluxScheme::Hll, FluxScheme::Hlld})
        expect_bitwise_equal<3>(phys, state_of, order, lim, scheme);
}

// The 2D HLLD path ot2d_mhd runs: at m = 8 (its block shape) a dim-0 row
// has nf0 = 9 faces, so the two-lane row form ends on a one-face tail; at
// m = 9 the dim-0 rows are even (nf0 = 10) and the transverse rows odd.
template <int D>
typename IdealMhd<D>::State smooth_mhd(const IdealMhd<D>& phys, IVec<D> p) {
  const double phase = 0.35 * p[0] + 0.5 * p[1];
  return phys.from_primitive(
      1.0 + 0.3 * std::sin(phase),
      {0.9 * std::cos(phase), -0.7 * std::sin(1.3 * phase), 0.1},
      {0.3 + 0.3 * std::sin(0.8 * phase), 0.4 * std::cos(phase), 0.05},
      0.8 + 0.3 * std::cos(0.7 * phase));
}

TEST(KernelEquivalence, Mhd2DHlldAllLimiters) {
  IdealMhd<2> phys;
  auto state_of = [&](IVec<2> p) { return smooth_mhd<2>(phys, p); };
  for (int m : {8, 9})
    for (SpatialOrder order : kOrders)
      for (LimiterKind lim : kLimiters)
        expect_bitwise_equal<2>(phys, state_of, order, lim, FluxScheme::Hlld,
                                m);
}

TEST(KernelEquivalence, LowerDimensions) {
  Euler<1> phys1;
  auto s1 = [&](IVec<1> p) { return smooth_euler<1>(phys1, p); };
  Euler<2> phys2;
  auto s2 = [&](IVec<2> p) { return smooth_euler<2>(phys2, p); };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters) {
      expect_bitwise_equal<1>(phys1, s1, order, lim, FluxScheme::Hll, 16);
      expect_bitwise_equal<1>(phys1, s1, order, lim, FluxScheme::Rusanov, 16);
      expect_bitwise_equal<2>(phys2, s2, order, lim, FluxScheme::Rusanov, 10);
      // The rank_p8_churn block.
      expect_bitwise_equal<2>(phys2, s2, order, lim, FluxScheme::Rusanov, 8);
    }
}

template <int D, class Phys, class F>
void expect_face_fluxes_equal(const Phys& phys, const F& state_of,
                              FluxScheme scheme) {
  BlockLayout<D> lay(IVec<D>(8), 2, Phys::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer uin(nd), pencil(nd), reference(nd);
  fill_block<D, Phys>(lay, uin.data(), state_of);
  const RVec<D> dx(0.01);
  for (SpatialOrder order : kOrders) {
    FaceFluxStorage<D> ffa, ffb;
    ffa.allocate(lay);
    ffb.allocate(lay);
    fv_block_update<D, Phys>(lay, uin.data(), pencil.data(), phys, dx, 1e-4,
                             order, LimiterKind::VanLeer, scheme, &ffa);
    fv_block_update_reference<D, Phys>(lay, uin.data(), reference.data(),
                                       phys, dx, 1e-4, order,
                                       LimiterKind::VanLeer, scheme, &ffb);
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side)
        for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
          for (int v = 0; v < Phys::NVAR; ++v)
            ASSERT_EQ(ffa.at(dim, side, p, v), ffb.at(dim, side, p, v))
                << "dim=" << dim << " side=" << side;
        });
  }
}

TEST(KernelEquivalence, FaceFluxRecording) {
  Euler<3> euler;
  expect_face_fluxes_equal<3>(
      euler, [&](IVec<3> p) { return smooth_euler<3>(euler, p); },
      FluxScheme::Hll);
  // ot2d_mhd records its HLLD face fluxes for flux correction.
  IdealMhd<2> mhd;
  expect_face_fluxes_equal<2>(
      mhd, [&](IVec<2> p) { return smooth_mhd<2>(mhd, p); },
      FluxScheme::Hlld);
}

TEST(KernelEquivalence, SubBoxTilingMatchesFullUpdate) {
  Euler<3> phys;
  BlockLayout<3> lay(IVec<3>(8), 2, Euler<3>::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer uin(nd), tiled(nd), reference(nd);
  fill_block<3, Euler<3>>(lay, uin.data(),
                          [&](IVec<3> p) { return smooth_euler<3>(phys, p); });
  std::memset(tiled.data(), 0, nd * sizeof(double));
  std::memset(reference.data(), 0, nd * sizeof(double));
  const RVec<3> dx(0.01);
  // Tile the interior into 2x2x2 sub-boxes of 4^3 and update each through
  // the pencil path; the union must equal the reference full-block update.
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 2; ++i) {
        Box<3> sub{{4 * i, 4 * j, 4 * k}, {4 * i + 4, 4 * j + 4, 4 * k + 4}};
        fv_block_update<3, Euler<3>>(lay, uin.data(), tiled.data(), phys, dx,
                                     1e-4, SpatialOrder::Second,
                                     LimiterKind::VanLeer, FluxScheme::Rusanov,
                                     nullptr, &sub);
      }
  fv_block_update_reference<3, Euler<3>>(lay, uin.data(), reference.data(),
                                         phys, dx, 1e-4, SpatialOrder::Second,
                                         LimiterKind::VanLeer,
                                         FluxScheme::Rusanov);
  EXPECT_EQ(0, std::memcmp(tiled.data(), reference.data(),
                           nd * sizeof(double)));
}

// The threaded driver (pencil path, one scratch arena per pool thread) must
// reproduce the reference kernel exactly: snapshot the ghost-filled state,
// step the solver with num_threads > 1, and check every block against a
// serial reference update of the snapshot.
TEST(KernelEquivalence, ThreadedSolverMatchesReferenceKernel) {
  Euler<2> phys;
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.cells_per_block = {8, 8};
  cfg.rk_stages = 1;
  cfg.num_threads = 3;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  solver.init([&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0 + 0.5 * std::exp(-40 * (dx * dx + dy * dy)),
                            {0.3, -0.2}, 1.0);
  });
  const BlockLayout<2>& lay = solver.store().layout();
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  const double dt = 1e-3;

  solver.fill_ghosts();
  std::vector<int> leaves = solver.forest().leaves();
  std::vector<std::vector<double>> expected;
  const RVec<2> dx = solver.cell_dx(0);
  for (int id : leaves) {
    const double* in = solver.store().view(id).base;
    std::vector<double> out(nd, 0.0);
    fv_block_update_reference<2, Euler<2>>(lay, in, out.data(), phys, dx, dt,
                                           cfg.order, cfg.limiter, cfg.flux);
    expected.push_back(std::move(out));
  }

  solver.step(dt);
  for (std::size_t b = 0; b < leaves.size(); ++b) {
    ConstBlockView<2> v = solver.store().view(leaves[b]);
    const std::int64_t fs = lay.field_stride();
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      const std::int64_t off = lay.offset(p);
      for (int k = 0; k < Euler<2>::NVAR; ++k)
        ASSERT_EQ(v.base[k * fs + off], expected[b][k * fs + off])
            << "block " << leaves[b];
    });
  }
}

}  // namespace
}  // namespace ab
