// HLLD approximate Riemann solver for ideal MHD (Miyoshi & Kusano 2005).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "amr/solver.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"
#include "support/flux_row.hpp"
#include "support/rng.hpp"
#include "util/aligned.hpp"

namespace ab {
namespace {

TEST(Hlld, ConsistencyWithEqualStates) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.2, {0.4, -0.3, 0.2}, {0.5, 0.6, -0.1}, 0.9);
  IdealMhd<3>::State hlld, exact;
  for (int dir = 0; dir < 3; ++dir) {
    phys.hlld_flux(u, u, dir, hlld);
    phys.flux(u, dir, exact);
    for (int k = 0; k < 8; ++k)
      EXPECT_NEAR(hlld[k], exact[k], 1e-11) << "dir " << dir << " var " << k;
  }
}

TEST(Hlld, ResolvesHydroContactExactly) {
  // B = 0 reduces HLLD to HLLC: a stationary contact carries no mass or
  // energy flux (Rusanov diffuses it).
  IdealMhd<2> phys;
  auto uL = phys.from_primitive(1.0, {0, 0, 0}, {0, 0, 0}, 1.0);
  auto uR = phys.from_primitive(0.125, {0, 0, 0}, {0, 0, 0}, 1.0);
  IdealMhd<2>::State f;
  phys.hlld_flux(uL, uR, 0, f);
  EXPECT_NEAR(f[0], 0.0, 1e-13);
  EXPECT_NEAR(f[1], 1.0, 1e-13);  // pure pressure
  EXPECT_NEAR(f[7], 0.0, 1e-13);
  IdealMhd<2>::State rus;
  detail::numerical_flux<IdealMhd<2>>(phys, FluxScheme::Rusanov, uL, uR, 0,
                                      rus);
  EXPECT_GT(std::fabs(rus[0]), 0.1);
}

TEST(Hlld, ResolvesTangentialDiscontinuityExactly) {
  // Bn = 0, equal TOTAL pressure, jumped tangential field and density:
  // a stationary tangential discontinuity. HLLD keeps it static.
  IdealMhd<2> phys;
  // pL + BL^2/2 = pR + BR^2/2: pL=1.0,BtL=1 (pt=1.5); pR=0.5,BtR=sqrt(2).
  auto uL = phys.from_primitive(1.0, {0, 0, 0}, {0.0, 1.0, 0.0}, 1.0);
  auto uR = phys.from_primitive(0.3, {0, 0, 0},
                                {0.0, std::sqrt(2.0), 0.0}, 0.5);
  IdealMhd<2>::State f;
  phys.hlld_flux(uL, uR, 0, f);
  EXPECT_NEAR(f[0], 0.0, 1e-12);        // no mass flux
  EXPECT_NEAR(f[1], 1.5, 1e-12);        // total pressure
  EXPECT_NEAR(f[2], 0.0, 1e-12);        // no tangential momentum flux
  EXPECT_NEAR(f[5], 0.0, 1e-12);        // no By flux
  EXPECT_NEAR(f[7], 0.0, 1e-12);        // no energy flux
}

TEST(Hlld, SupersonicUpwinding) {
  IdealMhd<3> phys;
  auto uL = phys.from_primitive(1.0, {9.0, 0.1, 0.0}, {0.3, 0.2, 0.1}, 1.0);
  auto uR = phys.from_primitive(0.9, {9.5, -0.1, 0.0}, {0.3, 0.1, 0.2}, 0.8);
  IdealMhd<3>::State f, fl;
  phys.hlld_flux(uL, uR, 0, f);
  phys.flux(uL, 0, fl);
  for (int k = 0; k < 8; ++k) EXPECT_NEAR(f[k], fl[k], 1e-12);
}

TEST(Hlld, MirrorSymmetry) {
  // Reflecting the problem through the interface negates the odd fluxes.
  IdealMhd<2> phys;
  auto uL = phys.from_primitive(1.0, {0.3, 0.5, 0.0}, {0.4, 0.7, 0.0}, 1.0);
  auto uR = phys.from_primitive(0.6, {-0.2, 0.1, 0.0}, {0.4, -0.3, 0.0}, 0.7);
  // Mirror: swap L/R, negate normal velocity AND tangential B (keeps Bn and
  // the induction-flux signs consistent).
  auto mirror = [&](IdealMhd<2>::State q) {
    q[1] = -q[1];  // mx
    q[5] = -q[5];  // By
    q[6] = -q[6];  // Bz
    return q;
  };
  IdealMhd<2>::State f1, f2;
  phys.hlld_flux(uL, uR, 0, f1);
  phys.hlld_flux(mirror(uR), mirror(uL), 0, f2);
  // rho flux odd; normal momentum even; tangential momentum odd; Bt flux
  // even; energy odd.
  EXPECT_NEAR(f1[0], -f2[0], 1e-11);
  EXPECT_NEAR(f1[1], f2[1], 1e-11);
  EXPECT_NEAR(f1[2], -f2[2], 1e-11);
  EXPECT_NEAR(f1[5], f2[5], 1e-11);
  EXPECT_NEAR(f1[7], -f2[7], 1e-11);
}

double brio_wu_l1(FluxScheme scheme, int root_x,
                  const std::vector<double>* reference = nullptr,
                  std::vector<double>* out = nullptr) {
  IdealMhd<2> phys;
  phys.gamma = 2.0;
  AmrSolver<2, IdealMhd<2>>::Config cfg;
  cfg.forest.root_blocks = {root_x, 1};
  cfg.forest.domain_hi = {1.0, 1.0 / (root_x * 8) * 8};
  cfg.cells_per_block = {8, 8};
  cfg.cfl = 0.3;
  cfg.flux = scheme;
  cfg.apply_positivity_fix = true;
  AmrSolver<2, IdealMhd<2>> solver(cfg, phys);
  solver.init([&](const RVec<2>& x, IdealMhd<2>::State& s) {
    if (x[0] < 0.5)
      s = phys.from_primitive(1.0, {0, 0, 0}, {0.75, 1.0, 0.0}, 1.0);
    else
      s = phys.from_primitive(0.125, {0, 0, 0}, {0.75, -1.0, 0.0}, 0.1);
  });
  solver.advance_to(0.1, 100000);
  // Sample rho along y = first row, averaged down to the coarsest run.
  std::vector<double> rho;
  for (int bx = 0; bx < root_x; ++bx) {
    const int id = solver.forest().find(0, {bx, 0});
    ConstBlockView<2> v = solver.store().view(id);
    for (int i = 0; i < 8; ++i) rho.push_back(v.at(0, {i, 0}));
  }
  if (out) *out = rho;
  if (!reference) return 0.0;
  // Reference has an integer multiple of our resolution: block-average it.
  const int ratio = static_cast<int>(reference->size() / rho.size());
  double err = 0.0;
  for (std::size_t i = 0; i < rho.size(); ++i) {
    double avg = 0.0;
    for (int k = 0; k < ratio; ++k) avg += (*reference)[i * ratio + k];
    err += std::fabs(rho[i] - avg / ratio);
  }
  return err / rho.size();
}

TEST(Hlld, BrioWuSharperThanRusanov) {
  // Reference: fine Rusanov run (converged enough to rank the schemes).
  std::vector<double> reference;
  brio_wu_l1(FluxScheme::Rusanov, 32, nullptr, &reference);
  const double e_rus = brio_wu_l1(FluxScheme::Rusanov, 8, &reference);
  const double e_hlld = brio_wu_l1(FluxScheme::Hlld, 8, &reference);
  EXPECT_LT(e_hlld, e_rus) << "hlld=" << e_hlld << " rusanov=" << e_rus;
  EXPECT_LT(e_hlld, 0.05);
}

TEST(Hlld, BlastStaysPhysical) {
  IdealMhd<2> phys;
  AmrSolver<2, IdealMhd<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.cells_per_block = {8, 8};
  cfg.cfl = 0.3;
  cfg.flux = FluxScheme::Hlld;
  cfg.apply_positivity_fix = true;
  AmrSolver<2, IdealMhd<2>> solver(cfg, phys);
  solver.init([&](const RVec<2>& x, IdealMhd<2>::State& s) {
    const double r2 = (x[0] - 0.5) * (x[0] - 0.5) +
                      (x[1] - 0.5) * (x[1] - 0.5);
    s = phys.from_primitive(1.0, {0, 0, 0}, {0.7, 0.7, 0.0},
                            r2 < 0.01 ? 10.0 : 0.1);
  });
  for (int i = 0; i < 20; ++i) solver.step(solver.compute_dt());
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      IdealMhd<2>::State s;
      for (int k = 0; k < 8; ++k) s[k] = v.at(k, p);
      ASSERT_GT(s[0], 0.0);
      ASSERT_TRUE(std::isfinite(phys.pressure(s)));
    });
  }
}

// --- hlld_flux_row against the per-face solver -------------------------

// The regions of the wave fan hlld_flux can return, plus the clamp and
// degenerate-denominator arms the row form turns into selects.
enum Arm {
  kSupersonicLeft,
  kSupersonicRight,
  kBn0StarLeft,
  kBn0StarRight,
  kStarLeft,
  kStarRight,
  kDoubleStarLeft,
  kDoubleStarRight,
  kDegenerateStar,     // a star state in the flux had its Bt switched off
  kPressureClamp,      // a side's fast speed clamped p < 0 to 0
  kDiscriminantClamp,  // a side's fast-speed discriminant was clamped
  kNumArms
};
constexpr const char* kArmNames[kNumArms] = {
    "supersonic left",  "supersonic right",  "bn=0 star left",
    "bn=0 star right",  "star left",         "star right",
    "double star left", "double star right", "degenerate star",
    "pressure clamp",   "discriminant clamp"};

/// Marks in `hit` the arms hlld_flux(uL, uR, dir) takes, recomputing its
/// branch conditions with its expressions.
template <int D>
void mark_arms(const IdealMhd<D>& phys, const typename IdealMhd<D>::State& uL,
               const typename IdealMhd<D>::State& uR, int dir,
               std::array<std::int64_t, kNumArms>& hit) {
  using M = IdealMhd<D>;
  auto clamps = [&](const typename M::State& q) {
    double b2 = 0.0;
    for (int i = 0; i < 3; ++i) b2 += q[M::imag(i)] * q[M::imag(i)];
    double p = phys.pressure(q);
    if (p < 0.0) {
      ++hit[kPressureClamp];
      p = 0.0;
    }
    const double rho = q[M::irho()];
    const double a2 = phys.gamma * p / rho;
    const double cad2 = q[M::imag(dir)] * q[M::imag(dir)] / rho;
    const double s = a2 + b2 / rho;
    if (s * s - 4.0 * a2 * cad2 < 0.0) ++hit[kDiscriminantClamp];
    return phys.pressure(q) + 0.5 * b2;  // total pressure
  };
  const double ptl = clamps(uL), ptr = clamps(uR);
  const double ul = uL[M::imom(dir)] / uL[M::irho()];
  const double ur = uR[M::imom(dir)] / uR[M::irho()];
  const double bn = 0.5 * (uL[M::imag(dir)] + uR[M::imag(dir)]);
  const double cfl = phys.fast_speed(uL, dir), cfr = phys.fast_speed(uR, dir);
  const double sl = std::min(ul - cfl, ur - cfr);
  const double sr = std::max(ul + cfl, ur + cfr);
  if (sl >= 0.0) {
    ++hit[kSupersonicLeft];
    return;
  }
  if (sr <= 0.0) {
    ++hit[kSupersonicRight];
    return;
  }
  const double dl = (sl - ul) * uL[M::irho()];
  const double dr = (sr - ur) * uR[M::irho()];
  const double sm = (dr * ur - dl * ul - ptr + ptl) / (dr - dl);
  // Star density and whether the star's denominator is degenerate.
  auto star = [&](const typename M::State& q, double u, double sk,
                  bool& degenerate) {
    const double rho = q[M::irho()];
    const double denom = rho * (sk - u) * (sk - sm) - bn * bn;
    degenerate = !(std::fabs(denom) >
                   1e-12 * (rho * (sk - u) * (sk - u) + bn * bn + 1e-300));
    return rho * (sk - u) / (sk - sm);
  };
  bool degl = false, degr = false;
  const double rhol = star(uL, ul, sl, degl), rhor = star(uR, ur, sr, degr);
  bool degenerate = false;
  if (bn == 0.0) {
    ++hit[sm >= 0.0 ? kBn0StarLeft : kBn0StarRight];
    degenerate = sm >= 0.0 ? degl : degr;
  } else if (sm - std::fabs(bn) / std::sqrt(rhol) >= 0.0) {
    ++hit[kStarLeft];
    degenerate = degl;
  } else if (sm + std::fabs(bn) / std::sqrt(rhor) <= 0.0) {
    ++hit[kStarRight];
    degenerate = degr;
  } else {
    ++hit[sm >= 0.0 ? kDoubleStarLeft : kDoubleStarRight];
    degenerate = degl || degr;
  }
  if (degenerate) ++hit[kDegenerateStar];
}

/// Fuzzes hlld_flux_row(dir) against hlld_flux face by face, for rows of
/// nf in {1, 2, 8, 9} in lane-scratch and in block layout.
template <int D>
void fuzz_hlld_row(const IdealMhd<D>& phys, int dir, std::uint64_t seed,
                   std::array<std::int64_t, kNumArms>& hit) {
  using State = typename IdealMhd<D>::State;
  testing::SplitMix64 rng(seed);
  auto row = [&](const double* pL, std::int64_t sL, const double* pR,
                 std::int64_t sR, double* F, std::int64_t lane, int nf) {
    phys.hlld_flux_row(dir, pL, sL, pR, sR, F, lane, nf);
  };
  auto face = [&](const State& uL, const State& uR, State& f) {
    phys.hlld_flux(uL, uR, dir, f);
  };
  for (int nf : {1, 2, 8, 9}) {
    for (bool block_stride : {false, true}) {
      for (int row_index = 0; row_index < 400; ++row_index) {
        // Face i sits between cells i and i + 1.
        const auto cells = testing::fuzz_mhd_cells<D>(phys, dir, nf + 1, rng);
        for (int i = 0; i < nf; ++i)
          mark_arms<D>(phys, cells[i], cells[i + 1], dir, hit);
        SCOPED_TRACE(::testing::Message()
                     << "D=" << D << " dir=" << dir << " seed=" << seed
                     << " row=" << row_index);
        ASSERT_NO_FATAL_FAILURE(
            testing::expect_row_matches_faces(cells, block_stride, row, face));
      }
    }
  }
}

TEST(Hlld, RowMatchesPerFaceBitwise) {
  std::array<std::int64_t, kNumArms> hit{};
  IdealMhd<2> phys2;
  phys2.gamma = 1.4;
  for (int dir = 0; dir < 2; ++dir)
    fuzz_hlld_row<2>(phys2, dir, testing::splitmix64(20 + dir), hit);
  IdealMhd<3> phys3;
  for (int dir = 0; dir < 3; ++dir)
    fuzz_hlld_row<3>(phys3, dir, testing::splitmix64(30 + dir), hit);
  // Every arm of the per-face branch tree was exercised, so no select in
  // the row form went untested.
  for (int a = 0; a < kNumArms; ++a)
    EXPECT_GT(hit[a], 0) << "no face took the " << kArmNames[a] << " arm";
}

TEST(Hlld, SchemeRejectedForPhysicsWithoutIt) {
  Euler<2> phys;
  BlockLayout<2> lay({4, 4}, 2, 4);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  EXPECT_THROW((fv_block_update<2, Euler<2>>(lay, uin.data(), uout.data(),
                                             phys, {1.0, 1.0}, 0.1,
                                             SpatialOrder::First,
                                             LimiterKind::MinMod,
                                             FluxScheme::Hlld)),
               Error);
}

}  // namespace
}  // namespace ab
