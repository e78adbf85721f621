#include "physics/mhd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

#include "physics/kernel.hpp"
#include "support/flux_row.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

TEST(IdealMhd, PrimitiveRoundTrip) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.5, {1.0, -2.0, 0.5}, {0.1, 0.2, -0.3}, 0.8);
  EXPECT_DOUBLE_EQ(u[0], 1.5);
  EXPECT_DOUBLE_EQ(u[1], 1.5);
  EXPECT_DOUBLE_EQ(u[2], -3.0);
  EXPECT_DOUBLE_EQ(u[4], 0.1);
  EXPECT_NEAR(phys.pressure(u), 0.8, 1e-13);
}

TEST(IdealMhd, EnergyDecomposition) {
  IdealMhd<3> phys;  // gamma 5/3
  auto u = phys.from_primitive(2.0, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, 1.2);
  // E = p/(g-1) + rho v^2/2 + B^2/2
  EXPECT_NEAR(u[7], 1.2 / (2.0 / 3.0) + 1.0 + 0.5, 1e-13);
}

TEST(IdealMhd, NormalFieldFluxIsZero) {
  // The flux of B_dir along dir is identically zero (v_d B_d - v_d B_d):
  // the eight-wave scheme relies on this exact cancellation.
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {3.0, -1.0, 2.0}, {0.4, -0.7, 0.9}, 2.0);
  for (int dir = 0; dir < 3; ++dir) {
    IdealMhd<3>::State f;
    phys.flux(u, dir, f);
    EXPECT_EQ(f[4 + dir], 0.0);
  }
}

TEST(IdealMhd, FluxReducesToEulerWithoutField) {
  IdealMhd<3> phys;
  const double rho = 1.3, vx = 2.0, p = 0.9;
  auto u = phys.from_primitive(rho, {vx, 0.0, 0.0}, {0.0, 0.0, 0.0}, p);
  IdealMhd<3>::State f;
  phys.flux(u, 0, f);
  EXPECT_NEAR(f[0], rho * vx, 1e-13);
  EXPECT_NEAR(f[1], rho * vx * vx + p, 1e-13);
  EXPECT_NEAR(f[7], (u[7] + p) * vx, 1e-12);
}

TEST(IdealMhd, MagneticPressureInMomentumFlux) {
  // Static state with a transverse field: the normal momentum flux carries
  // p + B^2/2 and the transverse momentum flux carries -B_d B_t = 0 when
  // B_d = 0.
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {0.0, 0.0, 0.0}, {0.0, 2.0, 0.0}, 1.0);
  IdealMhd<3>::State f;
  phys.flux(u, 0, f);
  EXPECT_NEAR(f[1], 1.0 + 2.0, 1e-13);  // p + B^2/2 = 1 + 2
  EXPECT_NEAR(f[2], 0.0, 1e-13);
  EXPECT_NEAR(f[7], 0.0, 1e-13);
}

TEST(IdealMhd, MaxwellStressInTransverseFlux) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {0.0, 0.0, 0.0}, {1.0, 2.0, 0.0}, 1.0);
  IdealMhd<3>::State f;
  phys.flux(u, 0, f);
  // Transverse momentum flux: -B_x B_y.
  EXPECT_NEAR(f[2], -2.0, 1e-13);
}

TEST(IdealMhd, FastSpeedAtLeastSoundAndAlfven) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {0.0, 0.0, 0.0}, {0.5, 0.3, 0.1}, 1.0);
  const double a = std::sqrt(phys.gamma * 1.0 / 1.0);
  const double b2 = 0.25 + 0.09 + 0.01;
  for (int dir = 0; dir < 3; ++dir) {
    const double cf = phys.fast_speed(u, dir);
    EXPECT_GE(cf, a - 1e-13);
    const double ca_d = std::sqrt(u[4 + dir] * u[4 + dir] / 1.0);
    EXPECT_GE(cf, ca_d - 1e-13);
    EXPECT_LE(cf, std::sqrt(a * a + b2) + 1e-13);
  }
}

TEST(IdealMhd, FastSpeedHydroLimit) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, 1.0);
  EXPECT_NEAR(phys.fast_speed(u, 0), std::sqrt(5.0 / 3.0), 1e-13);
}

TEST(IdealMhd, PowellSourceProportionalToDivB) {
  IdealMhd<2> phys;
  auto u = phys.from_primitive(1.0, {1.0, 2.0, 3.0}, {0.5, -0.5, 1.0}, 1.0);
  // Neighbors with Bx growing along x at rate 2 per unit length:
  std::array<IdealMhd<2>::State, 4> nbrs;
  for (auto& s : nbrs) s = u;
  RVec<2> dx{0.1, 0.1};
  nbrs[0][4] = 0.5 - 0.2;  // x-minus: Bx
  nbrs[1][4] = 0.5 + 0.2;  // x-plus
  // divB = (0.7 - 0.3)/(2*0.1) = 2.0
  IdealMhd<2>::State du{};
  const double dt = 0.25;
  phys.add_source(u, nbrs, dx, dt, du);
  const double c = -dt * 2.0;
  EXPECT_NEAR(du[1], c * 0.5, 1e-13);    // -dt divB Bx
  EXPECT_NEAR(du[2], c * -0.5, 1e-13);
  EXPECT_NEAR(du[4], c * 1.0, 1e-13);    // -dt divB vx
  EXPECT_NEAR(du[5], c * 2.0, 1e-13);
  const double vdotb = 1.0 * 0.5 + 2.0 * -0.5 + 3.0 * 1.0;
  EXPECT_NEAR(du[7], c * vdotb, 1e-13);
  EXPECT_EQ(du[0], 0.0);  // mass is never sourced
}

TEST(IdealMhd, PowellSourceVanishesForDivergenceFree) {
  IdealMhd<2> phys;
  auto u = phys.from_primitive(1.0, {1.0, 1.0, 1.0}, {0.3, 0.4, 0.0}, 1.0);
  std::array<IdealMhd<2>::State, 4> nbrs;
  for (auto& s : nbrs) s = u;  // uniform field: divB = 0
  IdealMhd<2>::State du{};
  phys.add_source(u, nbrs, {0.1, 0.1}, 0.5, du);
  for (double d : du) EXPECT_EQ(d, 0.0);
}

TEST(IdealMhd, FixStateRestoresPressureKeepingField) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {1.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, 1.0);
  u[7] -= 2.0;  // drive pressure negative
  EXPECT_LT(phys.pressure(u), 0.0);
  EXPECT_TRUE(phys.fix_state(u, 1e-8, 1e-8));
  EXPECT_NEAR(phys.pressure(u), 1e-8, 1e-14);
  EXPECT_DOUBLE_EQ(u[4], 1.0);  // B untouched
}

TEST(IdealMhd, SignalSpeedsSymmetricAtRest) {
  IdealMhd<3> phys;
  auto u = phys.from_primitive(1.0, {0.0, 0.0, 0.0}, {0.2, 0.4, 0.1}, 1.0);
  double lmin, lmax;
  phys.signal_speeds(u, 1, lmin, lmax);
  EXPECT_NEAR(lmin, -lmax, 1e-13);
}

// The arms of flux_and_speeds' two clamps, which the row form turns into
// selects.
enum ClampArm { kPressureKept, kPressureClamped, kDiscKept, kDiscClamped };
constexpr const char* kClampArmNames[] = {
    "pressure kept", "pressure clamped", "discriminant kept",
    "discriminant clamped"};

/// Fuzzes rusanov_flux_row(dir) against detail::numerical_flux face by
/// face, for rows of nf in {1, 2, 8, 9} in lane-scratch and in block
/// layout, counting in `hit` the clamp arms the face states take.
template <int D>
void fuzz_rusanov_row(const IdealMhd<D>& phys, int dir, std::uint64_t seed,
                      std::array<std::int64_t, 4>& hit) {
  using M = IdealMhd<D>;
  using State = typename M::State;
  testing::SplitMix64 rng(seed);
  auto row = [&](const double* pL, std::int64_t sL, const double* pR,
                 std::int64_t sR, double* F, std::int64_t lane, int nf) {
    phys.rusanov_flux_row(dir, pL, sL, pR, sR, F, lane, nf);
  };
  auto face = [&](const State& uL, const State& uR, State& f) {
    detail::numerical_flux<M>(phys, FluxScheme::Rusanov, uL, uR, dir, f);
  };
  // flux_and_speeds' clamp conditions, with its expressions.
  auto mark = [&](const State& q) {
    double b2 = 0.0;
    for (int i = 0; i < 3; ++i) b2 += q[M::imag(i)] * q[M::imag(i)];
    double p = phys.pressure(q);
    ++hit[p < 0.0 ? kPressureClamped : kPressureKept];
    if (p < 0.0) p = 0.0;
    const double rho = q[M::irho()];
    const double a2 = phys.gamma * p / rho;
    const double cad2 = q[M::imag(dir)] * q[M::imag(dir)] / rho;
    const double s = a2 + b2 / rho;
    ++hit[s * s - 4.0 * a2 * cad2 < 0.0 ? kDiscClamped : kDiscKept];
  };
  for (int nf : {1, 2, 8, 9}) {
    for (bool block_stride : {false, true}) {
      for (int row_index = 0; row_index < 200; ++row_index) {
        auto cells = testing::fuzz_mhd_cells<D>(phys, dir, nf + 1, rng);
        if (rng.below(8) == 0) {
          // At rest, with one pattern of signed-zero momenta for the row
          // (repeated cells stay equal): v.B terms of -0.0.
          double zero[3];
          for (double& z : zero) z = rng.below(2) == 0 ? 0.0 : -0.0;
          for (State& u : cells)
            for (int k = 0; k < 3; ++k) u[M::imom(k)] = zero[k];
        }
        for (int i = 0; i < nf; ++i) {
          mark(cells[i]);
          mark(cells[i + 1]);
        }
        SCOPED_TRACE(::testing::Message()
                     << "D=" << D << " dir=" << dir << " seed=" << seed
                     << " row=" << row_index);
        ASSERT_NO_FATAL_FAILURE(
            testing::expect_row_matches_faces(cells, block_stride, row, face));
      }
    }
  }
}

TEST(IdealMhd, RusanovRowMatchesPerFaceBitwise) {
  std::array<std::int64_t, 4> hit{};
  IdealMhd<2> phys2;
  phys2.gamma = 1.4;
  for (int dir = 0; dir < 2; ++dir)
    fuzz_rusanov_row<2>(phys2, dir, testing::splitmix64(40 + dir), hit);
  IdealMhd<3> phys3;
  for (int dir = 0; dir < 3; ++dir)
    fuzz_rusanov_row<3>(phys3, dir, testing::splitmix64(50 + dir), hit);
  for (int a = 0; a < 4; ++a)
    EXPECT_GT(hit[a], 0) << "no face state took the " << kClampArmNames[a]
                         << " arm";
}

}  // namespace
}  // namespace ab
