#include "physics/mhd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

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

}  // namespace
}  // namespace ab
