#include "physics/euler.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ab {
namespace {

TEST(Euler, PrimitiveRoundTrip2D) {
  Euler<2> phys;
  auto u = phys.from_primitive(1.2, {3.0, -1.0}, 2.5);
  EXPECT_DOUBLE_EQ(u[0], 1.2);
  EXPECT_DOUBLE_EQ(u[1], 1.2 * 3.0);
  EXPECT_DOUBLE_EQ(u[2], 1.2 * -1.0);
  EXPECT_NEAR(phys.pressure(u), 2.5, 1e-13);
}

TEST(Euler, PressureOfStaticState) {
  Euler<3> phys;
  auto u = phys.from_primitive(2.0, {0.0, 0.0, 0.0}, 5.0);
  EXPECT_NEAR(phys.pressure(u), 5.0, 1e-13);
  EXPECT_DOUBLE_EQ(u[4], 5.0 / 0.4);  // pure internal energy
}

TEST(Euler, SoundSpeed) {
  Euler<2> phys;  // gamma = 1.4
  auto u = phys.from_primitive(1.0, {0.0, 0.0}, 1.0);
  EXPECT_NEAR(phys.sound_speed(u), std::sqrt(1.4), 1e-13);
}

TEST(Euler, FluxOfStaticStateIsPurePressure) {
  Euler<2> phys;
  auto u = phys.from_primitive(1.0, {0.0, 0.0}, 3.0);
  Euler<2>::State f;
  phys.flux(u, 0, f);
  EXPECT_DOUBLE_EQ(f[0], 0.0);          // no mass flux
  EXPECT_NEAR(f[1], 3.0, 1e-13);        // pressure in the normal momentum
  EXPECT_DOUBLE_EQ(f[2], 0.0);
  EXPECT_DOUBLE_EQ(f[3], 0.0);          // no energy flux
}

TEST(Euler, FluxMatchesAnalyticForm) {
  Euler<2> phys;
  const double rho = 1.3, vx = 2.0, vy = -0.5, p = 0.9;
  auto u = phys.from_primitive(rho, {vx, vy}, p);
  Euler<2>::State f;
  phys.flux(u, 0, f);
  EXPECT_NEAR(f[0], rho * vx, 1e-13);
  EXPECT_NEAR(f[1], rho * vx * vx + p, 1e-13);
  EXPECT_NEAR(f[2], rho * vx * vy, 1e-13);
  const double E = u[3];
  EXPECT_NEAR(f[3], (E + p) * vx, 1e-12);
  // And in the y direction.
  phys.flux(u, 1, f);
  EXPECT_NEAR(f[0], rho * vy, 1e-13);
  EXPECT_NEAR(f[2], rho * vy * vy + p, 1e-13);
}

TEST(Euler, SignalSpeedsBracketVelocity) {
  Euler<2> phys;
  auto u = phys.from_primitive(1.0, {2.0, 0.0}, 1.0);
  double lmin, lmax;
  phys.signal_speeds(u, 0, lmin, lmax);
  const double c = std::sqrt(1.4);
  EXPECT_NEAR(lmin, 2.0 - c, 1e-13);
  EXPECT_NEAR(lmax, 2.0 + c, 1e-13);
  EXPECT_NEAR(phys.max_speed(u, 0), 2.0 + c, 1e-13);
  // Supersonic leftward flow: max speed is |v|+c.
  auto w = phys.from_primitive(1.0, {-5.0, 0.0}, 1.0);
  EXPECT_NEAR(phys.max_speed(w, 0), 5.0 + c, 1e-13);
}

TEST(Euler, GalileanMomentumShift) {
  // Mass flux equals normal momentum for any state.
  Euler<3> phys;
  auto u = phys.from_primitive(0.7, {1.0, 2.0, 3.0}, 1.1);
  for (int dir = 0; dir < 3; ++dir) {
    Euler<3>::State f;
    phys.flux(u, dir, f);
    EXPECT_DOUBLE_EQ(f[0], u[1 + dir]);
  }
}

TEST(Euler, FixStateRestoresFloors) {
  Euler<2> phys;
  Euler<2>::State u{-1.0, 0.5, 0.0, -2.0};
  EXPECT_TRUE(phys.fix_state(u, 1e-6, 1e-6));
  EXPECT_GE(u[0], 1e-6);
  EXPECT_GE(phys.pressure(u), 1e-6 * (1.0 - 1e-12));
  // A healthy state is untouched.
  auto good = phys.from_primitive(1.0, {0.1, 0.2}, 1.0);
  auto copy = good;
  EXPECT_FALSE(phys.fix_state(good, 1e-10, 1e-10));
  EXPECT_EQ(good, copy);
}

TEST(Euler, FromPrimitiveRejectsNonPositive) {
  Euler<2> phys;
  EXPECT_THROW(phys.from_primitive(-1.0, {0.0, 0.0}, 1.0), Error);
  EXPECT_THROW(phys.from_primitive(1.0, {0.0, 0.0}, 0.0), Error);
}

TEST(Euler, OneDimensionalVariant) {
  Euler<1> phys;
  static_assert(Euler<1>::NVAR == 3);
  RVec<1> vel;
  vel[0] = 1.0;
  auto u = phys.from_primitive(1.0, vel, 1.0);
  Euler<1>::State f;
  phys.flux(u, 0, f);
  EXPECT_NEAR(f[0], 1.0, 1e-13);
  EXPECT_NEAR(f[1], 2.0, 1e-13);  // rho v^2 + p
}

}  // namespace
}  // namespace ab
