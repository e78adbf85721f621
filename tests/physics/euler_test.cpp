#include "physics/euler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "physics/kernel.hpp"
#include "support/flux_row.hpp"
#include "support/rng.hpp"

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

/// A row of `n` random Euler cells: some rows drift supersonically
/// through the faces, some cells repeat their neighbour, and about one in
/// eight has p < 0 or p = 0 exactly, so both arms of the pressure clamp run.
template <int D>
std::vector<typename Euler<D>::State> fuzz_euler_cells(
    const Euler<D>& phys, int dir, int n, testing::SplitMix64& rng) {
  using E = Euler<D>;
  const double sign = rng.below(2) == 0 ? 1.0 : -1.0;
  const double drift = rng.below(3) == 0 ? sign * rng.uniform(1.5, 6.0) : 0.0;
  std::vector<typename E::State> cells;
  for (int c = 0; c < n; ++c) {
    if (c > 0 && rng.below(6) == 0) {
      cells.push_back(cells.back());
      continue;
    }
    const double rho = rng.uniform(0.2, 2.0);
    double p = rng.uniform(0.05, 2.0);
    double v[D];
    for (int k = 0; k < D; ++k) v[k] = rng.uniform(-2.0, 2.0);
    v[dir] += drift;
    switch (rng.below(16)) {
      case 0:
        p = -rng.uniform(0.01, 0.5);
        break;
      case 1:  // at rest with zero energy: the pressure is exactly 0
        p = 0.0;
        for (int k = 0; k < D; ++k) v[k] = 0.0;
        break;
      default:
        break;
    }
    typename E::State u{};
    u[E::irho()] = rho;
    double ke = 0.0;
    for (int k = 0; k < D; ++k) {
      u[E::imom(k)] = rho * v[k];
      ke += v[k] * v[k];
    }
    u[E::ieng()] = p / (phys.gamma - 1.0) + 0.5 * rho * ke;
    cells.push_back(u);
  }
  return cells;
}

/// Fuzzes rusanov_flux_row(dir) against detail::numerical_flux face by
/// face, for rows of nf in {1, 2, 8, 9} in lane-scratch and in block
/// layout. `clamped[0]` / `clamped[1]` count face states whose pressure
/// was kept / clamped to 0 for the sound speed.
template <int D>
void fuzz_rusanov_row(const Euler<D>& phys, int dir, std::uint64_t seed,
                      std::array<std::int64_t, 2>& clamped) {
  using State = typename Euler<D>::State;
  testing::SplitMix64 rng(seed);
  auto row = [&](const double* pL, std::int64_t sL, const double* pR,
                 std::int64_t sR, double* F, std::int64_t lane, int nf) {
    phys.rusanov_flux_row(dir, pL, sL, pR, sR, F, lane, nf);
  };
  auto face = [&](const State& uL, const State& uR, State& f) {
    detail::numerical_flux<Euler<D>>(phys, FluxScheme::Rusanov, uL, uR, dir,
                                     f);
  };
  for (int nf : {1, 2, 8, 9}) {
    for (bool block_stride : {false, true}) {
      for (int row_index = 0; row_index < 200; ++row_index) {
        const auto cells = fuzz_euler_cells<D>(phys, dir, nf + 1, rng);
        for (int i = 0; i < nf; ++i)
          for (const State& u : {cells[i], cells[i + 1]})
            ++clamped[phys.pressure(u) > 0.0 ? 0 : 1];
        SCOPED_TRACE(::testing::Message()
                     << "D=" << D << " dir=" << dir << " seed=" << seed
                     << " row=" << row_index);
        ASSERT_NO_FATAL_FAILURE(
            testing::expect_row_matches_faces(cells, block_stride, row, face));
      }
    }
  }
}

TEST(Euler, RusanovRowMatchesPerFaceBitwise) {
  std::array<std::int64_t, 2> clamped{};
  Euler<1> phys1;
  fuzz_rusanov_row<1>(phys1, 0, testing::splitmix64(10), clamped);
  Euler<2> phys2;
  for (int dir = 0; dir < 2; ++dir)
    fuzz_rusanov_row<2>(phys2, dir, testing::splitmix64(20 + dir), clamped);
  Euler<3> phys3;
  phys3.gamma = 5.0 / 3.0;
  for (int dir = 0; dir < 3; ++dir)
    fuzz_rusanov_row<3>(phys3, dir, testing::splitmix64(30 + dir), clamped);
  EXPECT_GT(clamped[0], 0) << "no face state had p > 0";
  EXPECT_GT(clamped[1], 0) << "no face state had its pressure clamped";
}

}  // namespace
}  // namespace ab
