// Compressible Euler equations in D dimensions.
//
// Conserved state: [rho, momentum_0..momentum_{D-1}, total energy].
// Used by the comet and Sod shock-tube examples (refs [3],[4] workloads).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "physics/lanes.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

template <int D>
struct Euler {
  static constexpr int NVAR = D + 2;
  static constexpr bool kHasSource = false;
  using State = std::array<double, NVAR>;

  double gamma = 1.4;

  static constexpr int irho() { return 0; }
  static constexpr int imom(int d) { return 1 + d; }
  static constexpr int ieng() { return D + 1; }

  double pressure(const State& u) const {
    double ke = 0.0;
    for (int d = 0; d < D; ++d) ke += u[imom(d)] * u[imom(d)];
    ke *= 0.5 / u[irho()];
    return (gamma - 1.0) * (u[ieng()] - ke);
  }

  double sound_speed(const State& u) const {
    double p = pressure(u);
    return std::sqrt(gamma * (p > 0 ? p : 0.0) / u[irho()]);
  }

  void flux(const State& u, int dir, State& f) const {
    const double rho = u[irho()];
    const double vd = u[imom(dir)] / rho;
    const double p = pressure(u);
    f[irho()] = u[imom(dir)];
    for (int d = 0; d < D; ++d) f[imom(d)] = u[imom(d)] * vd;
    f[imom(dir)] += p;
    f[ieng()] = (u[ieng()] + p) * vd;
  }

  void signal_speeds(const State& u, int dir, double& lmin,
                     double& lmax) const {
    const double vd = u[imom(dir)] / u[irho()];
    const double c = sound_speed(u);
    lmin = vd - c;
    lmax = vd + c;
  }

  /// Fused flux + signal speeds: evaluates the same expressions as flux()
  /// followed by signal_speeds(), sharing the per-state divisions (velocity,
  /// pressure) both need — bitwise-identical results at roughly half the
  /// division count. The kernel's Rusanov/HLL path picks this overload up
  /// when present.
  void flux_and_speeds(const State& u, int dir, State& f, double& lmin,
                       double& lmax) const {
    const double rho = u[irho()];
    const double vd = u[imom(dir)] / rho;
    double ke = 0.0;
    for (int d = 0; d < D; ++d) ke += u[imom(d)] * u[imom(d)];
    ke *= 0.5 / rho;
    const double p = (gamma - 1.0) * (u[ieng()] - ke);
    f[irho()] = u[imom(dir)];
    for (int d = 0; d < D; ++d) f[imom(d)] = u[imom(d)] * vd;
    f[imom(dir)] += p;
    f[ieng()] = (u[ieng()] + p) * vd;
    const double c = std::sqrt(gamma * (p > 0 ? p : 0.0) / rho);
    lmin = vd - c;
    lmax = vd + c;
  }

  /// Row form of the Rusanov flux over `nf` faces: face i's left/right
  /// state variable v is read from pL[v*sL + i] / pR[v*sR + i] (stride-1 in
  /// i), flux component v is written to F[v*lane + i]. Each face gets
  /// exactly the bits of flux_and_speeds on both states followed by the
  /// Rusanov combine of detail::numerical_flux.
  ///
  /// Faces are solved two at a time in f64x2 lanes, an odd last face in a
  /// double (src/physics/lanes.hpp); the pressure clamp and the std::max
  /// chain are mask selects. The lanes are explicit because the library's
  /// -O3 build does not vectorize this loop: at the baseline ISA std::sqrt
  /// keeps its errno path as a branch.
  void rusanov_flux_row(int dir, const double* pL, std::int64_t sL,
                        const double* pR, std::int64_t sR, double* F,
                        std::int64_t lane, int nf) const {
    if (dir == 0) {
      rusanov_flux_row_impl<0>(pL, sL, pR, sR, F, lane, nf);
    } else if constexpr (D >= 2) {
      if (dir == 1) {
        rusanov_flux_row_impl<1>(pL, sL, pR, sR, F, lane, nf);
      } else if constexpr (D >= 3) {
        rusanov_flux_row_impl<2>(pL, sL, pR, sR, F, lane, nf);
      }
    }
  }

  template <int dirc>
  void rusanov_flux_row_impl(const double* pL, std::int64_t sL,
                             const double* pR, std::int64_t sR, double* F,
                             std::int64_t lane, int nf) const {
    lanes::for_row(nf, [&]<class V>(std::type_identity<V>, int i) {
      rusanov_lanes<dirc, V>(pL + i, sL, pR + i, sR, F + i, lane);
    });
  }

  /// The Rusanov flux for the lanes::kWidth<V> faces starting at pL / pR /
  /// F, with the expressions of flux_and_speeds in its order. Its |m|^2
  /// sum starts from 0.0; 0.0 + x*x is x*x for every x.
  template <int dirc, class V>
  void rusanov_lanes(const double* pL, std::int64_t sL, const double* pR,
                     std::int64_t sR, double* F, std::int64_t lane) const {
    const double g = gamma;
    struct Side {
      V q[NVAR], f[NVAR];
      V lmin, lmax;
    };
    auto flux_and_speeds_of = [&](const double* p, std::int64_t stride) {
      Side d;
      for (int k = 0; k < NVAR; ++k) d.q[k] = lanes::load<V>(p + k * stride);
      const V rho = d.q[irho()];
      const V vd = d.q[imom(dirc)] / rho;
      V ke = d.q[imom(0)] * d.q[imom(0)];
      for (int k = 1; k < D; ++k) ke = ke + d.q[imom(k)] * d.q[imom(k)];
      ke = ke * (0.5 / rho);
      const V pres = (g - 1.0) * (d.q[ieng()] - ke);
      d.f[irho()] = d.q[imom(dirc)];
      for (int k = 0; k < D; ++k) d.f[imom(k)] = d.q[imom(k)] * vd;
      d.f[imom(dirc)] = d.f[imom(dirc)] + pres;
      d.f[ieng()] = (d.q[ieng()] + pres) * vd;
      const V pc = lanes::select(pres > 0.0, pres, lanes::broadcast<V>(0.0));
      const V c = lanes::sqrt(g * pc / rho);
      d.lmin = vd - c;
      d.lmax = vd + c;
      return d;
    };
    const Side l = flux_and_speeds_of(pL, sL);
    const Side r = flux_and_speeds_of(pR, sR);
    V s = lanes::fabs(l.lmin);
    s = lanes::max(s, lanes::fabs(l.lmax));
    s = lanes::max(s, lanes::fabs(r.lmin));
    s = lanes::max(s, lanes::fabs(r.lmax));
    for (int k = 0; k < NVAR; ++k)
      lanes::store<V>(F + k * lane, 0.5 * (l.f[k] + r.f[k]) -
                                        0.5 * s * (r.q[k] - l.q[k]));
  }

  double max_speed(const State& u, int dir) const {
    double lmin, lmax;
    signal_speeds(u, dir, lmin, lmax);
    double a = std::fabs(lmin), b = std::fabs(lmax);
    return a > b ? a : b;
  }

  /// Roe's approximate Riemann solver with a Harten entropy fix. Unlike
  /// Rusanov/HLL it resolves stationary contact discontinuities exactly —
  /// the property that keeps material interfaces sharp. Selected via
  /// FluxScheme::Roe in the kernel (only physics providing roe_flux accept
  /// that scheme).
  void roe_flux(const State& uL, const State& uR, int dir, State& F) const {
    // Left/right primitives.
    const double rl = uL[irho()], rr = uR[irho()];
    RVec<D> vl, vr;
    for (int d = 0; d < D; ++d) {
      vl[d] = uL[imom(d)] / rl;
      vr[d] = uR[imom(d)] / rr;
    }
    const double pl = pressure(uL), pr = pressure(uR);
    const double hl = (uL[ieng()] + pl) / rl;  // total enthalpy
    const double hr = (uR[ieng()] + pr) / rr;

    // Roe averages.
    const double w = std::sqrt(rr / rl);
    const double rho_t = w * rl;
    RVec<D> v_t;
    double v2 = 0.0;
    for (int d = 0; d < D; ++d) {
      v_t[d] = (vl[d] + w * vr[d]) / (1.0 + w);
      v2 += v_t[d] * v_t[d];
    }
    const double h_t = (hl + w * hr) / (1.0 + w);
    double a2 = (gamma - 1.0) * (h_t - 0.5 * v2);
    if (a2 < 1e-14) a2 = 1e-14;
    const double a = std::sqrt(a2);
    const double vn = v_t[dir];

    // Wave strengths from primitive jumps.
    const double dp = pr - pl;
    const double drho = rr - rl;
    const double dvn = vr[dir] - vl[dir];
    const double alpha_minus = (dp - rho_t * a * dvn) / (2.0 * a2);
    const double alpha_plus = (dp + rho_t * a * dvn) / (2.0 * a2);
    const double alpha_entropy = drho - dp / a2;

    // Harten entropy fix on the acoustic speeds.
    auto fix = [&](double lam) {
      const double eps = 0.1 * a;
      const double al = std::fabs(lam);
      return al >= eps ? al : (lam * lam + eps * eps) / (2.0 * eps);
    };
    const double l_minus = fix(vn - a);
    const double l_mid = std::fabs(vn);
    const double l_plus = fix(vn + a);

    // Central flux minus the dissipation sum over waves.
    State fl, fr;
    flux(uL, dir, fl);
    flux(uR, dir, fr);
    for (int k = 0; k < NVAR; ++k) F[k] = 0.5 * (fl[k] + fr[k]);

    auto subtract_wave = [&](double lam, double alpha, const State& K) {
      const double c = 0.5 * lam * alpha;
      for (int k = 0; k < NVAR; ++k) F[k] -= c * K[k];
    };
    // Acoustic waves.
    State K{};
    K[irho()] = 1.0;
    for (int d = 0; d < D; ++d) K[imom(d)] = v_t[d];
    K[imom(dir)] -= a;
    K[ieng()] = h_t - a * vn;
    subtract_wave(l_minus, alpha_minus, K);
    K[imom(dir)] += 2.0 * a;
    K[ieng()] = h_t + a * vn;
    subtract_wave(l_plus, alpha_plus, K);
    // Entropy wave.
    K[irho()] = 1.0;
    for (int d = 0; d < D; ++d) K[imom(d)] = v_t[d];
    K[ieng()] = 0.5 * v2;
    subtract_wave(l_mid, alpha_entropy, K);
    // Shear waves (one per tangential dimension).
    for (int t = 0; t < D; ++t) {
      if (t == dir) continue;
      State S{};
      S[imom(t)] = 1.0;
      S[ieng()] = v_t[t];
      subtract_wave(l_mid, rho_t * (vr[t] - vl[t]), S);
    }
  }

  /// Conserved state from primitives (density, velocity, pressure).
  State from_primitive(double rho, const RVec<D>& vel, double p) const {
    AB_REQUIRE(rho > 0.0 && p > 0.0, "Euler: non-positive primitive state");
    State u{};
    u[irho()] = rho;
    double ke = 0.0;
    for (int d = 0; d < D; ++d) {
      u[imom(d)] = rho * vel[d];
      ke += vel[d] * vel[d];
    }
    u[ieng()] = p / (gamma - 1.0) + 0.5 * rho * ke;
    return u;
  }

  /// Clamp density and pressure to floors (in place); returns true if the
  /// state needed fixing. Keeps velocity, adjusts energy.
  bool fix_state(State& u, double rho_floor = 1e-12,
                 double p_floor = 1e-12) const {
    bool fixed = false;
    if (u[irho()] < rho_floor) {
      u[irho()] = rho_floor;
      fixed = true;
    }
    double p = pressure(u);
    if (p < p_floor) {
      double ke = 0.0;
      for (int d = 0; d < D; ++d) ke += u[imom(d)] * u[imom(d)];
      ke *= 0.5 / u[irho()];
      u[ieng()] = p_floor / (gamma - 1.0) + ke;
      fixed = true;
    }
    return fixed;
  }

  // Rough arithmetic-operation counts per call (machine-model accounting).
  static constexpr std::uint64_t kFluxFlops = 6 + 3 * D;
  static constexpr std::uint64_t kSpeedFlops = 8 + 2 * D;
};

}  // namespace ab
