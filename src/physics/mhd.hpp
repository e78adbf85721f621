// Ideal magnetohydrodynamics with the Powell eight-wave source term.
//
// This is the paper's production workload: the Michigan group's solar-wind /
// CME simulations solve ideal MHD on adaptive blocks with Powell's
// non-conservative source proportional to div B, which advects magnetic
// monopole errors with the flow instead of letting them accumulate.
//
// Conserved state (always 8 variables; velocity and B are full 3-vectors
// even on 2D grids): [rho, mx, my, mz, Bx, By, Bz, E] with
// E = p/(gamma-1) + rho |v|^2 / 2 + |B|^2 / 2   (units with mu0 = 1).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "physics/lanes.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

template <int D>
struct IdealMhd {
  static_assert(D == 2 || D == 3, "IdealMhd supports 2D and 3D grids");
  static constexpr int NVAR = 8;
  static constexpr bool kHasSource = true;  // Powell eight-wave source
  using State = std::array<double, NVAR>;

  double gamma = 5.0 / 3.0;

  static constexpr int irho() { return 0; }
  static constexpr int imom(int i) { return 1 + i; }  // i in 0..2
  static constexpr int imag(int i) { return 4 + i; }  // i in 0..2
  static constexpr int ieng() { return 7; }

  double pressure(const State& u) const {
    double ke = 0.0, b2 = 0.0;
    for (int i = 0; i < 3; ++i) {
      ke += u[imom(i)] * u[imom(i)];
      b2 += u[imag(i)] * u[imag(i)];
    }
    ke *= 0.5 / u[irho()];
    return (gamma - 1.0) * (u[ieng()] - ke - 0.5 * b2);
  }

  void flux(const State& u, int dir, State& f) const {
    const double rho = u[irho()];
    const double inv_rho = 1.0 / rho;
    const double vd = u[imom(dir)] * inv_rho;
    const double bd = u[imag(dir)];
    double b2 = 0.0, vdotb = 0.0;
    for (int i = 0; i < 3; ++i) {
      b2 += u[imag(i)] * u[imag(i)];
      vdotb += u[imom(i)] * inv_rho * u[imag(i)];
    }
    const double ptot = pressure(u) + 0.5 * b2;

    f[irho()] = u[imom(dir)];
    for (int i = 0; i < 3; ++i) {
      f[imom(i)] = u[imom(i)] * vd - bd * u[imag(i)];
      f[imag(i)] = u[imag(i)] * vd - u[imom(i)] * inv_rho * bd;
    }
    f[imom(dir)] += ptot;
    f[imag(dir)] = 0.0;  // exact: v_d B_d - v_d B_d
    f[ieng()] = (u[ieng()] + ptot) * vd - bd * vdotb;
  }

  /// Fast magnetosonic speed along `dir`.
  double fast_speed(const State& u, int dir) const {
    const double rho = u[irho()];
    double b2 = 0.0;
    for (int i = 0; i < 3; ++i) b2 += u[imag(i)] * u[imag(i)];
    double p = pressure(u);
    if (p < 0.0) p = 0.0;
    const double a2 = gamma * p / rho;
    const double ca2 = b2 / rho;
    const double cad2 = u[imag(dir)] * u[imag(dir)] / rho;
    const double s = a2 + ca2;
    double disc = s * s - 4.0 * a2 * cad2;
    if (disc < 0.0) disc = 0.0;
    return std::sqrt(0.5 * (s + std::sqrt(disc)));
  }

  void signal_speeds(const State& u, int dir, double& lmin,
                     double& lmax) const {
    const double vd = u[imom(dir)] / u[irho()];
    const double cf = fast_speed(u, dir);
    lmin = vd - cf;
    lmax = vd + cf;
  }

  double max_speed(const State& u, int dir) const {
    double lmin, lmax;
    signal_speeds(u, dir, lmin, lmax);
    double a = std::fabs(lmin), b = std::fabs(lmax);
    return a > b ? a : b;
  }

  /// Fused flux + signal speeds: evaluates the same expressions as flux()
  /// followed by signal_speeds(), sharing the kinetic/magnetic sums both
  /// need. The kernel's Rusanov/HLL path picks this overload up when
  /// present. Note the two velocity roundings: flux() multiplies by a
  /// precomputed 1/rho while signal_speeds() divides by rho directly —
  /// both are kept so results stay bitwise identical to the split path.
  void flux_and_speeds(const State& u, int dir, State& f, double& lmin,
                       double& lmax) const {
    const double rho = u[irho()];
    const double inv_rho = 1.0 / rho;
    const double vd = u[imom(dir)] * inv_rho;
    const double bd = u[imag(dir)];
    double ke = 0.0, b2 = 0.0, vdotb = 0.0;
    for (int i = 0; i < 3; ++i) {
      ke += u[imom(i)] * u[imom(i)];
      b2 += u[imag(i)] * u[imag(i)];
      vdotb += u[imom(i)] * inv_rho * u[imag(i)];
    }
    ke *= 0.5 / rho;
    const double p = (gamma - 1.0) * (u[ieng()] - ke - 0.5 * b2);
    const double ptot = p + 0.5 * b2;
    f[irho()] = u[imom(dir)];
    for (int i = 0; i < 3; ++i) {
      f[imom(i)] = u[imom(i)] * vd - bd * u[imag(i)];
      f[imag(i)] = u[imag(i)] * vd - u[imom(i)] * inv_rho * bd;
    }
    f[imom(dir)] += ptot;
    f[imag(dir)] = 0.0;  // exact: v_d B_d - v_d B_d
    f[ieng()] = (u[ieng()] + ptot) * vd - bd * vdotb;
    const double vds = u[imom(dir)] / rho;
    double pc = p;
    if (pc < 0.0) pc = 0.0;
    const double a2 = gamma * pc / rho;
    const double ca2 = b2 / rho;
    const double cad2 = bd * bd / rho;
    const double s = a2 + ca2;
    double disc = s * s - 4.0 * a2 * cad2;
    if (disc < 0.0) disc = 0.0;
    const double cf = std::sqrt(0.5 * (s + std::sqrt(disc)));
    lmin = vds - cf;
    lmax = vds + cf;
  }

  /// Row form of the Rusanov flux over `nf` faces: face i's left/right
  /// state variable v is read from pL[v*sL + i] / pR[v*sR + i] (stride-1 in
  /// i), flux component v is written to F[v*lane + i]. Each face gets
  /// exactly the bits of flux_and_speeds on both states followed by the
  /// Rusanov combine of detail::numerical_flux.
  ///
  /// Faces are solved W at a time in lanes, an odd last face in a double
  /// (lanes::for_row<W>, src/physics/lanes.hpp); the pressure and
  /// discriminant clamps and the std::max chain are mask selects, as in
  /// hlld_flux_row.
  template <int W>
  void rusanov_flux_row(int dir, const double* pL, std::int64_t sL,
                        const double* pR, std::int64_t sR, double* F,
                        std::int64_t lane, int nf) const {
    if (dir == 0) {
      rusanov_flux_row_impl<W, 0>(pL, sL, pR, sR, F, lane, nf);
    } else if (dir == 1) {
      rusanov_flux_row_impl<W, 1>(pL, sL, pR, sR, F, lane, nf);
    } else if constexpr (D >= 3) {
      rusanov_flux_row_impl<W, 2>(pL, sL, pR, sR, F, lane, nf);
    }
  }

  template <int W, int dirc>
  void rusanov_flux_row_impl(const double* pL, std::int64_t sL,
                             const double* pR, std::int64_t sR, double* F,
                             std::int64_t lane, int nf) const {
    lanes::for_row<W>(nf, [&]<class V>(std::type_identity<V>, int i) {
      rusanov_lanes<dirc, V>(pL + i, sL, pR + i, sR, F + i, lane);
    });
  }

  /// The Rusanov flux for the faces one V holds, starting at pL / pR /
  /// F, with the expressions of flux_and_speeds in its order. Its |m|^2
  /// and |B|^2 sums start from 0.0; 0.0 + x*x is x*x for every x, but a
  /// v.B term can be -0.0, so that sum keeps its 0.0.
  template <int dirc, class V>
  void rusanov_lanes(const double* pL, std::int64_t sL, const double* pR,
                     std::int64_t sR, double* F, std::int64_t lane) const {
    const V zero = lanes::broadcast<V>(0.0);
    const double g = gamma;
    struct Side {
      V q[NVAR], f[NVAR];
      V lmin, lmax;
    };
    auto flux_and_speeds_of = [&](const double* p, std::int64_t stride) {
      Side d;
      for (int k = 0; k < NVAR; ++k) d.q[k] = lanes::load<V>(p + k * stride);
      const V rho = d.q[irho()];
      const V inv_rho = 1.0 / rho;
      const V vd = d.q[imom(dirc)] * inv_rho;
      const V bd = d.q[imag(dirc)];
      V ke = d.q[imom(0)] * d.q[imom(0)];
      V b2 = d.q[imag(0)] * d.q[imag(0)];
      V vdotb = 0.0 + d.q[imom(0)] * inv_rho * d.q[imag(0)];
      for (int k = 1; k < 3; ++k) {
        ke = ke + d.q[imom(k)] * d.q[imom(k)];
        b2 = b2 + d.q[imag(k)] * d.q[imag(k)];
        vdotb = vdotb + d.q[imom(k)] * inv_rho * d.q[imag(k)];
      }
      ke = ke * (0.5 / rho);
      const V pres = (g - 1.0) * (d.q[ieng()] - ke - 0.5 * b2);
      const V ptot = pres + 0.5 * b2;
      d.f[irho()] = d.q[imom(dirc)];
      for (int k = 0; k < 3; ++k) {
        d.f[imom(k)] = d.q[imom(k)] * vd - bd * d.q[imag(k)];
        d.f[imag(k)] = d.q[imag(k)] * vd - d.q[imom(k)] * inv_rho * bd;
      }
      d.f[imom(dirc)] = d.f[imom(dirc)] + ptot;
      d.f[imag(dirc)] = zero;
      d.f[ieng()] = (d.q[ieng()] + ptot) * vd - bd * vdotb;
      const V vds = d.q[imom(dirc)] / rho;
      const V pc = lanes::select(pres < 0.0, zero, pres);
      const V a2 = g * pc / rho;
      const V ca2 = b2 / rho;
      const V cad2 = bd * bd / rho;
      const V ss = a2 + ca2;
      V disc = ss * ss - 4.0 * a2 * cad2;
      disc = lanes::select(disc < 0.0, zero, disc);
      const V cf = lanes::sqrt(0.5 * (ss + lanes::sqrt(disc)));
      d.lmin = vds - cf;
      d.lmax = vds + cf;
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

  /// Powell eight-wave source increment: du += -dt * divB * S8(u), where
  /// S8 = [0, Bx, By, Bz, vx, vy, vz, v.B]. `nbrs[2*d+side]` are the
  /// face-neighbor states used for the central-difference div B.
  void add_source(const State& u, const std::array<State, 2 * D>& nbrs,
                  const RVec<D>& dx, double dt, State& du) const {
    double divb = 0.0;
    for (int d = 0; d < D; ++d) {
      divb += (nbrs[2 * d + 1][imag(d)] - nbrs[2 * d + 0][imag(d)]) /
              (2.0 * dx[d]);
    }
    const double inv_rho = 1.0 / u[irho()];
    double vdotb = 0.0;
    for (int i = 0; i < 3; ++i)
      vdotb += u[imom(i)] * inv_rho * u[imag(i)];
    const double c = -dt * divb;
    for (int i = 0; i < 3; ++i) {
      du[imom(i)] += c * u[imag(i)];
      du[imag(i)] += c * u[imom(i)] * inv_rho;
    }
    du[ieng()] += c * vdotb;
  }

  /// Row form of the kernel's source step over `n` cells: cell i's variable
  /// v is u[v*fs + i], its face neighbours along d are at +-stride[d], and
  /// out[v*fs + i] gets the increment add_source writes into a zeroed du
  /// added to it. Every cell gets exactly the bits of that per-cell step,
  /// including the 0.0 + x of each accumulation into du (0.0 + -0.0 is
  /// +0.0, and the density's increment is a bare 0.0).
  ///
  /// Cells are updated W at a time in lanes, an odd last cell in a double
  /// (lanes::for_row<W>); div B is central differences of stride-1 loads.
  template <int W>
  void add_source_row(const double* u, std::int64_t fs,
                      const std::array<std::int64_t, D>& stride,
                      const RVec<D>& dx, double dt, double* out,
                      int n) const {
    lanes::for_row<W>(n, [&]<class V>(std::type_identity<V>, int i) {
      source_lanes<V>(u + i, fs, stride, dx, dt, out + i);
    });
  }

  /// add_source plus the accumulation into out for the cells one V
  /// holds, starting at u / out, with add_source's expressions in its order.
  template <class V>
  void source_lanes(const double* u, std::int64_t fs,
                    const std::array<std::int64_t, D>& stride,
                    const RVec<D>& dx, double dt, double* out) const {
    auto q = [&](int k) { return lanes::load<V>(u + k * fs); };
    V divb = lanes::broadcast<V>(0.0);
    for (int d = 0; d < D; ++d) {
      const double* b = u + imag(d) * fs;
      divb = divb + (lanes::load<V>(b + stride[d]) -
                     lanes::load<V>(b - stride[d])) /
                        (2.0 * dx[d]);
    }
    const V inv_rho = 1.0 / q(irho());
    V vdotb = lanes::broadcast<V>(0.0);
    for (int k = 0; k < 3; ++k)
      vdotb = vdotb + q(imom(k)) * inv_rho * q(imag(k));
    const V c = -dt * divb;
    V du[NVAR];
    du[irho()] = lanes::broadcast<V>(0.0);
    for (int k = 0; k < 3; ++k) {
      du[imom(k)] = 0.0 + c * q(imag(k));
      du[imag(k)] = 0.0 + c * q(imom(k)) * inv_rho;
    }
    du[ieng()] = 0.0 + c * vdotb;
    for (int k = 0; k < NVAR; ++k)
      lanes::store<V>(out + k * fs, lanes::load<V>(out + k * fs) + du[k]);
  }

  /// HLLD approximate Riemann solver (Miyoshi & Kusano, JCP 2005): a
  /// five-wave fan (fast/Alfven/entropy/Alfven/fast) that resolves MHD
  /// contact and rotational discontinuities Rusanov/HLL smear. The normal
  /// field at the interface is taken as the arithmetic mean (the eight-wave
  /// source absorbs the resulting div B, as in the production code).
  /// Selected via FluxScheme::Hlld.
  void hlld_flux(const State& uL, const State& uR, int dir, State& F) const {
    // Primitive decompositions.
    struct Side {
      double rho, u, p, pt, e;  // u = normal velocity, e = total energy
      RVec<3> v, b;
    };
    auto decompose = [&](const State& q) {
      Side s;
      s.rho = q[irho()];
      double b2 = 0.0;
      for (int i = 0; i < 3; ++i) {
        s.v[i] = q[imom(i)] / s.rho;
        s.b[i] = q[imag(i)];
        b2 += s.b[i] * s.b[i];
      }
      s.u = s.v[dir];
      s.p = pressure(q);
      s.pt = s.p + 0.5 * b2;
      s.e = q[ieng()];
      return s;
    };
    const Side l = decompose(uL), r = decompose(uR);
    const double bn = 0.5 * (l.b[dir] + r.b[dir]);

    // Outer signal speeds (Davis-type with the fast speed).
    const double cfl = fast_speed(uL, dir), cfr = fast_speed(uR, dir);
    const double sl = std::min(l.u - cfl, r.u - cfr);
    const double sr = std::max(l.u + cfl, r.u + cfr);

    auto physical_flux = [&](const State& q, State& f) { flux(q, dir, f); };
    if (sl >= 0.0) {
      physical_flux(uL, F);
      return;
    }
    if (sr <= 0.0) {
      physical_flux(uR, F);
      return;
    }

    // Middle (entropy) wave speed and the single star total pressure.
    const double dl = (sl - l.u) * l.rho;
    const double dr = (sr - r.u) * r.rho;
    const double sm = (dr * r.u - dl * l.u - r.pt + l.pt) / (dr - dl);
    const double pts = l.pt + dl * (sm - l.u);

    // Outer star state of one side.
    struct Star {
      double rho, e;
      RVec<3> v, b;
      double vdotb;
    };
    auto make_star = [&](const Side& s, double sk) {
      Star st;
      st.rho = s.rho * (sk - s.u) / (sk - sm);
      const double denom = s.rho * (sk - s.u) * (sk - sm) - bn * bn;
      st.v = s.v;
      st.b = s.b;
      st.v[dir] = sm;
      st.b[dir] = bn;
      if (std::fabs(denom) > 1e-12 * (s.rho * (sk - s.u) * (sk - s.u) +
                                      bn * bn + 1e-300)) {
        const double chi = (sm - s.u) / denom;
        const double psi = (s.rho * (sk - s.u) * (sk - s.u) - bn * bn) / denom;
        for (int i = 0; i < 3; ++i) {
          if (i == dir) continue;
          st.v[i] = s.v[i] - bn * s.b[i] * chi;
          st.b[i] = s.b[i] * psi;
        }
      } else {
        // Degenerate case (Miyoshi-Kusano eq. 44/47): switch off the
        // tangential field in the star region.
        for (int i = 0; i < 3; ++i) {
          if (i == dir) continue;
          st.b[i] = 0.0;
        }
      }
      double vb = 0.0, vbs = 0.0;
      for (int i = 0; i < 3; ++i) {
        vb += s.v[i] * s.b[i];
        vbs += st.v[i] * st.b[i];
      }
      st.vdotb = vbs;
      st.e = ((sk - s.u) * s.e - s.pt * s.u + pts * sm + bn * (vb - vbs)) /
             (sk - sm);
      return st;
    };
    const Star stl = make_star(l, sl), str = make_star(r, sr);

    auto pack = [&](double rho, const RVec<3>& v, const RVec<3>& b,
                    double e) {
      State q{};
      q[irho()] = rho;
      for (int i = 0; i < 3; ++i) {
        q[imom(i)] = rho * v[i];
        q[imag(i)] = b[i];
      }
      q[ieng()] = e;
      return q;
    };

    const double sqrl = std::sqrt(stl.rho), sqrr = std::sqrt(str.rho);
    const double sls = sm - std::fabs(bn) / sqrl;  // left Alfven wave
    const double srs = sm + std::fabs(bn) / sqrr;  // right Alfven wave

    State fk;
    auto flux_star_l = [&] {
      physical_flux(uL, fk);
      const State usl = pack(stl.rho, stl.v, stl.b, stl.e);
      for (int k = 0; k < NVAR; ++k) F[k] = fk[k] + sl * (usl[k] - uL[k]);
    };
    auto flux_star_r = [&] {
      physical_flux(uR, fk);
      const State usr = pack(str.rho, str.v, str.b, str.e);
      for (int k = 0; k < NVAR; ++k) F[k] = fk[k] + sr * (usr[k] - uR[k]);
    };
    if (bn == 0.0) {
      // No rotational layers: the fan is fast/entropy/fast (HLLC-like).
      if (sm >= 0.0)
        flux_star_l();
      else
        flux_star_r();
      return;
    }
    if (sls >= 0.0) {
      flux_star_l();
      return;
    }
    if (srs <= 0.0) {
      flux_star_r();
      return;
    }

    // Inner (double-star) region across the Alfven waves.
    const double s = bn >= 0.0 ? 1.0 : -1.0;
    RVec<3> vss, bss;
    vss[dir] = sm;
    bss[dir] = bn;
    const double denom2 = sqrl + sqrr;
    for (int i = 0; i < 3; ++i) {
      if (i == dir) continue;
      vss[i] = (sqrl * stl.v[i] + sqrr * str.v[i] +
                s * (str.b[i] - stl.b[i])) /
               denom2;
      bss[i] = (sqrl * str.b[i] + sqrr * stl.b[i] +
                s * sqrl * sqrr * (str.v[i] - stl.v[i])) /
               denom2;
    }
    double vbss = 0.0;
    for (int i = 0; i < 3; ++i) vbss += vss[i] * bss[i];

    if (sm >= 0.0) {
      const double ess = stl.e - sqrl * s * (stl.vdotb - vbss);
      const State usl = pack(stl.rho, stl.v, stl.b, stl.e);
      const State ussl = pack(stl.rho, vss, bss, ess);
      physical_flux(uL, fk);
      for (int k = 0; k < NVAR; ++k)
        F[k] = fk[k] + sl * (usl[k] - uL[k]) + sls * (ussl[k] - usl[k]);
    } else {
      const double ess = str.e + sqrr * s * (str.vdotb - vbss);
      const State usr = pack(str.rho, str.v, str.b, str.e);
      const State ussr = pack(str.rho, vss, bss, ess);
      physical_flux(uR, fk);
      for (int k = 0; k < NVAR; ++k)
        F[k] = fk[k] + sr * (usr[k] - uR[k]) + srs * (ussr[k] - usr[k]);
    }
  }

  /// Row form of hlld_flux over `nf` faces, with the lane contract of
  /// rusanov_flux_row: face i's left/right state variable v is read from
  /// pL[v*sL + i] / pR[v*sR + i], flux component v is written to
  /// F[v*lane + i]. Each face gets exactly the bits hlld_flux returns.
  ///
  /// Faces are solved W at a time in lanes, an odd last face in a double
  /// (lanes::for_row<W>, src/physics/lanes.hpp). hlld_lanes evaluates
  /// every region of the wave fan with hlld_flux's expressions in its order
  /// of operations and turns each branch into a mask select, so a lane
  /// carries no control flow. The lanes are explicit because the library's
  /// -O3 build does not vectorize this loop: std::sqrt keeps its errno path
  /// as a branch and the guarded divisions are not speculated.
  template <int W>
  void hlld_flux_row(int dir, const double* pL, std::int64_t sL,
                     const double* pR, std::int64_t sR, double* F,
                     std::int64_t lane, int nf) const {
    if (dir == 0) {
      hlld_flux_row_impl<W, 0>(pL, sL, pR, sR, F, lane, nf);
    } else if (dir == 1) {
      hlld_flux_row_impl<W, 1>(pL, sL, pR, sR, F, lane, nf);
    } else if constexpr (D >= 3) {
      hlld_flux_row_impl<W, 2>(pL, sL, pR, sR, F, lane, nf);
    }
  }

  template <int W, int dirc>
  void hlld_flux_row_impl(const double* pL, std::int64_t sL,
                          const double* pR, std::int64_t sR, double* F,
                          std::int64_t lane, int nf) const {
    lanes::for_row<W>(nf, [&]<class V>(std::type_identity<V>, int i) {
      hlld_lanes<dirc, V>(pL + i, sL, pR + i, sR, F + i, lane);
    });
  }

  /// hlld_flux for the faces one V holds, starting at pL / pR / F.
  template <int dirc, class V>
  void hlld_lanes(const double* pL, std::int64_t sL, const double* pR,
                  std::int64_t sR, double* F, std::int64_t lane) const {
    using Mask = decltype(V{} < V{});
    using lanes::mnot;
    using lanes::select;
    const V zero = lanes::broadcast<V>(0.0);
    const double g = gamma;
    const double gm1 = g - 1.0;

    // Primitive decompositions (decompose + pressure in hlld_flux). Its
    // |B|^2 and |m|^2 sums start from 0.0; 0.0 + x*x is x*x for every x.
    struct Side {
      V q[NVAR];
      V rho, u, p, pt, e, b2;
      V v[3], b[3];
    };
    auto decompose = [&](const double* p, std::int64_t s) {
      Side d;
      for (int k = 0; k < NVAR; ++k) d.q[k] = lanes::load<V>(p + k * s);
      d.rho = d.q[irho()];
      for (int k = 0; k < 3; ++k) {
        d.v[k] = d.q[imom(k)] / d.rho;
        d.b[k] = d.q[imag(k)];
      }
      d.b2 = d.b[0] * d.b[0] + d.b[1] * d.b[1] + d.b[2] * d.b[2];
      V ke = d.q[imom(0)] * d.q[imom(0)] + d.q[imom(1)] * d.q[imom(1)] +
             d.q[imom(2)] * d.q[imom(2)];
      ke = ke * (0.5 / d.rho);
      d.p = gm1 * (d.q[ieng()] - ke - 0.5 * d.b2);
      d.u = d.v[dirc];
      d.pt = d.p + 0.5 * d.b2;
      d.e = d.q[ieng()];
      return d;
    };
    auto fast_speed_of = [&](const Side& d) {
      const V p = select(d.p < 0.0, zero, d.p);
      const V a2 = g * p / d.rho;
      const V ca2 = d.b2 / d.rho;
      const V cad2 = d.b[dirc] * d.b[dirc] / d.rho;
      const V s = a2 + ca2;
      V disc = s * s - 4.0 * a2 * cad2;
      disc = select(disc < 0.0, zero, disc);
      return lanes::sqrt(0.5 * (s + lanes::sqrt(disc)));
    };
    const Side l = decompose(pL, sL), r = decompose(pR, sR);
    const V bn = 0.5 * (l.b[dirc] + r.b[dirc]);
    const V cfl = fast_speed_of(l), cfr = fast_speed_of(r);
    const V sl = lanes::min(l.u - cfl, r.u - cfr);
    const V sr = lanes::max(l.u + cfl, r.u + cfr);

    const V dl = (sl - l.u) * l.rho;
    const V dr = (sr - r.u) * r.rho;
    const V sm = (dr * r.u - dl * l.u - r.pt + l.pt) / (dr - dl);
    const V pts = l.pt + dl * (sm - l.u);

    // Outer star states; a degenerate denominator switches off the
    // tangential field.
    struct Star {
      V rho, e, vdotb;
      V v[3], b[3];
    };
    auto make_star = [&](const Side& d, const V& sk) {
      Star st;
      const V rsk = d.rho * (sk - d.u);
      const V rsk2 = rsk * (sk - d.u);
      st.rho = rsk / (sk - sm);
      const V denom = rsk * (sk - sm) - bn * bn;
      const Mask regular =
          lanes::fabs(denom) > 1e-12 * (rsk2 + bn * bn + 1e-300);
      const V chi = (sm - d.u) / denom;
      const V psi = (rsk2 - bn * bn) / denom;
      for (int k = 0; k < 3; ++k) {
        if (k == dirc) {
          st.v[k] = sm;
          st.b[k] = bn;
        } else {
          st.v[k] = select(regular, d.v[k] - bn * d.b[k] * chi, d.v[k]);
          st.b[k] = select(regular, d.b[k] * psi, zero);
        }
      }
      const V vb = 0.0 + d.v[0] * d.b[0] + d.v[1] * d.b[1] + d.v[2] * d.b[2];
      st.vdotb =
          0.0 + st.v[0] * st.b[0] + st.v[1] * st.b[1] + st.v[2] * st.b[2];
      st.e = ((sk - d.u) * d.e - d.pt * d.u + pts * sm +
              bn * (vb - st.vdotb)) /
             (sk - sm);
      return st;
    };
    const Star stl = make_star(l, sl), str = make_star(r, sr);
    const V sqrl = lanes::sqrt(stl.rho), sqrr = lanes::sqrt(str.rho);
    const V sls = sm - lanes::fabs(bn) / sqrl;
    const V srs = sm + lanes::fabs(bn) / sqrr;

    // Double-star state.
    const V sgn = select(bn >= 0.0, lanes::broadcast<V>(1.0),
                         lanes::broadcast<V>(-1.0));
    const V denom2 = sqrl + sqrr;
    V vss[3], bss[3];
    for (int k = 0; k < 3; ++k) {
      if (k == dirc) {
        vss[k] = sm;
        bss[k] = bn;
      } else {
        vss[k] = (sqrl * stl.v[k] + sqrr * str.v[k] +
                  sgn * (str.b[k] - stl.b[k])) /
                 denom2;
        bss[k] = (sqrl * str.b[k] + sqrr * stl.b[k] +
                  sgn * sqrl * sqrr * (str.v[k] - stl.v[k])) /
                 denom2;
      }
    }
    const V vbss = 0.0 + vss[0] * bss[0] + vss[1] * bss[1] + vss[2] * bss[2];

    // hlld_flux's branches in its order: supersonic left, supersonic right;
    // then with bn == 0 the star state on sm's side; else the left star
    // (sls >= 0), the right star (srs <= 0), or the double star on sm's
    // side. `left` picks the side whose state, flux and stars are used.
    const Mask super_l = sl >= 0.0;
    const Mask sub = mnot(super_l | (sr <= 0.0));
    const Mask bn0 = bn == 0.0;
    const Mask sm_pos = sm >= 0.0;
    const Mask star_l = sls >= 0.0;
    const Mask star_r = srs <= 0.0;
    const Mask dstar = sub & mnot(bn0 | star_l | star_r);
    const Mask left =
        super_l | (sub & ((bn0 & sm_pos) |
                          (mnot(bn0) & (star_l | (mnot(star_r) & sm_pos)))));

    V q[NVAR];
    for (int k = 0; k < NVAR; ++k) q[k] = select(left, l.q[k], r.q[k]);
    Star st;
    st.rho = select(left, stl.rho, str.rho);
    st.e = select(left, stl.e, str.e);
    st.vdotb = select(left, stl.vdotb, str.vdotb);
    for (int k = 0; k < 3; ++k) {
      st.v[k] = select(left, stl.v[k], str.v[k]);
      st.b[k] = select(left, stl.b[k], str.b[k]);
    }
    const V sk = select(left, sl, sr);
    const V sks = select(left, sls, srs);
    const V dess = select(left, sqrl, sqrr) * sgn * (st.vdotb - vbss);
    const V ess = select(left, st.e - dess, st.e + dess);

    // Physical flux of the chosen side (flux()); its total pressure is the
    // decomposition's, from the same pressure and |B|^2 sums.
    const V ptot = select(left, l.pt, r.pt);
    const V inv_rho = 1.0 / q[irho()];
    const V vd = q[imom(dirc)] * inv_rho;
    const V bd = q[imag(dirc)];
    const V vdotb = 0.0 + q[imom(0)] * inv_rho * q[imag(0)] +
                    q[imom(1)] * inv_rho * q[imag(1)] +
                    q[imom(2)] * inv_rho * q[imag(2)];
    V fk[NVAR];
    fk[irho()] = q[imom(dirc)];
    for (int k = 0; k < 3; ++k) {
      fk[imom(k)] = q[imom(k)] * vd - bd * q[imag(k)];
      fk[imag(k)] = q[imag(k)] * vd - q[imom(k)] * inv_rho * bd;
    }
    fk[imom(dirc)] = fk[imom(dirc)] + ptot;
    fk[imag(dirc)] = zero;
    fk[ieng()] = (q[ieng()] + ptot) * vd - bd * vdotb;

    // Star and double-star conserved states (pack in hlld_flux).
    V us[NVAR], uss[NVAR];
    us[irho()] = st.rho;
    uss[irho()] = st.rho;
    for (int k = 0; k < 3; ++k) {
      us[imom(k)] = st.rho * st.v[k];
      us[imag(k)] = st.b[k];
      uss[imom(k)] = st.rho * vss[k];
      uss[imag(k)] = bss[k];
    }
    us[ieng()] = st.e;
    uss[ieng()] = ess;

    for (int k = 0; k < NVAR; ++k) {
      const V fs = fk[k] + sk * (us[k] - q[k]);
      const V fss = fs + sks * (uss[k] - us[k]);
      lanes::store<V>(F + k * lane, select(dstar, fss, select(sub, fs, fk[k])));
    }
  }

  /// Conserved state from primitives (density, velocity, B, pressure).
  State from_primitive(double rho, const RVec<3>& vel, const RVec<3>& b,
                       double p) const {
    AB_REQUIRE(rho > 0.0 && p > 0.0, "IdealMhd: non-positive primitives");
    State u{};
    u[irho()] = rho;
    double ke = 0.0, b2 = 0.0;
    for (int i = 0; i < 3; ++i) {
      u[imom(i)] = rho * vel[i];
      u[imag(i)] = b[i];
      ke += vel[i] * vel[i];
      b2 += b[i] * b[i];
    }
    u[ieng()] = p / (gamma - 1.0) + 0.5 * rho * ke + 0.5 * b2;
    return u;
  }

  /// Clamp density and pressure to floors (in place); returns true if the
  /// state needed fixing.
  bool fix_state(State& u, double rho_floor = 1e-12,
                 double p_floor = 1e-12) const {
    bool fixed = false;
    if (u[irho()] < rho_floor) {
      u[irho()] = rho_floor;
      fixed = true;
    }
    double p = pressure(u);
    if (p < p_floor) {
      double ke = 0.0, b2 = 0.0;
      for (int i = 0; i < 3; ++i) {
        ke += u[imom(i)] * u[imom(i)];
        b2 += u[imag(i)] * u[imag(i)];
      }
      ke *= 0.5 / u[irho()];
      u[ieng()] = p_floor / (gamma - 1.0) + ke + 0.5 * b2;
      fixed = true;
    }
    return fixed;
  }

  // Rough arithmetic-operation counts per call; the per-cell total for a
  // second-order 3D update (~420 flops) matches the order of magnitude the
  // Michigan MHD code reported on the T3D.
  static constexpr std::uint64_t kFluxFlops = 42;
  static constexpr std::uint64_t kSpeedFlops = 24;
};

}  // namespace ab
