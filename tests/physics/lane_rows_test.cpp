// The lane rows against their per-face and per-cell oracles, bit for bit:
// the Rusanov flux rows of Euler and ideal MHD and the HLLD row against
// detail::numerical_flux / hlld_flux, the slope rows against
// limited_slope, and the Powell source row against add_source with the
// kernel's per-cell accumulation. Each check runs at lane width 2 and,
// through the AVX2 entry, at width 4 (support/lane_width.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/block_store.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/lanes.hpp"
#include "physics/limiter.hpp"
#include "physics/mhd.hpp"
#include "support/flux_row.hpp"
#include "support/lane_width.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

// --- Euler Rusanov row ----------------------------------------------------

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
/// face, for rows of nf in {1, 2, 7, 8, 9} in lane-scratch and in block
/// layout. `clamped[0]` / `clamped[1]` count face states whose pressure
/// was kept / clamped to 0 for the sound speed.
template <int W, int D>
void fuzz_rusanov_row(const Euler<D>& phys, int dir, std::uint64_t seed,
                      std::array<std::int64_t, 2>& clamped) {
  using State = typename Euler<D>::State;
  testing::SplitMix64 rng(seed);
  auto row = [&](const double* pL, std::int64_t sL, const double* pR,
                 std::int64_t sR, double* F, std::int64_t lane, int nf) {
    lanes::at_width<W>([&] {
      phys.template rusanov_flux_row<W>(dir, pL, sL, pR, sR, F, lane, nf);
    });
  };
  auto face = [&](const State& uL, const State& uR, State& f) {
    detail::numerical_flux<Euler<D>>(phys, FluxScheme::Rusanov, uL, uR, dir,
                                     f);
  };
  for (int nf : {1, 2, 7, 8, 9}) {
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

AB_LANE_WIDTH_TEST(Euler, RusanovRowMatchesPerFaceBitwise) {
  std::array<std::int64_t, 2> clamped{};
  Euler<1> phys1;
  fuzz_rusanov_row<W, 1>(phys1, 0, testing::splitmix64(10), clamped);
  Euler<2> phys2;
  for (int dir = 0; dir < 2; ++dir)
    fuzz_rusanov_row<W, 2>(phys2, dir, testing::splitmix64(20 + dir),
                           clamped);
  Euler<3> phys3;
  phys3.gamma = 5.0 / 3.0;
  for (int dir = 0; dir < 3; ++dir)
    fuzz_rusanov_row<W, 3>(phys3, dir, testing::splitmix64(30 + dir),
                           clamped);
  EXPECT_GT(clamped[0], 0) << "no face state had p > 0";
  EXPECT_GT(clamped[1], 0) << "no face state had its pressure clamped";
}

// --- ideal MHD Rusanov row -----------------------------------------------

// The arms of flux_and_speeds' two clamps, which the row form turns into
// selects.
enum ClampArm { kPressureKept, kPressureClamped, kDiscKept, kDiscClamped };
constexpr const char* kClampArmNames[] = {
    "pressure kept", "pressure clamped", "discriminant kept",
    "discriminant clamped"};

/// Fuzzes rusanov_flux_row(dir) against detail::numerical_flux face by
/// face, for rows of nf in {1, 2, 7, 8, 9} in lane-scratch and in block
/// layout, counting in `hit` the clamp arms the face states take.
template <int W, int D>
void fuzz_rusanov_row(const IdealMhd<D>& phys, int dir, std::uint64_t seed,
                      std::array<std::int64_t, 4>& hit) {
  using M = IdealMhd<D>;
  using State = typename M::State;
  testing::SplitMix64 rng(seed);
  auto row = [&](const double* pL, std::int64_t sL, const double* pR,
                 std::int64_t sR, double* F, std::int64_t lane, int nf) {
    lanes::at_width<W>([&] {
      phys.template rusanov_flux_row<W>(dir, pL, sL, pR, sR, F, lane, nf);
    });
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
  for (int nf : {1, 2, 7, 8, 9}) {
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

AB_LANE_WIDTH_TEST(IdealMhd, RusanovRowMatchesPerFaceBitwise) {
  std::array<std::int64_t, 4> hit{};
  IdealMhd<2> phys2;
  phys2.gamma = 1.4;
  for (int dir = 0; dir < 2; ++dir)
    fuzz_rusanov_row<W, 2>(phys2, dir, testing::splitmix64(40 + dir), hit);
  IdealMhd<3> phys3;
  for (int dir = 0; dir < 3; ++dir)
    fuzz_rusanov_row<W, 3>(phys3, dir, testing::splitmix64(50 + dir), hit);
  for (int a = 0; a < 4; ++a)
    EXPECT_GT(hit[a], 0) << "no face state took the " << kClampArmNames[a]
                         << " arm";
}

// --- HLLD row --------------------------------------------------------------

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
/// nf in {1, 2, 7, 8, 9} in lane-scratch and in block layout.
template <int W, int D>
void fuzz_hlld_row(const IdealMhd<D>& phys, int dir, std::uint64_t seed,
                   std::array<std::int64_t, kNumArms>& hit) {
  using State = typename IdealMhd<D>::State;
  testing::SplitMix64 rng(seed);
  auto row = [&](const double* pL, std::int64_t sL, const double* pR,
                 std::int64_t sR, double* F, std::int64_t lane, int nf) {
    lanes::at_width<W>([&] {
      phys.template hlld_flux_row<W>(dir, pL, sL, pR, sR, F, lane, nf);
    });
  };
  auto face = [&](const State& uL, const State& uR, State& f) {
    phys.hlld_flux(uL, uR, dir, f);
  };
  for (int nf : {1, 2, 7, 8, 9}) {
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

AB_LANE_WIDTH_TEST(Hlld, RowMatchesPerFaceBitwise) {
  std::array<std::int64_t, kNumArms> hit{};
  IdealMhd<2> phys2;
  phys2.gamma = 1.4;
  for (int dir = 0; dir < 2; ++dir)
    fuzz_hlld_row<W, 2>(phys2, dir, testing::splitmix64(20 + dir), hit);
  IdealMhd<3> phys3;
  for (int dir = 0; dir < 3; ++dir)
    fuzz_hlld_row<W, 3>(phys3, dir, testing::splitmix64(30 + dir), hit);
  // Every arm of the per-face branch tree was exercised, so no select in
  // the row form went untested.
  for (int a = 0; a < kNumArms; ++a)
    EXPECT_GT(hit[a], 0) << "no face took the " << kArmNames[a] << " arm";
}

// --- slope rows ------------------------------------------------------------

/// One cell value for the slope-row fuzz: a special (signed zero,
/// subnormal, infinity, NaN, huge), a dyadic grid value (whose differences
/// are exact, so dm = dp occurs), a mirror of the cell two back (dm = -dp
/// at the cell between), a linear continuation (dm = dp), or a plain
/// random value.
double fuzz_cell(const std::vector<double>& u, testing::SplitMix64& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSpecials[] = {
      0.0,     -0.0,     4.9e-324, -4.9e-324, 1e-310, -2e-310,
      kInf,    -kInf,    std::numeric_limits<double>::quiet_NaN(),
      1e308,   -1e308,   1.0,      -1.0};
  const std::size_t n = u.size();
  switch (rng.below(6)) {
    case 0:
      return kSpecials[rng.below(std::size(kSpecials))];
    case 1:
      return static_cast<double>(rng.below(33)) / 8.0 - 2.0;
    case 2:
      if (n >= 2) return u[n - 2];
      break;
    case 3:
      if (n >= 2) return 2.0 * u[n - 1] - u[n - 2];
      break;
    default:
      break;
  }
  return rng.uniform(-2.0, 2.0);
}

AB_LANE_WIDTH_TEST(Limiter, RowMatchesPerValueBitwise) {
  // Coverage of the special difference pairs the row must reproduce.
  enum { kSignedZero, kSubnormal, kInfinite, kNan, kEqual, kOpposite, kNum };
  const char* names[kNum] = {"signed zero", "subnormal", "infinity",
                             "NaN",         "dm = dp",   "dm = -dp"};
  std::array<std::int64_t, kNum> seen{};
  testing::SplitMix64 rng(testing::splitmix64(60));
  for (LimiterKind k : {LimiterKind::MinMod, LimiterKind::VanLeer,
                        LimiterKind::MC, LimiterKind::None}) {
    for (int n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
      for (int start : {0, 1}) {  // start 1: unaligned pairs
        for (int trial = 0; trial < 300; ++trial) {
          // Cells start-1 .. start+n; the row limits cells start .. start+n-1
          // with the neighbour rows offset by one, as the dim-0 sweep does.
          std::vector<double> u;
          for (int c = 0; c < n + 2; ++c) u.push_back(fuzz_cell(u, rng));
          std::vector<double> cells(start, 0.0);
          cells.insert(cells.end(), u.begin(), u.end());
          const double* uc = cells.data() + start + 1;
          std::vector<double> row(n + 4, -1234.5), expect(n + 4, -1234.5);
          lanes::at_width<W>([&] {
            limited_slope_row<W>(k, uc - 1, uc, uc + 1, row.data() + start,
                                 n);
          });
          for (int i = 0; i < n; ++i) {
            const double dm = uc[i] - uc[i - 1], dp = uc[i + 1] - uc[i];
            expect[start + i] = limited_slope(k, dm, dp);
            if ((dm == 0.0 && std::signbit(dm)) ||
                (dp == 0.0 && std::signbit(dp)))
              ++seen[kSignedZero];
            if (std::fpclassify(dm) == FP_SUBNORMAL ||
                std::fpclassify(dp) == FP_SUBNORMAL)
              ++seen[kSubnormal];
            if (std::isinf(dm) || std::isinf(dp)) ++seen[kInfinite];
            if (std::isnan(dm) || std::isnan(dp)) ++seen[kNan];
            if (dm == dp && dm != 0.0) ++seen[kEqual];
            if (dm == -dp && dm != 0.0) ++seen[kOpposite];
          }
          for (int i = 0; i < n + 4; ++i) {
            // A NaN's sign and payload follow the operand order of the
            // operation that propagated it, and the compiler may commute
            // dm + dp; so a NaN must stay a NaN, and every other value
            // must match bit for bit.
            if (std::isnan(row[i]) && std::isnan(expect[i])) continue;
            ASSERT_EQ(0, std::memcmp(&row[i], &expect[i], sizeof(double)))
                << "limiter=" << static_cast<int>(k) << " n=" << n
                << " start=" << start << " trial=" << trial << " index=" << i
                << ": " << row[i] << " vs " << expect[i];
          }
        }
      }
    }
  }
  for (int c = 0; c < kNum; ++c)
    EXPECT_GT(seen[c], 0) << "no cell had " << names[c] << " differences";
}

// --- add_source_row against the kernel's per-cell source step ----------

// The cases that tell the row's 0.0 + x accumulations from plain x.
enum SourceCase { kDivBZero, kNegZeroTermOnNegZero, kDensityOnNegZero, kNum };
constexpr const char* kSourceCaseNames[kNum] = {
    "div B = 0", "a -0.0 increment term on a -0.0 output",
    "a density increment on a -0.0 output"};

/// Fuzzes add_source_row over rows of 1-9 cells of a D-dimensional block
/// against the kernel's per-cell step (add_source into a zeroed du, then
/// out += du), comparing the whole output block with memcmp. Momenta and
/// fields are +-0 in some cells, some rows hold a uniform field (div B = 0
/// exactly, so c = -dt * 0.0 = -0.0), and the output starts at -0.0 in
/// some cells; `seen` counts the cases that show the 0.0 + x terms.
template <int W, int D>
void fuzz_source_row(const IdealMhd<D>& phys, std::uint64_t seed,
                     std::array<std::int64_t, kNum>& seen) {
  using M = IdealMhd<D>;
  using State = typename M::State;
  testing::SplitMix64 rng(seed);
  const BlockLayout<D> lay(IVec<D>(11), 1, M::NVAR);
  const std::int64_t fs = lay.field_stride();
  const auto nd = static_cast<std::size_t>(lay.block_doubles());
  std::array<std::int64_t, D> stride;
  for (int d = 0; d < D; ++d) stride[d] = lay.stride(d);
  auto signed_zero_or = [&](double x) {
    switch (rng.below(8)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      default:
        return x;
    }
  };
  for (int n = 1; n <= 9; ++n) {
    for (int trial = 0; trial < 60; ++trial) {
      const bool uniform_field = rng.below(3) == 0;
      double b0[3];
      for (double& b : b0) b = signed_zero_or(rng.uniform(-1.5, 1.5));
      std::vector<double> uin(nd), row_out(nd);
      for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) {
        const std::int64_t off = lay.offset(p);
        uin[M::irho() * fs + off] = rng.uniform(0.2, 2.0);
        for (int k = 0; k < 3; ++k) {
          uin[M::imom(k) * fs + off] = signed_zero_or(rng.uniform(-2.0, 2.0));
          uin[M::imag(k) * fs + off] =
              uniform_field ? b0[k] : signed_zero_or(rng.uniform(-1.5, 1.5));
        }
        uin[M::ieng() * fs + off] = rng.uniform(1.0, 3.0);
      });
      for (double& x : row_out)
        x = rng.below(3) == 0 ? -0.0 : rng.uniform(-1.0, 1.0);
      std::vector<double> cell_out(row_out);
      RVec<D> dx;
      for (int d = 0; d < D; ++d) dx[d] = rng.uniform(0.01, 0.1);
      const double dt = rng.uniform(1e-4, 1e-2);

      // The row: n cells along dim 0 from a random interior cell.
      IVec<D> p0;
      p0[0] = static_cast<int>(rng.below(12 - n));
      for (int d = 1; d < D; ++d) p0[d] = static_cast<int>(rng.below(11));
      const std::int64_t off0 = lay.offset(p0);
      lanes::at_width<W>([&] {
        phys.template add_source_row<W>(uin.data() + off0, fs, stride, dx, dt,
                                        row_out.data() + off0, n);
      });
      for (int i = 0; i < n; ++i) {
        const std::int64_t off = off0 + i;
        State u;
        std::array<State, 2 * D> nbrs;
        for (int v = 0; v < M::NVAR; ++v) {
          u[v] = uin[v * fs + off];
          for (int d = 0; d < D; ++d) {
            nbrs[2 * d + 0][v] = uin[v * fs + off - stride[d]];
            nbrs[2 * d + 1][v] = uin[v * fs + off + stride[d]];
          }
        }
        State du{};
        phys.add_source(u, nbrs, dx, dt, du);
        // add_source's terms before their 0.0 + accumulation.
        double divb = 0.0;
        for (int d = 0; d < D; ++d)
          divb += (nbrs[2 * d + 1][M::imag(d)] - nbrs[2 * d][M::imag(d)]) /
                  (2.0 * dx[d]);
        const double c = -dt * divb;
        if (divb == 0.0) ++seen[kDivBZero];
        auto neg_zero = [](double x) { return x == 0.0 && std::signbit(x); };
        for (int k = 0; k < 3; ++k) {
          const double term = c * u[M::imag(k)];
          if (neg_zero(term) && neg_zero(cell_out[M::imom(k) * fs + off]))
            ++seen[kNegZeroTermOnNegZero];
        }
        if (neg_zero(cell_out[M::irho() * fs + off])) ++seen[kDensityOnNegZero];
        for (int v = 0; v < M::NVAR; ++v) cell_out[v * fs + off] += du[v];
      }
      SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n
                                        << " trial=" << trial);
      for (std::size_t j = 0; j < nd; ++j)
        ASSERT_EQ(0, std::memcmp(&row_out[j], &cell_out[j], sizeof(double)))
            << "index " << j << ": " << row_out[j] << " vs " << cell_out[j];
    }
  }
}

AB_LANE_WIDTH_TEST(IdealMhd, SourceRowMatchesPerCellBitwise) {
  std::array<std::int64_t, kNum> seen{};
  IdealMhd<2> phys2;
  fuzz_source_row<W, 2>(phys2, testing::splitmix64(70), seen);
  IdealMhd<3> phys3;
  fuzz_source_row<W, 3>(phys3, testing::splitmix64(71), seen);
  for (int c = 0; c < kNum; ++c)
    EXPECT_GT(seen[c], 0) << "no cell had " << kSourceCaseNames[c];
}

}  // namespace
}  // namespace ab
