// Slope limiters for MUSCL reconstruction (van Leer ref [6] lineage).
//
// Each limiter exists in two forms: the per-value `limited_slope`
// (dispatching on LimiterKind) and the row form `limited_slope_row`, which
// hoists the kind switch out of the loop so each case body is a tight
// stride-1 loop over the pencil lanes the block-update kernel prepares.
// MinMod and None run the per-value functions in plain loops, which GCC
// vectorizes at the baseline ISA. It does not if-convert van Leer's
// guarded division or MC's early return, so those two rows run explicit
// two-lane bodies (src/physics/lanes.hpp) with every branch a mask select.
// Both forms evaluate the identical arithmetic, so the pencil kernel stays
// bitwise identical to the scalar reference.
#pragma once

#include <cmath>
#include <type_traits>

#include "physics/lanes.hpp"
#include "util/aligned.hpp"

namespace ab {

enum class LimiterKind {
  MinMod,   ///< most dissipative TVD limiter
  VanLeer,  ///< harmonic-mean limiter of van Leer
  MC,       ///< monotonized central
  None      ///< unlimited central slope (not TVD; for smooth problems)
};

namespace detail {

inline double minmod_slope(double dm, double dp) {
  if (dm * dp <= 0.0) return 0.0;
  double am = std::fabs(dm), ap = std::fabs(dp);
  double m = am < ap ? am : ap;
  return dm > 0 ? m : -m;
}

inline double vanleer_slope(double dm, double dp) {
  double denom = dm + dp;
  if (dm * dp <= 0.0 || denom == 0.0) return 0.0;
  return 2.0 * dm * dp / denom;
}

inline double mc_slope(double dm, double dp) {
  if (dm * dp <= 0.0) return 0.0;
  double c = 0.5 * (dm + dp);
  double am = 2.0 * std::fabs(dm), ap = 2.0 * std::fabs(dp);
  double lim = am < ap ? am : ap;
  double ac = std::fabs(c);
  double m = ac < lim ? ac : lim;
  return c > 0 ? m : -m;
}

inline double central_slope(double dm, double dp) { return 0.5 * (dm + dp); }

/// vanleer_slope for lanes::kWidth<V> cells: the same expressions, the
/// early return a select.
template <class V>
inline V vanleer_slope_lanes(V dm, V dp) {
  const V denom = dm + dp;
  const V slope = 2.0 * dm * dp / denom;
  return lanes::select((dm * dp <= 0.0) | (denom == 0.0),
                       lanes::broadcast<V>(0.0), slope);
}

/// mc_slope for lanes::kWidth<V> cells: the same expressions, every branch
/// a select.
template <class V>
inline V mc_slope_lanes(V dm, V dp) {
  const V c = 0.5 * (dm + dp);
  const V am = 2.0 * lanes::fabs(dm), ap = 2.0 * lanes::fabs(dp);
  const V lim = lanes::select(am < ap, am, ap);
  const V ac = lanes::fabs(c);
  const V m = lanes::select(ac < lim, ac, lim);
  return lanes::select(dm * dp <= 0.0, lanes::broadcast<V>(0.0),
                       lanes::select(c > 0.0, m, -m));
}

}  // namespace detail

/// Limited slope from the backward difference `dm` (u_i - u_{i-1}) and the
/// forward difference `dp` (u_{i+1} - u_i).
inline double limited_slope(LimiterKind k, double dm, double dp) {
  switch (k) {
    case LimiterKind::MinMod:
      return detail::minmod_slope(dm, dp);
    case LimiterKind::VanLeer:
      return detail::vanleer_slope(dm, dp);
    case LimiterKind::MC:
      return detail::mc_slope(dm, dp);
    case LimiterKind::None:
      return detail::central_slope(dm, dp);
  }
  return 0.0;
}

/// Row form: s[i] = limited_slope(k, uc[i] - um[i], up[i] - uc[i]) for
/// i in [0, n). `um`, `uc`, `up` are the lower/center/upper neighbor rows of
/// the cells being limited (stride-1 along the pencil axis).
inline void limited_slope_row(LimiterKind k, const double* AB_RESTRICT um,
                              const double* AB_RESTRICT uc,
                              const double* AB_RESTRICT up,
                              double* AB_RESTRICT s, int n) {
  switch (k) {
    case LimiterKind::MinMod:
      for (int i = 0; i < n; ++i)
        s[i] = detail::minmod_slope(uc[i] - um[i], up[i] - uc[i]);
      break;
    case LimiterKind::VanLeer:
      lanes::for_row(n, [&]<class V>(std::type_identity<V>, int i) {
        const V c = lanes::load<V>(uc + i);
        lanes::store<V>(s + i,
                        detail::vanleer_slope_lanes(c - lanes::load<V>(um + i),
                                                    lanes::load<V>(up + i) - c));
      });
      break;
    case LimiterKind::MC:
      lanes::for_row(n, [&]<class V>(std::type_identity<V>, int i) {
        const V c = lanes::load<V>(uc + i);
        lanes::store<V>(s + i,
                        detail::mc_slope_lanes(c - lanes::load<V>(um + i),
                                               lanes::load<V>(up + i) - c));
      });
      break;
    case LimiterKind::None:
      for (int i = 0; i < n; ++i)
        s[i] = detail::central_slope(uc[i] - um[i], up[i] - uc[i]);
      break;
  }
}

}  // namespace ab
