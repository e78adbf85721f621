// Explicit SIMD lanes for pencil rows whose per-element form branches.
//
// A row kernel written once as a template over the lane type V evaluates
// two faces (or cells) at a time with f64x2 (a GCC vector of two doubles;
// SSE2 is the x86-64 baseline) and an odd last one with plain double;
// for_row is that pair-then-tail loop. Every branch of the per-element
// code becomes a mask select: both arms are evaluated and the select keeps
// the bits the branch would have produced. The helpers below give the two
// lane types one spelling for the operations that differ.
#pragma once

#include <cmath>
#include <cstring>
#include <type_traits>

namespace ab::lanes {

using f64x2 = double __attribute__((vector_size(16)));
using m64x2 = decltype(f64x2{} < f64x2{});  ///< all-ones / all-zeros lanes

/// Elements one value of V holds.
template <class V>
inline constexpr int kWidth = sizeof(V) / sizeof(double);

/// The row loop of a lane kernel over elements [0, n): calls
/// body(std::type_identity<f64x2>{}, i) for each pair i, i + 1, then
/// body(std::type_identity<double>{}, n - 1) if n is odd.
template <class Body>
inline void for_row(int n, Body&& body) {
  int i = 0;
  for (; i + kWidth<f64x2> <= n; i += kWidth<f64x2>)
    body(std::type_identity<f64x2>{}, i);
  if (i < n) body(std::type_identity<double>{}, i);
}

template <class V>
inline V broadcast(double x) {
  if constexpr (std::is_same_v<V, double>)
    return x;
  else
    return V{x, x};
}

template <class V>
inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <class V>
inline void store(double* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

/// `m ? a : b` per lane.
inline double select(bool m, double a, double b) { return m ? a : b; }
inline f64x2 select(m64x2 m, f64x2 a, f64x2 b) { return m ? a : b; }

inline bool mnot(bool m) { return !m; }
inline m64x2 mnot(m64x2 m) { return ~m; }

/// std::fabs: clears the sign bit, NaNs included.
inline double fabs(double x) { return std::fabs(x); }
inline f64x2 fabs(f64x2 x) {
  constexpr long long kMagnitude = 0x7fffffffffffffffLL;
  return reinterpret_cast<f64x2>(reinterpret_cast<m64x2>(x) &
                                 m64x2{kMagnitude, kMagnitude});
}

/// Correctly rounded square root. The vector form is a single sqrtpd; a
/// call to std::sqrt keeps its errno path as a branch at -O3 unless the
/// build adds -fno-math-errno, which the library build does not.
inline double sqrt(double x) { return std::sqrt(x); }
inline f64x2 sqrt(f64x2 x) {
#ifdef __SSE2__
  return __builtin_ia32_sqrtpd(x);
#else
  return f64x2{std::sqrt(x[0]), std::sqrt(x[1])};
#endif
}

/// std::min / std::max, including which operand a NaN or a signed-zero
/// tie returns.
template <class V>
inline V min(V a, V b) {
  return select(b < a, b, a);
}
template <class V>
inline V max(V a, V b) {
  return select(a < b, b, a);
}

}  // namespace ab::lanes
