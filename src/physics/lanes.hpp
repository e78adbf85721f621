// Explicit SIMD lanes for pencil rows whose per-element form branches.
//
// A row kernel written once as a template over the lane type V evaluates
// several faces (or cells) at a time in a GCC vector of doubles and an odd
// last one with plain double; for_row<W> is that widest-first loop. Every
// branch of the per-element code becomes a mask select: both arms are
// evaluated and the select keeps the bits the branch would have produced,
// so each element gets the per-element code's bits at every width. The
// helpers below give the lane types one spelling for the operations that
// differ.
//
// Two widths are compiled. Width 2 (f64x2; SSE2 is the x86-64 baseline)
// runs as the translation unit is compiled. Width 4 (f64x4) runs through
// at_width<4> inside detail::avx2_entry, the one function compiled for
// AVX2, which inlines the whole call tree it is given (flatten).
// max_width() says which of the two this CPU runs, probed once per
// process. The AVX2 target enables no FMA, so no build can contract
// a*b + c into one rounding there.
#pragma once

#include <cmath>
#include <cstring>
#include <type_traits>

// -Wpsabi: a vector of four doubles passes in a ymm register under AVX and
// in memory without it, and GCC warns where baseline code could return one
// (it reports that where it instantiates the lane bodies, at the end of the
// translation unit, so the pragma stays on for the rest of any unit that
// includes this header). No call crosses the two conventions: no function
// that takes or returns an f64x4 carries a target attribute, so either the
// AVX2 entry inlines the whole call tree below it (flatten, at -O1 and up)
// or none of it (-O0), and then every f64x4 call is baseline to baseline.
// f64x4 parameters are passed by reference, which has one convention.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace ab::lanes {

using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));
using m64x2 = decltype(f64x2{} < f64x2{});  ///< all-ones / all-zeros lanes
using m64x4 = decltype(f64x4{} < f64x4{});

#if defined(__x86_64__) || defined(__i386__)
#define AB_LANES_AVX2 1
/// The widest lane width compiled: f64x4 rows run under the AVX2 entry.
inline constexpr int kWidest = 4;
#else
inline constexpr int kWidest = 2;
#endif

/// The lane types a row body runs on.
template <class V>
concept Lane = std::is_same_v<V, double> || std::is_same_v<V, f64x2> ||
               std::is_same_v<V, f64x4>;

/// The lane width this process runs its rows at: 4 on a CPU with AVX2,
/// else 2. Probed on first use; the answer never changes.
inline int max_width() {
  static const int w = [] {
#ifdef AB_LANES_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return 4;
#endif
    return 2;
  }();
  return w;
}

/// The instruction set the rows run in at max_width().
inline const char* isa() {
#ifdef AB_LANES_AVX2
  return max_width() == 4 ? "avx2" : "sse2";
#else
  return "baseline";
#endif
}

#ifdef AB_LANES_AVX2
namespace detail {

/// The AVX2 entry: f() with f's whole call tree compiled for AVX2. Keep
/// the target exactly "avx2": adding FMA would let GCC's default
/// -ffp-contract=fast fuse a*b + c, which the per-element code rounds
/// twice.
template <class F>
__attribute__((target("avx2"), flatten)) decltype(auto) avx2_entry(F& f) {
  return f();
}

}  // namespace detail
#endif

/// Runs f(), which runs rows at lane width W: as compiled for W = 2,
/// inside the AVX2 entry for W = 4, which only a CPU with max_width() == 4
/// may call.
template <int W, class F>
decltype(auto) at_width(F&& f) {
  static_assert(W == 2 || W == kWidest, "lane width not compiled");
#ifdef AB_LANES_AVX2
  if constexpr (W == 4) {
    return detail::avx2_entry(f);
  } else {
    return f();
  }
#else
  return f();
#endif
}

/// The row loop of a lane kernel at width W over elements [0, n): calls
/// body(std::type_identity<V>{}, i) with the widest V of at most W lanes
/// that fits the rest of the row (f64x4, then f64x2), then once with
/// double if one element is left.
template <int W, class Body>
inline void for_row(int n, Body&& body) {
  static_assert(W == 2 || W == 4);
  int i = 0;
  if constexpr (W == 4)
    for (; i + 4 <= n; i += 4) body(std::type_identity<f64x4>{}, i);
  for (; i + 2 <= n; i += 2) body(std::type_identity<f64x2>{}, i);
  if (i < n) body(std::type_identity<double>{}, i);
}

template <Lane V>
inline V broadcast(double x) {
  if constexpr (std::is_same_v<V, double>)
    return x;
  else if constexpr (std::is_same_v<V, f64x2>)
    return V{x, x};
  else
    return V{x, x, x, x};
}

template <Lane V>
inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <Lane V>
inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

/// `m ? a : b` per lane.
inline double select(bool m, double a, double b) { return m ? a : b; }
inline f64x2 select(m64x2 m, f64x2 a, f64x2 b) { return m ? a : b; }
inline f64x4 select(const m64x4& m, const f64x4& a, const f64x4& b) {
  return m ? a : b;
}

/// Mask complement. One overload per mask type: a template would also
/// take the int that `bool | bool` promotes to, and ~1 is true.
inline bool mnot(bool m) { return !m; }
inline m64x2 mnot(m64x2 m) { return ~m; }
inline m64x4 mnot(const m64x4& m) { return ~m; }

/// std::fabs: clears the sign bit, NaNs included.
inline double fabs(double x) { return std::fabs(x); }
inline f64x2 fabs(f64x2 x) {
  constexpr long long kMagnitude = 0x7fffffffffffffffLL;
  return reinterpret_cast<f64x2>(reinterpret_cast<m64x2>(x) &
                                 m64x2{kMagnitude, kMagnitude});
}
inline f64x4 fabs(const f64x4& x) {
  constexpr long long kMagnitude = 0x7fffffffffffffffLL;
  return reinterpret_cast<f64x4>(
      reinterpret_cast<m64x4>(x) &
      m64x4{kMagnitude, kMagnitude, kMagnitude, kMagnitude});
}

/// Correctly rounded square root. The vector form is sqrtpd; a call to
/// std::sqrt keeps its errno path as a branch at -O3 unless the build adds
/// -fno-math-errno, which no build does. The four-lane form takes two
/// baseline sqrtpd halves, so it has one definition at every ISA and -O
/// level (under AVX2 GCC may fuse them; the bits are the same).
inline double sqrt(double x) { return std::sqrt(x); }
inline f64x2 sqrt(f64x2 x) {
#ifdef __SSE2__
  return __builtin_ia32_sqrtpd(x);
#else
  return f64x2{std::sqrt(x[0]), std::sqrt(x[1])};
#endif
}
inline f64x4 sqrt(const f64x4& x) {
  const f64x2 lo = sqrt(f64x2{x[0], x[1]});
  const f64x2 hi = sqrt(f64x2{x[2], x[3]});
  return f64x4{lo[0], lo[1], hi[0], hi[1]};
}

/// std::min / std::max, including which operand a NaN or a signed-zero
/// tie returns.
template <Lane V>
inline V min(const V& a, const V& b) {
  return select(b < a, b, a);
}
template <Lane V>
inline V max(const V& a, const V& b) {
  return select(a < b, b, a);
}

}  // namespace ab::lanes
