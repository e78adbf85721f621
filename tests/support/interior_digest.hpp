// Golden-byte digests of a run's solution: FNV-1a over every leaf's id,
// level and interior bytes, in leaf order. A digest pins the exact bytes a
// run produced, so a change to any arithmetic on the path fails the test
// that recorded it, even when all paths change their bytes together.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "amr/solver.hpp"

namespace ab::testing {

/// Digest of the leaves of `forest`; `view_of(id)` yields leaf id's
/// ConstBlockView, laid out by `lay`.
template <int D, class ViewOf>
std::uint64_t interior_digest(const Forest<D>& forest,
                              const BlockLayout<D>& lay,
                              const ViewOf& view_of) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  };
  for (int id : forest.leaves()) {
    const int level = forest.level(id);
    mix(&id, sizeof id);
    mix(&level, sizeof level);
    const ConstBlockView<D> v = view_of(id);
    for (int var = 0; var < lay.nvar; ++var)
      for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
        const double x = v.at(var, p);
        mix(&x, sizeof x);
      });
  }
  return h;
}

/// Digest of a single-address-space solver's solution.
template <int D, class Phys>
std::uint64_t interior_digest(const AmrSolver<D, Phys>& solver) {
  return interior_digest<D>(solver.forest(), solver.store().layout(),
                            [&solver](int id) {
                              return std::as_const(solver.store()).view(id);
                            });
}

/// "0x%016llx", for failure messages that print a digest to re-record.
inline std::string digest_hex(std::uint64_t h) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace ab::testing
