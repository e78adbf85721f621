// A seeded, data-independent regrid criterion for topology churn: flags come
// from a hash of (seed, level, coords), and a coarsening family decides by
// its parent's hash, so one round both refines and coarsens. A run's whole
// topology history is reproducible from its seeds alone.
#pragma once

#include <cstdint>

#include "amr/criteria.hpp"
#include "support/rng.hpp"

namespace ab::testing {

template <int D>
struct ChurnCriterion {
  std::uint64_t seed = 0;
  int max_level = 2;

  AdaptFlag operator()(const Forest<D>& f, const BlockStore<D>&,
                       int id) const {
    const int level = f.level(id);
    if (level > 0) {
      IVec<D> pc = f.coords(id);
      for (int d = 0; d < D; ++d) pc[d] >>= 1;
      if (hash(level - 1, pc) == 0) return AdaptFlag::Coarsen;
    }
    if (level < max_level && hash(level, f.coords(id)) == 1)
      return AdaptFlag::Refine;
    return AdaptFlag::Keep;
  }

  /// One of four outcomes per (level, coords).
  std::uint64_t hash(int level, const IVec<D>& c) const {
    std::uint64_t h = splitmix64(seed ^ static_cast<std::uint64_t>(level));
    for (int d = 0; d < D; ++d)
      h = splitmix64(h ^ static_cast<std::uint64_t>(c[d] + 1));
    return h % 4;
  }
};

}  // namespace ab::testing
