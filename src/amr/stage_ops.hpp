// Per-block stage epilogues of the stepping core (amr/stepping_core.hpp):
// the Heun combine and the positivity fix, which AmrSolver and RankSolver
// both reach only through the core's stage loop (and AmrSolver's subcycled
// level pass, for the fix).
#pragma once

#include "core/block_store.hpp"
#include "util/aligned.hpp"
#include "util/box.hpp"

namespace ab {

/// Heun average: dst = (dst + src) / 2 over the interior, as contiguous row
/// loops.
template <int D, class Phys>
void heun_combine_half(BlockView<D> dst, ConstBlockView<D> src) {
  const BlockLayout<D>& lay = *dst.layout;
  const std::int64_t fs = lay.field_stride();
  for (int v = 0; v < Phys::NVAR; ++v) {
    double* d = dst.field(v);
    const double* s = src.base + v * fs;
    for_each_row<D>(lay.interior_box(), [&](IVec<D> p, int n) {
      const std::int64_t off = lay.offset(p);
      double* AB_RESTRICT dr = d + off;
      const double* AB_RESTRICT sr = s + off;
      for (int i = 0; i < n; ++i) dr[i] = 0.5 * (dr[i] + sr[i]);
    });
  }
}

/// Density and pressure floors of the positivity fix
/// (AmrConfig::apply_positivity_fix).
constexpr double kRhoFloor = 1e-10;
constexpr double kPFloor = 1e-12;

/// Clip block `id` to the physics' positivity floors (no-op for physics
/// without a fix_state member, e.g. linear advection).
template <int D, class Phys>
void apply_positivity_fix(const Phys& phys, BlockStore<D>& s, int id,
                          double rho_floor, double p_floor) {
  if constexpr (requires(Phys ph, typename Phys::State u) {
                  ph.fix_state(u, 0.0, 0.0);
                }) {
    BlockView<D> v = s.view(id);
    const std::int64_t fs = s.layout().field_stride();
    for_each_row<D>(s.layout().interior_box(), [&](IVec<D> p, int n) {
      double* AB_RESTRICT row = v.base + s.layout().offset(p);
      for (int i = 0; i < n; ++i) {
        typename Phys::State u;
        for (int k = 0; k < Phys::NVAR; ++k) u[k] = row[k * fs + i];
        if (phys.fix_state(u, rho_floor, p_floor)) {
          for (int k = 0; k < Phys::NVAR; ++k) row[k * fs + i] = u[k];
        }
      }
    });
  }
}

}  // namespace ab
