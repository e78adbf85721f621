// Finite-volume update kernels over block arrays.
//
// This is the hot loop whose per-cell cost Figure 5 measures: an unsplit
// MUSCL (second-order) or Godunov (first-order) update of one block. The
// update is organized as *pencil sweeps*: for every dimension, faces are
// processed in stride-1 rows along the inner (unit-stride) axis, with
// reconstruction, limiting, and flux evaluation running as tight loops over
// contiguous, 64-byte-aligned scratch lanes (one flat double lane per
// variable). Each cell's limited slope is computed once per dimension and
// shared by the two faces that read it — the scalar reference the tests
// keep (tests/support/kernel_reference.hpp) recomputes it per face. Results
// are bitwise identical to the reference: both paths evaluate the same
// arithmetic on the same values in the same per-cell order.
//
// All stencils offset along one dimension at a time, so only face ghosts are
// required (see ghost.hpp): g >= 1 for first order, g >= 2 for second.
//
// The kernel writes uout = uin + dt * L(uin); time integration (RK stages)
// is composed by the AMR driver. Each call returns its floating-point
// operation count for the parallel machine model.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "core/block_store.hpp"
#include "core/face_flux.hpp"
#include "physics/limiter.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

enum class SpatialOrder { First, Second };
enum class FluxScheme {
  Rusanov,  ///< local Lax-Friedrichs: most robust, most dissipative
  Hll,      ///< two-wave HLL with Davis speed estimates
  Roe,      ///< Roe linearization (physics must provide roe_flux)
  Hlld      ///< five-wave HLLD (physics must provide hlld_flux; MHD)
};

namespace detail {

template <class Phys>
inline typename Phys::State load_state(const double* base, std::int64_t fs,
                                       std::int64_t off) {
  typename Phys::State u;
  for (int v = 0; v < Phys::NVAR; ++v) u[v] = base[v * fs + off];
  return u;
}

/// Numerical flux between reconstructed states uL | uR along `dir`.
template <class Phys>
inline void numerical_flux(const Phys& phys, FluxScheme scheme,
                           const typename Phys::State& uL,
                           const typename Phys::State& uR, int dir,
                           typename Phys::State& F) {
  if (scheme == FluxScheme::Roe) {
    if constexpr (requires { phys.roe_flux(uL, uR, dir, F); }) {
      phys.roe_flux(uL, uR, dir, F);
      return;
    } else {
      AB_REQUIRE(false, "FluxScheme::Roe: this physics has no Roe solver");
    }
  }
  if (scheme == FluxScheme::Hlld) {
    if constexpr (requires { phys.hlld_flux(uL, uR, dir, F); }) {
      phys.hlld_flux(uL, uR, dir, F);
      return;
    } else {
      AB_REQUIRE(false, "FluxScheme::Hlld: this physics has no HLLD solver");
    }
  }
  typename Phys::State fL, fR;
  double lminL, lmaxL, lminR, lmaxR;
  if constexpr (requires { phys.flux_and_speeds(uL, dir, fL, lminL, lmaxL); }) {
    // Fused per-state evaluation: same expressions as flux() +
    // signal_speeds() with the shared divisions computed once.
    phys.flux_and_speeds(uL, dir, fL, lminL, lmaxL);
    phys.flux_and_speeds(uR, dir, fR, lminR, lmaxR);
  } else {
    phys.flux(uL, dir, fL);
    phys.flux(uR, dir, fR);
    phys.signal_speeds(uL, dir, lminL, lmaxL);
    phys.signal_speeds(uR, dir, lminR, lmaxR);
  }
  if (scheme == FluxScheme::Rusanov) {
    double s = std::fabs(lminL);
    s = std::max(s, std::fabs(lmaxL));
    s = std::max(s, std::fabs(lminR));
    s = std::max(s, std::fabs(lmaxR));
    for (int v = 0; v < Phys::NVAR; ++v)
      F[v] = 0.5 * (fL[v] + fR[v]) - 0.5 * s * (uR[v] - uL[v]);
  } else {
    const double sL = std::min(lminL, lminR);
    const double sR = std::max(lmaxL, lmaxR);
    if (sL >= 0.0) {
      F = fL;
    } else if (sR <= 0.0) {
      F = fR;
    } else {
      const double inv = 1.0 / (sR - sL);
      for (int v = 0; v < Phys::NVAR; ++v)
        F[v] = (sR * fL[v] - sL * fR[v] + sL * sR * (uR[v] - uL[v])) * inv;
    }
  }
}

/// Numerical fluxes for a row of `nf` faces. Variable v of the left/right
/// state of face i is read from pL[v * strideL + i] / pR[v * strideR + i]
/// (lane scratch at stride `lane`, or the block array at stride
/// field_stride() for the unreconstructed first-order case). Flux component
/// v of face i is written to F[v * lane + i].
template <int W, class Phys>
inline void flux_row(const Phys& phys, FluxScheme scheme, int dir,
                     const double* pL, std::int64_t strideL, const double* pR,
                     std::int64_t strideR, double* F, std::int64_t lane,
                     int nf) {
  using State = typename Phys::State;
  // Physics-provided row forms (W faces at a time in explicit SIMD lanes,
  // src/physics/lanes.hpp; bitwise identical to the per-face evaluation)
  // take precedence.
  if constexpr (requires {
                  phys.template rusanov_flux_row<W>(dir, pL, strideL, pR,
                                                    strideR, F, lane, nf);
                }) {
    if (scheme == FluxScheme::Rusanov) {
      phys.template rusanov_flux_row<W>(dir, pL, strideL, pR, strideR, F,
                                        lane, nf);
      return;
    }
  }
  if constexpr (requires {
                  phys.template hlld_flux_row<W>(dir, pL, strideL, pR,
                                                 strideR, F, lane, nf);
                }) {
    if (scheme == FluxScheme::Hlld) {
      phys.template hlld_flux_row<W>(dir, pL, strideL, pR, strideR, F, lane,
                                     nf);
      return;
    }
  }
  for (int i = 0; i < nf; ++i) {
    State uL, uR, Fi;
    for (int v = 0; v < Phys::NVAR; ++v) {
      uL[v] = pL[v * strideL + i];
      uR[v] = pR[v * strideR + i];
    }
    numerical_flux<Phys>(phys, scheme, uL, uR, dir, Fi);
    for (int v = 0; v < Phys::NVAR; ++v) F[v * lane + i] = Fi[v];
  }
}

/// The arithmetic of fv_block_update over `interior` at lane width W, with
/// its pencil lanes in `pencil` (5 * NVAR lanes of `lane` doubles each).
template <int W, int D, class Phys>
void block_update(const BlockLayout<D>& lay, const double* uin, double* uout,
                  const Phys& phys, const RVec<D>& dx, double dt,
                  SpatialOrder order, LimiterKind lim, FluxScheme scheme,
                  FaceFluxStorage<D>* face_fluxes, const Box<D>& interior,
                  double* pencil, std::int64_t lane) {
  const std::int64_t fs = lay.field_stride();
  const IVec<D> m = lay.interior;
  constexpr int NV = Phys::NVAR;
  const bool second = order == SpatialOrder::Second;
  const int n0 = interior.hi[0] - interior.lo[0];  // cells per pencil
  const int nf0 = n0 + 1;                          // dim-0 faces per pencil

  // Pencil lanes: slope lanes for two adjacent cell rows, left/right face
  // states, and fluxes — one contiguous aligned double lane per variable.
  double* sA = pencil;             // slope lane, cell row A
  double* sB = sA + NV * lane;     // slope lane, cell row B
  double* qL = sB + NV * lane;     // reconstructed left face states
  double* qR = qL + NV * lane;     // reconstructed right face states
  double* Fl = qR + NV * lane;     // numerical fluxes

  // Start from uout = uin on the update region (contiguous row copies).
  for (int v = 0; v < NV; ++v) {
    const double* src = uin + v * fs;
    double* dst = uout + v * fs;
    for_each_row<D>(interior, [&](IVec<D> p, int n) {
      const std::int64_t off = lay.offset(p);
      std::memcpy(dst + off, src + off,
                  sizeof(double) * static_cast<std::size_t>(n));
    });
  }

  // Dimension-0 sweep: the pencil axis IS the sweep axis. Face i of a row
  // sits between cells i-1 and i; slope lane entry k holds the limited
  // slope of cell (lo0 + k - 1), computed once and shared by faces k and
  // k+1 of the row.
  {
    const double lambda = dt / dx[0];
    Box<D> rows = interior;
    rows.hi[0] = rows.lo[0] + 1;
    for_each_cell<D>(rows, [&](IVec<D> p) {
      const std::int64_t roff = lay.offset(p);
      if (second) {
        for (int v = 0; v < NV; ++v) {
          const double* u = uin + v * fs + roff;
          limited_slope_row<W>(lim, u - 2, u - 1, u, sA + v * lane, n0 + 2);
        }
        for (int v = 0; v < NV; ++v) {
          const double* AB_RESTRICT u = uin + v * fs + roff;
          const double* AB_RESTRICT s = sA + v * lane;
          double* AB_RESTRICT l = qL + v * lane;
          double* AB_RESTRICT r = qR + v * lane;
          for (int i = 0; i < nf0; ++i) {
            l[i] = u[i - 1] + 0.5 * s[i];
            r[i] = u[i] - 0.5 * s[i + 1];
          }
        }
        flux_row<W>(phys, scheme, 0, qL, lane, qR, lane, Fl, lane, nf0);
      } else {
        flux_row<W>(phys, scheme, 0, uin + roff - 1, fs, uin + roff, fs, Fl,
                    lane, nf0);
      }
      if (face_fluxes != nullptr) {
        for (int v = 0; v < NV; ++v) {
          face_fluxes->at(0, 0, p, v) = Fl[v * lane];
          face_fluxes->at(0, 1, p, v) = Fl[v * lane + n0];
        }
      }
      for (int v = 0; v < NV; ++v) {
        double* AB_RESTRICT o = uout + v * fs + roff;
        const double* AB_RESTRICT f = Fl + v * lane;
        for (int t = 0; t < n0; ++t) o[t] += lambda * f[t];
        for (int t = 0; t < n0; ++t) o[t] -= lambda * f[t + 1];
      }
    });
  }

  // Transverse sweeps: the pencil axis stays dimension 0; the face offset
  // is the dim stride. For each pencil-plane the face rows advance along
  // `dim` with rolling slope lanes, so each cell row's limited slope is
  // computed once and reused by the next face row.
  for (int dim = 1; dim < D; ++dim) {
    const std::int64_t sd = lay.stride(dim);
    const double lambda = dt / dx[dim];
    const int jlo = interior.lo[dim], jhi = interior.hi[dim];
    Box<D> outer = interior;
    outer.hi[0] = outer.lo[0] + 1;
    outer.lo[dim] = 0;
    outer.hi[dim] = 1;
    for_each_cell<D>(outer, [&](IVec<D> oc) {
      const std::int64_t base = lay.offset(oc);  // row origin at dim index 0
      double* sL = sA;
      double* sR = sB;
      if (second) {
        for (int v = 0; v < NV; ++v) {
          const double* u = uin + v * fs + base;
          limited_slope_row<W>(lim, u + (jlo - 2) * sd, u + (jlo - 1) * sd,
                               u + jlo * sd, sL + v * lane, n0);
          limited_slope_row<W>(lim, u + (jlo - 1) * sd, u + jlo * sd,
                               u + (jlo + 1) * sd, sR + v * lane, n0);
        }
      }
      for (int j = jlo; j <= jhi; ++j) {
        const std::int64_t offR = base + j * sd;
        const std::int64_t offL = offR - sd;
        if (second) {
          for (int v = 0; v < NV; ++v) {
            const double* AB_RESTRICT ul = uin + v * fs + offL;
            const double* AB_RESTRICT ur = uin + v * fs + offR;
            const double* AB_RESTRICT sl = sL + v * lane;
            const double* AB_RESTRICT sr = sR + v * lane;
            double* AB_RESTRICT l = qL + v * lane;
            double* AB_RESTRICT r = qR + v * lane;
            for (int t = 0; t < n0; ++t) {
              l[t] = ul[t] + 0.5 * sl[t];
              r[t] = ur[t] - 0.5 * sr[t];
            }
          }
          flux_row<W>(phys, scheme, dim, qL, lane, qR, lane, Fl, lane, n0);
        } else {
          flux_row<W>(phys, scheme, dim, uin + offL, fs, uin + offR, fs, Fl,
                      lane, n0);
        }
        if (face_fluxes != nullptr && (j == 0 || j == m[dim])) {
          const int side = j == 0 ? 0 : 1;
          IVec<D> p = oc;
          p[dim] = j;
          for (int t = 0; t < n0; ++t) {
            p[0] = interior.lo[0] + t;
            for (int v = 0; v < NV; ++v)
              face_fluxes->at(dim, side, p, v) = Fl[v * lane + t];
          }
        }
        if (j < jhi) {  // right cell row is in the update region
          for (int v = 0; v < NV; ++v) {
            double* AB_RESTRICT o = uout + v * fs + offR;
            const double* AB_RESTRICT f = Fl + v * lane;
            for (int t = 0; t < n0; ++t) o[t] += lambda * f[t];
          }
        }
        if (j > jlo) {  // left cell row is in the update region
          for (int v = 0; v < NV; ++v) {
            double* AB_RESTRICT o = uout + v * fs + offL;
            const double* AB_RESTRICT f = Fl + v * lane;
            for (int t = 0; t < n0; ++t) o[t] -= lambda * f[t];
          }
        }
        if (second && j < jhi) {
          std::swap(sL, sR);
          for (int v = 0; v < NV; ++v) {
            const double* u = uin + v * fs + base;
            limited_slope_row<W>(lim, u + j * sd, u + (j + 1) * sd,
                                 u + (j + 2) * sd, sR + v * lane, n0);
          }
        }
      }
    });
  }

  // Non-conservative source terms (Powell eight-wave for MHD), one pencil
  // row at a time: W cells per step, bitwise identical to add_source per
  // cell (the oracle the reference kernel keeps).
  if constexpr (Phys::kHasSource) {
    std::array<std::int64_t, D> strides;
    for (int d = 0; d < D; ++d) strides[d] = lay.stride(d);
    for_each_row<D>(interior, [&](IVec<D> p, int n) {
      const std::int64_t off = lay.offset(p);
      phys.template add_source_row<W>(uin + off, fs, strides, dx, dt,
                                      uout + off, n);
    });
  }
}

}  // namespace detail

/// Estimated floating-point operations for one block update (used by the
/// machine model; mirrors what fv_block_update returns).
template <int D, class Phys>
std::uint64_t fv_update_flops(const BlockLayout<D>& lay, SpatialOrder order) {
  const IVec<D> m = lay.interior;
  std::uint64_t faces = 0;
  for (int dim = 0; dim < D; ++dim) {
    std::uint64_t f = static_cast<std::uint64_t>(m[dim]) + 1;
    for (int d = 0; d < D; ++d)
      if (d != dim) f *= static_cast<std::uint64_t>(m[d]);
    faces += f;
  }
  std::uint64_t per_face = 2 * Phys::kFluxFlops + 2 * Phys::kSpeedFlops +
                           5 * Phys::NVAR + 4;
  if (order == SpatialOrder::Second) per_face += 10 * Phys::NVAR;
  std::uint64_t cells = static_cast<std::uint64_t>(lay.interior_cells());
  std::uint64_t per_cell = 4 * static_cast<std::uint64_t>(D) * Phys::NVAR;
  if (Phys::kHasSource) per_cell += 8 * D + 16;
  return faces * per_face + cells * per_cell;
}

/// fv_block_update at lane width W: 2 runs the rows in f64x2 lanes at the
/// ISA the caller is compiled for; 4 runs the whole update inside the AVX2
/// entry (lanes::at_width), which only a CPU with lanes::max_width() == 4
/// may call. Both give identical bytes. fv_block_update picks the width;
/// tests call both.
template <int W, int D, class Phys>
std::uint64_t fv_block_update_at(const BlockLayout<D>& lay, const double* uin,
                                 double* uout, const Phys& phys,
                                 const RVec<D>& dx, double dt,
                                 SpatialOrder order,
                                 LimiterKind lim = LimiterKind::VanLeer,
                                 FluxScheme scheme = FluxScheme::Rusanov,
                                 FaceFluxStorage<D>* face_fluxes = nullptr,
                                 const Box<D>* sub_box = nullptr,
                                 AlignedScratch* scratch = nullptr) {
  static_assert(Phys::NVAR >= 1);
  AB_REQUIRE(lay.nvar == Phys::NVAR, "fv_block_update: nvar mismatch");
  AB_REQUIRE(lay.ghost >= (order == SpatialOrder::Second ? 2 : 1),
             "fv_block_update: insufficient ghost layers for this order");

  // Sub-blocking (the paper's fix for the 32^3 cache peak: "data mining the
  // larger blocks into smaller ones"): update only `sub_box` of the
  // interior. Tiling the interior with sub-boxes reproduces the full update
  // exactly — interior tile faces are computed identically from both sides,
  // and each tile writes only its own cells.
  const Box<D> interior = sub_box != nullptr ? *sub_box : lay.interior_box();
  if (sub_box != nullptr) {
    AB_REQUIRE(lay.interior_box().contains(*sub_box),
               "fv_block_update: sub_box outside the interior");
    AB_REQUIRE(face_fluxes == nullptr,
               "fv_block_update: face-flux recording needs the full block");
  }

  static thread_local AlignedScratch tls_scratch;
  AlignedScratch& scr = scratch != nullptr ? *scratch : tls_scratch;
  const int n0 = interior.hi[0] - interior.lo[0];
  const std::int64_t lane =
      (static_cast<std::int64_t>(n0) + 2 + 7) & ~std::int64_t{7};
  double* pencil =
      scr.acquire(static_cast<std::size_t>(5 * Phys::NVAR * lane));
  lanes::at_width<W>([&] {
    detail::block_update<W, D, Phys>(lay, uin, uout, phys, dx, dt, order, lim,
                                     scheme, face_fluxes, interior, pencil,
                                     lane);
  });

  std::uint64_t flops = fv_update_flops<D, Phys>(lay, order);
  if (sub_box != nullptr) {
    // Approximate: scale the whole-block count by the cell fraction.
    flops = flops * static_cast<std::uint64_t>(interior.volume()) /
            static_cast<std::uint64_t>(lay.interior_cells());
  }
  return flops;
}

/// Single forward-Euler stage over one block: uout = uin + dt * L(uin).
/// `uin`/`uout` are block base pointers (see BlockStore::view().base);
/// ghosts of uin must be filled. Returns the flop count.
///
/// If `face_fluxes` is non-null (and allocated), the numerical fluxes
/// through the block's 2*D boundary faces are recorded for later
/// coarse/fine flux correction (see src/amr/flux_register.hpp).
///
/// `scratch` holds the pencil lanes; it is grown on demand and reused
/// across calls. Pass one AlignedScratch per sweeping thread (the AMR
/// driver keeps one per pool thread); when null, a thread-local arena is
/// used, so concurrent calls are always safe.
///
/// The update runs at the widest lane width this CPU supports
/// (lanes::max_width(): the AVX2 entry where the CPU has AVX2), chosen
/// once per call for the whole block.
template <int D, class Phys>
std::uint64_t fv_block_update(const BlockLayout<D>& lay, const double* uin,
                              double* uout, const Phys& phys,
                              const RVec<D>& dx, double dt, SpatialOrder order,
                              LimiterKind lim = LimiterKind::VanLeer,
                              FluxScheme scheme = FluxScheme::Rusanov,
                              FaceFluxStorage<D>* face_fluxes = nullptr,
                              const Box<D>* sub_box = nullptr,
                              AlignedScratch* scratch = nullptr) {
  if (lanes::max_width() == lanes::kWidest)
    return fv_block_update_at<lanes::kWidest, D, Phys>(
        lay, uin, uout, phys, dx, dt, order, lim, scheme, face_fluxes,
        sub_box, scratch);
  return fv_block_update_at<2, D, Phys>(lay, uin, uout, phys, dx, dt, order,
                                        lim, scheme, face_fluxes, sub_box,
                                        scratch);
}

/// Whole-block update with optional sub-blocked loop tiling: when `tile` > 0
/// divides every interior extent (and is smaller than at least one of them),
/// the interior is updated as a grid of tile^D sub-boxes — the paper's fix
/// for the 32^3 cache peak ("data mining the larger blocks into smaller
/// ones"), selected at runtime by the layout autotuner (src/tune/). Tiling
/// only reorders the loop over independent cells: interior tile faces are
/// evaluated identically from both sides and each cell is written once from
/// the same inputs, so the result is bitwise identical to the untiled call.
/// Falls back to one plain fv_block_update when tiling does not apply
/// (tile <= 0, non-dividing tile, face-flux recording, or an explicit
/// sub_box). Returns the whole-block flop count either way.
template <int D, class Phys>
std::uint64_t fv_block_update_tiled(
    int tile, const BlockLayout<D>& lay, const double* uin, double* uout,
    const Phys& phys, const RVec<D>& dx, double dt, SpatialOrder order,
    LimiterKind lim = LimiterKind::VanLeer,
    FluxScheme scheme = FluxScheme::Rusanov,
    FaceFluxStorage<D>* face_fluxes = nullptr,
    const Box<D>* sub_box = nullptr, AlignedScratch* scratch = nullptr) {
  bool tiled = tile > 0 && face_fluxes == nullptr && sub_box == nullptr;
  bool splits = false;
  if (tiled) {
    for (int d = 0; d < D; ++d) {
      if (lay.interior[d] % tile != 0) tiled = false;
      if (lay.interior[d] != tile) splits = true;
    }
  }
  if (!tiled || !splits) {
    return fv_block_update<D, Phys>(lay, uin, uout, phys, dx, dt, order, lim,
                                    scheme, face_fluxes, sub_box, scratch);
  }
  IVec<D> nt;
  for (int d = 0; d < D; ++d) nt[d] = lay.interior[d] / tile;
  for_each_cell<D>(Box<D>::from_extent(nt), [&](IVec<D> tc) {
    Box<D> box;
    for (int d = 0; d < D; ++d) {
      box.lo[d] = tc[d] * tile;
      box.hi[d] = (tc[d] + 1) * tile;
    }
    fv_block_update<D, Phys>(lay, uin, uout, phys, dx, dt, order, lim, scheme,
                             nullptr, &box, scratch);
  });
  return fv_update_flops<D, Phys>(lay, order);
}

/// Largest signal speed divided by cell size over the block interior; the
/// stable timestep is cfl / (sum over dims of this per-dim bound). We return
/// max over cells of sum over dims, suiting the unsplit update.
template <int D, class Phys>
double block_wave_speed_sum(const BlockLayout<D>& lay, const double* uin,
                            const Phys& phys, const RVec<D>& dx) {
  const std::int64_t fs = lay.field_stride();
  double worst = 0.0;
  for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
    const std::int64_t off = lay.offset(p);
    const typename Phys::State u = detail::load_state<Phys>(uin, fs, off);
    double s = 0.0;
    for (int dim = 0; dim < D; ++dim)
      s += phys.max_speed(u, dim) / dx[dim];
    worst = std::max(worst, s);
  });
  return worst;
}

}  // namespace ab
