// Conservative coarse/fine flux correction (refluxing) — an extension
// beyond the paper's ghost-only coupling.
//
// At a coarse/fine face, the coarse block integrates its own numerical flux
// while the 2^(d-1) fine blocks integrate theirs; the mismatch makes the
// ghost-cell scheme non-conservative (a small drift the paper's production
// code accepted). The FluxRegister replaces the coarse side's contribution
// with the area-average of the fine fluxes after each stage:
//
//   u_c += sign * dt/dx * ( avg(F_fine) - F_coarse )
//
// which makes global conservation machine-exact (see
// tests/amr/flux_register_test.cpp and bench/abl_flux_correction).
//
// Geometry is derived from the GhostExchanger's Restrict ops — the verified
// coarse-side/fine-side index mapping — so the corrector stays consistent
// with the exchange plan by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/face_flux.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "util/error.hpp"

namespace ab {

template <int D>
class FluxRegister {
 public:
  static constexpr int kSubfaces = 1 << (D - 1);

  /// One coarse/fine face correction. Public so distributed drivers can
  /// walk the plan and route fine-side payloads between ranks.
  struct Correction {
    int coarse = -1;
    int fine = -1;
    int dim = 0;
    int side = 0;
    Box<D> cells;  ///< coarse interior cells adjacent to the corrected face
    IVec<D> a;     ///< tangential fine-index offset (from the Restrict op)
  };

  FluxRegister(const Forest<D>& forest, const BlockLayout<D>& layout)
      : forest_(&forest), layout_(layout) {}

  /// Rebuild the correction plan from the exchanger's current plan (call
  /// after every regrid, with the exchanger already rebuilt).
  void rebuild(const GhostExchanger<D>& exchanger) {
    corrections_.clear();
    needs_fluxes_.assign(forest_->node_capacity(), false);
    for (const auto& op : exchanger.ops()) {
      if (op.kind != GhostOpKind::Restrict) continue;
      Correction c;
      c.coarse = op.dst;
      c.fine = op.src;
      c.dim = op.face_dim;
      c.side = op.face_side;
      // Coarse face cells covered by this fine block: the Restrict op's
      // dst_box collapsed onto the interior face row.
      c.cells = op.dst_box;
      c.cells.lo[c.dim] = c.side ? layout_.interior[c.dim] - 1 : 0;
      c.cells.hi[c.dim] = c.cells.lo[c.dim] + 1;
      c.a = op.a;  // fine corner = 2*coarse_local + a (tangentially)
      corrections_.push_back(c);
      needs_fluxes_[c.coarse] = true;
      needs_fluxes_[c.fine] = true;
    }
  }

  /// Whether block `id` must record its boundary-face fluxes this stage.
  bool needs_fluxes(int id) const {
    return id < static_cast<int>(needs_fluxes_.size()) && needs_fluxes_[id];
  }

  /// Per-block flux storage, allocated lazily for blocks that need it.
  FaceFluxStorage<D>& storage(int id) {
    if (id >= static_cast<int>(storage_.size()))
      storage_.resize(static_cast<std::size_t>(id) + 1);
    if (!storage_[id].allocated()) storage_[id].allocate(layout_);
    return storage_[id];
  }

  /// Doubles one correction's fine-side message carries: one area-averaged
  /// flux per (coarse face cell, variable).
  std::int64_t correction_doubles(const Correction& c) const {
    return c.cells.volume() * layout_.nvar;
  }

  /// Sender-side evaluation: area-average the fine sub-face fluxes of
  /// correction `c` into `buf` (c.cells in for_each_cell order, variables
  /// innermost; correction_doubles entries). This is the message the fine
  /// block's owner sends — averaging on the sender quarters (2D) or
  /// eighths (3D) the wire bytes, matching the sender-side evaluation the
  /// ghost exchange already uses.
  void pack_fine_avg(const Correction& c, const FaceFluxStorage<D>& fine,
                     double* buf) const {
    const int nvar = layout_.nvar;
    double* cursor = buf;
    for_each_cell<D>(c.cells, [&](IVec<D> q) {
      for (int v = 0; v < nvar; ++v) {
        // Area-average of the fine sub-face fluxes covering coarse face
        // cell q (fine face is the opposite side, 1 - c.side).
        double favg = 0.0;
        for (int mask = 0; mask < kSubfaces; ++mask) {
          IVec<D> r;
          int bit = 0;
          for (int d = 0; d < D; ++d) {
            if (d == c.dim) {
              r[d] = 0;  // ignored by FaceIndexer
              continue;
            }
            r[d] = 2 * q[d] + c.a[d] + ((mask >> bit) & 1);
            ++bit;
          }
          favg += fine.at(c.dim, 1 - c.side, r, v);
        }
        *cursor++ = favg / kSubfaces;
      }
    });
  }

  /// Receiver-side: apply correction `c` to the coarse block's stage result
  /// `uc`, with `favg` a packed fine-average payload (pack_fine_avg order)
  /// and `coarse` the coarse block's own recorded fluxes.
  void apply_correction(BlockView<D> uc, const Correction& c,
                        const FaceFluxStorage<D>& coarse, const double* favg,
                        double dt) const {
    const int nvar = layout_.nvar;
    RVec<D> dx = forest_->block_size(forest_->level(c.coarse));
    for (int d = 0; d < D; ++d) dx[d] /= layout_.interior[d];
    const double lambda = dt / dx[c.dim];
    const double sign = c.side ? -1.0 : 1.0;
    const double* cursor = favg;
    for_each_cell<D>(c.cells, [&](IVec<D> q) {
      for (int v = 0; v < nvar; ++v) {
        const double fc = coarse.at(c.dim, c.side, q, v);
        uc.at(v, q) += sign * lambda * (*cursor++ - fc);
      }
    });
  }

  /// Apply all corrections to the stage result `u` advanced with timestep
  /// `dt`. Every involved block must have recorded fluxes this stage.
  /// Routed through pack_fine_avg/apply_correction so the single-address-
  /// space path and the rank-parallel message path share their arithmetic.
  void apply(BlockStore<D>& u, double dt) {
    std::vector<double> buf;
    for (const auto& c : corrections_) {
      FaceFluxStorage<D>& coarse = storage(c.coarse);
      FaceFluxStorage<D>& fine = storage(c.fine);
      AB_REQUIRE(coarse.allocated() && fine.allocated(),
                 "FluxRegister::apply: fluxes were not recorded");
      buf.resize(static_cast<std::size_t>(correction_doubles(c)));
      pack_fine_avg(c, fine, buf.data());
      apply_correction(u.view(c.coarse), c, coarse, buf.data(), dt);
    }
  }

  const std::vector<Correction>& corrections() const { return corrections_; }
  int num_corrections() const { return static_cast<int>(corrections_.size()); }

 private:
  const Forest<D>* forest_;
  BlockLayout<D> layout_;
  std::vector<Correction> corrections_;
  std::vector<bool> needs_fluxes_;
  std::vector<FaceFluxStorage<D>> storage_;
};

}  // namespace ab
