// Per-cell oracle for the row executor behind GhostExchanger::fill,
// pack_op and the refine/coarsen data transfer.
//
// prolong_value, restrict_value and compute_op evaluate one cell at a time
// from a source block view, exactly as the production code did before all
// of it ran as rows; they share no code with the executor but minmod.
// payload_per_cell is an op's wire payload, apply_per_cell writes it into
// the destination ghosts, and fill_per_cell runs a whole plan.
#pragma once

#include <vector>

#include "core/block_store.hpp"
#include "core/ghost.hpp"
#include "core/prolong.hpp"
#include "util/box.hpp"
#include "util/vec.hpp"

namespace ab::testing {

/// Value prolonged to the fine cell lying inside coarse cell `cc` of `src`
/// at sub-cell position `parity` (0 = low half, 1 = high half, per
/// dimension). Slope stencils are clamped to `valid` (normally the source
/// interior box) so prolongation never reads unfilled ghost cells; a slope
/// whose stencil is clamped on either side is dropped to zero.
template <int D>
double prolong_value(const ConstBlockView<D>& src, int var, IVec<D> cc,
                     IVec<D> parity, const Box<D>& valid, Prolongation kind) {
  const double c = src.at(var, cc);
  if (kind == Prolongation::Constant) return c;
  double v = c;
  for (int d = 0; d < D; ++d) {
    IVec<D> lo = cc, hi = cc;
    lo[d] -= 1;
    hi[d] += 1;
    if (lo[d] < valid.lo[d] || hi[d] >= valid.hi[d]) continue;  // zero slope
    const double s =
        kind == Prolongation::Linear
            ? 0.5 * (src.at(var, hi) - src.at(var, lo))
            : minmod(src.at(var, hi) - c, c - src.at(var, lo));
    v += (parity[d] ? 0.25 : -0.25) * s;
  }
  return v;
}

/// Conservative restriction: average of the 2^D fine cells whose low corner
/// (in `src` local coordinates) is `fine_corner`.
template <int D>
double restrict_value(const ConstBlockView<D>& src, int var,
                      IVec<D> fine_corner) {
  constexpr int kChildren = 1 << D;
  double sum = 0.0;
  for (int mask = 0; mask < kChildren; ++mask) {
    IVec<D> p = fine_corner;
    for (int d = 0; d < D; ++d) p[d] += (mask >> d) & 1;
    sum += src.at(var, p);
  }
  return sum / kChildren;
}

/// Evaluate one op from the source data, emitting (var, cell, value) in a
/// deterministic order (vars outer, dst_box cells inner).
template <int D, class Emit>
void compute_op(const BlockLayout<D>& layout, Prolongation prolongation,
                const ConstBlockView<D>& src, const GhostOp<D>& op,
                Emit&& emit) {
  const int nvar = layout.nvar;
  switch (op.kind) {
    case GhostOpKind::SameCopy:
      for (int v = 0; v < nvar; ++v)
        for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
          emit(v, q, src.at(v, q + op.a));
        });
      break;
    case GhostOpKind::Restrict:
      for (int v = 0; v < nvar; ++v)
        for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
          emit(v, q, restrict_value<D>(src, v, q.shifted_left(1) + op.a));
        });
      break;
    case GhostOpKind::Prolong:
      for (int v = 0; v < nvar; ++v)
        for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
          IVec<D> gf = q + op.a;  // global fine index (unwrapped)
          IVec<D> cc, parity;
          for (int d = 0; d < D; ++d) {
            cc[d] = (gf[d] >> 1) - op.b[d];
            parity[d] = gf[d] & 1;
          }
          emit(v, q,
               prolong_value<D>(src, v, cc, parity, op.valid, prolongation));
        });
      break;
  }
}

/// The op's values evaluated cell by cell from block data `src` (laid out
/// by `layout`), in the wire order: var-major, dst_box in for_each_cell
/// order.
template <int D>
std::vector<double> payload_per_cell(const BlockLayout<D>& layout,
                                     Prolongation prolongation,
                                     const GhostOp<D>& op, const double* src) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(op.cells() * layout.nvar));
  compute_op<D>(layout, prolongation, ConstBlockView<D>{src, &layout}, op,
                [&](int, IVec<D>, double val) { out.push_back(val); });
  return out;
}

/// Write a payload in the wire order into the op's dst_box of block data
/// `dst`, cell by cell.
template <int D>
void write_per_cell(const BlockLayout<D>& layout, const GhostOp<D>& op,
                    const std::vector<double>& payload, double* dst) {
  BlockView<D> view{dst, &layout};
  std::size_t k = 0;
  for (int v = 0; v < layout.nvar; ++v)
    for_each_cell<D>(op.dst_box,
                     [&](IVec<D> q) { view.at(v, q) = payload[k++]; });
}

/// One op of the exchanger's plan applied cell by cell: the payload is
/// evaluated on the source block, then written to the destination ghosts.
template <int D>
void apply_per_cell(const GhostExchanger<D>& gx, BlockStore<D>& store,
                    const GhostOp<D>& op) {
  const std::vector<double> payload =
      payload_per_cell<D>(gx.layout(), gx.prolongation(), op,
                          std::as_const(store).view(op.src).base);
  write_per_cell<D>(gx.layout(), op, payload, store.view(op.dst).base);
}

/// Fill every op of the plan cell by cell, in the two-phase order fill()
/// uses (prolongations read restriction-filled ghosts).
template <int D>
void fill_per_cell(const GhostExchanger<D>& gx, BlockStore<D>& store) {
  for (const auto& op : gx.ops())
    if (op.kind != GhostOpKind::Prolong) apply_per_cell(gx, store, op);
  for (const auto& op : gx.ops())
    if (op.kind == GhostOpKind::Prolong) apply_per_cell(gx, store, op);
}

}  // namespace ab::testing
