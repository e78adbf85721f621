#include "core/ghost.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ab {

template <int D>
GhostExchanger<D>::GhostExchanger(const Forest<D>& forest,
                                  const BlockLayout<D>& layout,
                                  Prolongation prolongation)
    : forest_(&forest), layout_(layout), prolongation_(prolongation) {
  AB_REQUIRE(layout_.ghost >= 1, "GhostExchanger: layout has no ghost cells");
  AB_REQUIRE(forest.config().max_level_diff == 1,
             "GhostExchanger: requires the 2:1 refinement constraint");
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(layout_.interior[d] % 2 == 0,
               "GhostExchanger: interior extents must be even so coarse/fine "
               "interfaces are cell-aligned");
  rebuild();
}

template <int D>
void GhostExchanger<D>::plan_face(int id, int dim, int side) {
  const Forest<D>& f = *forest_;
  const IVec<D> m = layout_.interior;
  const int g = layout_.ghost;
  const Box<D> slab = layout_.interior_box().face_ghost_slab(dim, side, g);

  auto nb = f.face_neighbor(id, dim, side);
  if (nb.kind == Forest<D>::NeighborKind::Boundary) {
    boundary_faces_.push_back(BoundaryFace{id, dim, side});
    return;
  }

  const IVec<D> c = f.coords(id);
  IVec<D> lo_dst;  // global cell-index low corner of dst at its level
  for (int d = 0; d < D; ++d) lo_dst[d] = c[d] * m[d];
  const IVec<D> n_u = c + unit<D>(dim, side ? 1 : -1);  // unwrapped

  if (nb.kind == Forest<D>::NeighborKind::Same) {
    GhostOp<D> op;
    op.kind = GhostOpKind::SameCopy;
    op.src = nb.ids[0];
    op.dst = id;
    op.face_dim = static_cast<std::int8_t>(dim);
    op.face_side = static_cast<std::int8_t>(side);
    op.dst_box = slab;
    op.a = IVec<D>{};
    op.a[dim] = side ? -m[dim] : m[dim];
    ops_.push_back(op);
    return;
  }

  if (nb.kind == Forest<D>::NeighborKind::Finer) {
    // Wrap displacement between the unwrapped neighbor location and the
    // stored (wrapped) node, expressed at the finer level.
    IVec<D> n_w = n_u;
    bool ok = f.wrap_coords(f.level(id), n_w);
    AB_ASSERT(ok);
    (void)ok;
    const IVec<D> wrap_fine = (n_u - n_w).shifted_left(1);
    for (int i = 0; i < Forest<D>::kFaceChildren; ++i) {
      const int src = nb.ids[i];
      const IVec<D> fu = f.coords(src) + wrap_fine;  // unwrapped fine coords
      GhostOp<D> op;
      op.kind = GhostOpKind::Restrict;
      op.src = src;
      op.dst = id;
      op.face_dim = static_cast<std::int8_t>(dim);
      op.face_side = static_cast<std::int8_t>(side);
      // fine src corner = 2*dst_local + a
      for (int d = 0; d < D; ++d) op.a[d] = 2 * lo_dst[d] - fu[d] * m[d];
      // dst cells covered by this fine block, in dst-local coarse indices.
      Box<D> cover;
      for (int d = 0; d < D; ++d) {
        cover.lo[d] = ((fu[d] * m[d]) >> 1) - lo_dst[d];
        cover.hi[d] = (((fu[d] + 1) * m[d]) >> 1) - lo_dst[d];
      }
      op.dst_box = intersect(slab, cover);
      AB_ASSERT(!op.dst_box.empty());
      ops_.push_back(op);
    }
    return;
  }

  // Coarser neighbor: prolongation.
  const IVec<D> n_cu = n_u.shifted_right(1);  // unwrapped coarse coords
  GhostOp<D> op;
  op.kind = GhostOpKind::Prolong;
  op.src = nb.ids[0];
  op.dst = id;
  op.face_dim = static_cast<std::int8_t>(dim);
  op.face_side = static_cast<std::int8_t>(side);
  op.a = lo_dst;
  for (int d = 0; d < D; ++d) op.b[d] = n_cu[d] * m[d];
  // Slope-stencil validity: the source interior, extended one cell into
  // every source ghost slab that fill()'s first phase populates. The slab
  // facing the destination is always restriction-filled (by the destination
  // itself); other slabs qualify when the source's neighbor there is Same
  // or Finer. Coarser (phase 2) and Boundary (filled later, by BCs) do not.
  op.valid = layout_.interior_box();
  for (int d = 0; d < D; ++d) {
    for (int s = 0; s < 2; ++s) {
      bool extend;
      if (d == dim) {
        // The face toward dst is (dim, 1-side) as seen from the source.
        extend = (s == 1 - side);
      } else {
        const auto k = f.face_neighbor(op.src, d, s).kind;
        extend = (k == Forest<D>::NeighborKind::Same ||
                  k == Forest<D>::NeighborKind::Finer);
      }
      if (!extend) continue;
      if (s == 0)
        op.valid.lo[d] -= 1;
      else
        op.valid.hi[d] += 1;
    }
  }
  Box<D> cover;  // src's region in dst-local fine indices
  for (int d = 0; d < D; ++d) {
    cover.lo[d] = 2 * n_cu[d] * m[d] - lo_dst[d];
    cover.hi[d] = 2 * (n_cu[d] + 1) * m[d] - lo_dst[d];
  }
  op.dst_box = intersect(slab, cover);
  AB_ASSERT(op.dst_box == slab);  // under 2:1, the coarse block spans the face
  ops_.push_back(op);
}

template <int D>
void GhostExchanger<D>::rebuild() {
  ops_.clear();
  boundary_faces_.clear();
  const auto& leaves = forest_->leaves();
  ops_.reserve(leaves.size() * Forest<D>::kNumFaces);
  for (int id : leaves)
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side) plan_face(id, dim, side);

  ops_by_dst_.assign(forest_->node_capacity(), {});
  for (int i = 0; i < static_cast<int>(ops_.size()); ++i)
    ops_by_dst_[ops_[i].dst].push_back(i);

  // Batched execution order: group by kind (SameCopy, Restrict, Prolong),
  // then by destination, so fill() runs each kind's tight loop back to back
  // and writes each destination's ghost ring in one burst. ops_ itself
  // stays in planning order (the parallel-machine simulator walks it).
  exec_order_.resize(ops_.size());
  for (int i = 0; i < static_cast<int>(ops_.size()); ++i) exec_order_[i] = i;
  std::stable_sort(exec_order_.begin(), exec_order_.end(),
                   [this](int ia, int ib) {
                     const GhostOp<D>& a = ops_[ia];
                     const GhostOp<D>& b = ops_[ib];
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.dst < b.dst;
                   });
  phase1_count_ = 0;
  for (const auto& op : ops_)
    if (op.kind != GhostOpKind::Prolong) ++phase1_count_;

  plan_stats_ = GhostPlanStats{};
  for (const auto& op : ops_) {
    const int k = static_cast<int>(op.kind);
    ++plan_stats_.ops[k];
    plan_stats_.cells[k] += op.cells();
  }
}

namespace {

/// Evaluate one op from the source data, emitting (var, cell, value) in a
/// deterministic order (vars outer, dst_box cells inner). Backs the
/// sender-side message pack, which tests pair with unpack_op as the
/// per-cell oracle for the batched row paths.
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

}  // namespace

// The batched executor: each op runs as rows along the unit-stride axis.
// SameCopy rows are straight memcpy; Restrict rows average 2^D stride-2
// source streams; Prolong rows reuse the per-row-constant transverse
// parities and slope-validity flags. All arithmetic matches compute_op
// value for value, so the fill is bitwise identical to pack_op/unpack_op.
template <int D>
void GhostExchanger<D>::apply_op(BlockStore<D>& store,
                                 const GhostOp<D>& op) const {
  BlockView<D> dst = store.view(op.dst);
  ConstBlockView<D> src = std::as_const(store).view(op.src);
  const BlockLayout<D>& lay = layout_;
  const std::int64_t fs = lay.field_stride();
  const Box<D>& b = op.dst_box;
  if (b.empty()) return;

  switch (op.kind) {
    case GhostOpKind::SameCopy: {
      for (int v = 0; v < lay.nvar; ++v) {
        const double* s = src.base + v * fs;
        double* d = dst.base + v * fs;
        for_each_row<D>(b, [&](IVec<D> q, int n) {
          std::memcpy(d + lay.offset(q), s + lay.offset(q + op.a),
                      sizeof(double) * static_cast<std::size_t>(n));
        });
      }
      break;
    }
    case GhostOpKind::Restrict: {
      constexpr int kChildren = 1 << D;
      std::int64_t child[kChildren];
      for (int mask = 0; mask < kChildren; ++mask) {
        std::int64_t off = 0;
        for (int d = 0; d < D; ++d)
          if ((mask >> d) & 1) off += lay.stride(d);
        child[mask] = off;
      }
      for (int v = 0; v < lay.nvar; ++v) {
        const double* s = src.base + v * fs;
        double* d = dst.base + v * fs;
        for_each_row<D>(b, [&](IVec<D> q, int n) {
          double* AB_RESTRICT dp = d + lay.offset(q);
          const double* AB_RESTRICT sp =
              s + lay.offset(q.shifted_left(1) + op.a);
          for (int t = 0; t < n; ++t) {
            double sum = 0.0;
            for (int mask = 0; mask < kChildren; ++mask)
              sum += sp[2 * t + child[mask]];
            dp[t] = sum / kChildren;
          }
        });
      }
      break;
    }
    case GhostOpKind::Prolong: {
      const Box<D>& valid = op.valid;
      const Prolongation kind = prolongation_;
      for (int v = 0; v < lay.nvar; ++v) {
        const double* s = src.base + v * fs;
        double* d = dst.base + v * fs;
        for_each_row<D>(b, [&](IVec<D> q, int n) {
          double* AB_RESTRICT dp = d + lay.offset(q);
          // Transverse coordinates are fixed along the row: precompute the
          // coarse cell, parity factor, and slope-validity per dimension.
          IVec<D> cc{};
          double fac[D > 1 ? D : 1];
          bool use[D > 1 ? D : 1];
          for (int dd = 1; dd < D; ++dd) {
            const int gf = q[dd] + op.a[dd];
            cc[dd] = (gf >> 1) - op.b[dd];
            fac[dd] = (gf & 1) ? 0.25 : -0.25;
            use[dd] = cc[dd] - 1 >= valid.lo[dd] && cc[dd] + 1 < valid.hi[dd];
          }
          cc[0] = 0;
          const std::int64_t cbase = lay.offset(cc);
          const int gf0 = q[0] + op.a[0];
          if (kind == Prolongation::Constant) {
            for (int t = 0; t < n; ++t) {
              const std::int64_t c0 = ((gf0 + t) >> 1) - op.b[0];
              dp[t] = s[cbase + c0];
            }
            return;
          }
          const bool linear = kind == Prolongation::Linear;
          for (int t = 0; t < n; ++t) {
            const int g0 = gf0 + t;
            const std::int64_t c0 = (g0 >> 1) - op.b[0];
            const std::int64_t off = cbase + c0;
            const double c = s[off];
            double val = c;
            if (c0 - 1 >= valid.lo[0] && c0 + 1 < valid.hi[0]) {
              const double sl = linear
                                    ? 0.5 * (s[off + 1] - s[off - 1])
                                    : minmod(s[off + 1] - c, c - s[off - 1]);
              val += ((g0 & 1) ? 0.25 : -0.25) * sl;
            }
            for (int dd = 1; dd < D; ++dd) {
              if (!use[dd]) continue;
              const std::int64_t st = lay.stride(dd);
              const double sl = linear
                                    ? 0.5 * (s[off + st] - s[off - st])
                                    : minmod(s[off + st] - c, c - s[off - st]);
              val += fac[dd] * sl;
            }
            dp[t] = val;
          }
        });
      }
      break;
    }
  }
}

template <int D>
void GhostExchanger<D>::pack_op(const BlockStore<D>& store,
                                const GhostOp<D>& op, double* buf) const {
  ConstBlockView<D> src = store.view(op.src);
  std::int64_t k = 0;
  compute_op<D>(layout_, prolongation_, src, op,
                [&](int, IVec<D>, double val) { buf[k++] = val; });
}

template <int D>
void GhostExchanger<D>::unpack_op(BlockStore<D>& store, const GhostOp<D>& op,
                                  const double* buf) const {
  BlockView<D> dst = store.view(op.dst);
  std::int64_t k = 0;
  for (int v = 0; v < layout_.nvar; ++v)
    for_each_cell<D>(op.dst_box,
                     [&](IVec<D> q) { dst.at(v, q) = buf[k++]; });
}

template <int D>
void GhostExchanger<D>::fill(BlockStore<D>& store, ThreadPool* pool) const {
  // Phase 1: same-level copies and restrictions read only source interiors.
  // Phase 2: prolongations, whose slope stencils may read the ghost cells
  // phase 1 just filled on their coarse sources. Ops within a phase write
  // disjoint regions, so each phase is a parallel_for over a contiguous
  // range of the kind/destination-sorted exec_order_.
  auto run_range = [&](int lo, int hi) {
    if (pool != nullptr) {
      pool->parallel_for(static_cast<std::int64_t>(hi - lo),
                         [&](std::int64_t i) {
                           apply_op(store,
                                    ops_[static_cast<std::size_t>(
                                        exec_order_[lo + i])]);
                         });
    } else {
      for (int i = lo; i < hi; ++i)
        apply_op(store, ops_[static_cast<std::size_t>(exec_order_[i])]);
    }
  };
  run_range(0, phase1_count_);
  run_range(phase1_count_, static_cast<int>(exec_order_.size()));
}

template <int D>
std::int64_t GhostExchanger<D>::total_cells() const {
  std::int64_t n = 0;
  for (const auto& op : ops_) n += op.cells();
  return n;
}

template class GhostExchanger<1>;
template class GhostExchanger<2>;
template class GhostExchanger<3>;

}  // namespace ab
