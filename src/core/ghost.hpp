// Ghost-cell exchange engine.
//
// Each block is ringed by `ghost` layers of cells mirroring its face
// neighbors (the paper: "ghost cells are added around each block, to store
// values of cells in the neighboring blocks"). This engine precomputes a
// *plan* — a flat list of copy operations — from the forest topology, then
// executes it. The plan serves double duty: the parallel machine simulator
// (src/parsim) walks the same op list to charge per-message communication
// costs, so simulated traffic is exactly what the numerics require.
//
// Every operation reads only the *interior* of its source block, so the fill
// is a single pass with no ordering constraints (and is trivially
// parallelizable over ops). Only face ghosts are filled — corner/edge ghost
// regions stay stale — which is sufficient for the dimension-by-dimension
// finite-volume kernels in src/physics (all stencils offset along one
// dimension at a time).
//
// Data-carrying layouts require even interior extents so coarse/fine block
// interfaces land on coarse-cell boundaries (the paper's production runs
// used 16^3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/prolong.hpp"
#include "util/box.hpp"
#include "util/thread_pool.hpp"

namespace ab {

enum class GhostOpKind : std::uint8_t {
  SameCopy,  ///< same-level neighbor: direct copy
  Restrict,  ///< finer neighbor: 2^D volume average
  Prolong    ///< coarser neighbor: (limited-linear or constant) interpolation
};

/// One ghost-fill operation: fill `dst_box` (in dst-local cell coordinates,
/// lying in dst's ghost region) from block `src`. Index mapping by kind:
///   SameCopy:  src_local = dst_local + a
///   Restrict:  fine corner in src = 2*dst_local + a       (then average)
///   Prolong:   coarse src cell = ((dst_local + a) >> 1) - b,
///              sub-cell parity = (dst_local + a) & 1
template <int D>
struct GhostOp {
  GhostOpKind kind;
  int src = -1;
  int dst = -1;
  std::int8_t face_dim = 0;   ///< which dst face this op serves
  std::int8_t face_side = 0;
  Box<D> dst_box;
  IVec<D> a;
  IVec<D> b;
  /// Prolong only: source cells the slope stencil may read. The interior,
  /// extended by one cell into any source ghost slab that phase 1 of fill()
  /// populates (same-level copy or restriction) — including, always, the
  /// slab facing the destination, which the destination itself restricts
  /// into. Slopes whose stencil leaves this box drop to zero.
  Box<D> valid;

  /// Cells written by this op.
  std::int64_t cells() const { return dst_box.volume(); }
};

/// A (block, face) pair on the physical domain boundary, needing a boundary
/// condition instead of a neighbor exchange.
struct BoundaryFace {
  int block = -1;
  int dim = 0;
  int side = 0;
};

/// Per-plan ghost-op accounting by kind (index = GhostOpKind). Recomputed
/// with every plan rebuild; one full fill() executes exactly these ops, so
/// drivers multiply by fills-per-step to account per-step ghost work.
struct GhostPlanStats {
  std::int64_t ops[3] = {0, 0, 0};    ///< op count by kind
  std::int64_t cells[3] = {0, 0, 0};  ///< destination cells by kind
};

template <int D>
class GhostExchanger {
 public:
  /// Builds the exchange plan for the current forest topology. The layout
  /// must have ghost >= 1 and even interior extents.
  GhostExchanger(const Forest<D>& forest, const BlockLayout<D>& layout,
                 Prolongation prolongation = Prolongation::LimitedLinear);

  /// Recompute the plan after forest topology changed.
  void rebuild();

  /// Execute the plan: fill the face-ghost cells of every leaf block of
  /// `store` from neighbor interiors. Does not apply physical boundary
  /// conditions (see bc.hpp). If `pool` is non-null the ops of each phase
  /// run in parallel (they write disjoint ghost regions; the phase barrier
  /// orders prolongation after the restriction-filled ghosts it reads).
  ///
  /// Execution is batched: ops run in exec_order() — grouped by kind and
  /// destination — and each op executes as contiguous row copies (SameCopy)
  /// or per-row vector loops (Restrict/Prolong), the same row executor
  /// pack_op runs, so a fill is bitwise identical to pack_op followed by
  /// unpack_op.
  void fill(BlockStore<D>& store, ThreadPool* pool = nullptr) const;

  /// Indices into ops() of the ops whose destination is block `dst`, in
  /// plan order.
  const std::vector<int>& ops_into(int dst) const {
    return ops_by_dst_[static_cast<std::size_t>(dst)];
  }

  /// Apply a single op from the plan (advanced drivers — e.g. the
  /// subcycling stepper — select and time-blend ops themselves).
  void apply(BlockStore<D>& store, const GhostOp<D>& op) const;

  /// Doubles one op's message carries: its dst cells times nvar.
  std::int64_t op_payload_doubles(const GhostOp<D>& op) const {
    return op.cells() * layout_.nvar;
  }

  /// Sender-side evaluation: the row executor apply() runs, writing the
  /// op's destination values from the SOURCE block's data into `buf`
  /// instead (var-major, dst_box cells in for_each_cell order;
  /// op_payload_doubles entries). This is the message a distributed
  /// implementation sends — restriction/prolongation happen on the owning
  /// processor, as in the original production code.
  void pack_op(const BlockStore<D>& store, const GhostOp<D>& op,
               double* buf) const;

  /// Receiver-side: copy a packed payload into the destination ghosts, one
  /// row at a time.
  void unpack_op(BlockStore<D>& store, const GhostOp<D>& op,
                 const double* buf) const;

  const std::vector<GhostOp<D>>& ops() const { return ops_; }
  /// Indices into ops() in batched execution order: SameCopy ops first,
  /// then Restrict (together phase 1), then Prolong (phase 2), each group
  /// sorted by destination block so a destination's ghost ring is written
  /// in one locality burst.
  const std::vector<int>& exec_order() const { return exec_order_; }
  /// Number of leading exec_order() entries in phase 1 (non-Prolong).
  int phase1_count() const { return phase1_count_; }
  const std::vector<BoundaryFace>& boundary_faces() const {
    return boundary_faces_;
  }
  const Forest<D>& forest() const { return *forest_; }
  const BlockLayout<D>& layout() const { return layout_; }
  Prolongation prolongation() const { return prolongation_; }

  /// Total ghost cells moved per fill (for the communication model).
  std::int64_t total_cells() const;

  /// Op/cell counts by kind for the current plan (one fill's worth).
  const GhostPlanStats& plan_stats() const { return plan_stats_; }

 private:
  void plan_face(int id, int dim, int side);

  const Forest<D>* forest_;
  BlockLayout<D> layout_;
  Prolongation prolongation_;
  std::vector<GhostOp<D>> ops_;
  std::vector<int> exec_order_;  // ops_ indices, batched execution order
  int phase1_count_ = 0;
  std::vector<std::vector<int>> ops_by_dst_;  // indices into ops_, per block
  std::vector<BoundaryFace> boundary_faces_;
  GhostPlanStats plan_stats_;
};

/// The row executor behind GhostExchanger::fill, for block data outside an
/// exchanger: evaluate `op` (its kind, dst_box, a, b and, for Prolong,
/// valid; src and dst are not read) from the block data `src` into the
/// block data `dst`, both laid out by `layout`. Refinement and coarsening
/// run it with a Prolong op from parent to child or a Restrict op from
/// child to parent (regrid_data.hpp). Instantiated for D = 1, 2, 3 in
/// ghost.cpp.
template <int D>
void apply_transfer(const BlockLayout<D>& layout, Prolongation prolongation,
                    const GhostOp<D>& op, const double* src, double* dst);

extern template class GhostExchanger<1>;
extern template class GhostExchanger<2>;
extern template class GhostExchanger<3>;

}  // namespace ab
