// Per-cell ghost-fill oracle for the batched row executor.
//
// pack_op evaluates an op cell by cell from the source block (the sender
// side of a rank-parallel exchange) and unpack_op writes the payload into
// the destination ghosts, so the pair is the per-cell path the batched
// GhostExchanger::fill must match byte for byte.
#pragma once

#include <vector>

#include "core/block_store.hpp"
#include "core/ghost.hpp"

namespace ab::testing {

/// Apply one op through the per-cell path.
template <int D>
void apply_per_cell(const GhostExchanger<D>& gx, BlockStore<D>& store,
                    const GhostOp<D>& op) {
  std::vector<double> buf(static_cast<std::size_t>(gx.op_payload_doubles(op)));
  gx.pack_op(store, op, buf.data());
  gx.unpack_op(store, op, buf.data());
}

/// Fill every op of the plan through the per-cell path, in the two-phase
/// order fill() uses (prolongations read restriction-filled ghosts).
template <int D>
void fill_per_cell(const GhostExchanger<D>& gx, BlockStore<D>& store) {
  for (const auto& op : gx.ops())
    if (op.kind != GhostOpKind::Prolong) apply_per_cell(gx, store, op);
  for (const auto& op : gx.ops())
    if (op.kind == GhostOpKind::Prolong) apply_per_cell(gx, store, op);
}

}  // namespace ab::testing
