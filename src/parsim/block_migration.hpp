// Block migration between simulated ranks.
//
// The paper's load re-balancing ("whenever refinement or coarsening occurs,
// load re-balancing should be performed") moves whole blocks between
// processors. A block's wire payload is its interior cell data, variable by
// variable in for_each_cell order — ghost cells are never shipped because
// every consumer of a migrated block refills its face ghosts before reading
// them (the exchange plan is rebuilt after each regrid, and stale corner
// ghosts are never read by the dimension-split kernels).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/block_store.hpp"
#include "parsim/buffered_exchange.hpp"
#include "parsim/machine.hpp"
#include "util/error.hpp"

namespace ab {

/// Doubles one migrated block carries on the wire.
template <int D>
std::int64_t block_payload_doubles(const BlockLayout<D>& lay) {
  return lay.interior_cells() * lay.nvar;
}

/// Serialize block `id`'s interior (variables outer, cells in
/// for_each_cell order) into `buf` (block_payload_doubles entries).
template <int D>
void pack_block_payload(const BlockStore<D>& store, int id, double* buf) {
  ConstBlockView<D> v = store.view(id);
  double* cursor = buf;
  for (int var = 0; var < store.layout().nvar; ++var) {
    for_each_cell<D>(store.layout().interior_box(),
                     [&](IVec<D> p) { *cursor++ = v.at(var, p); });
  }
}

/// Allocate block `id` in `store` (if absent) and write a packed payload
/// into its interior.
template <int D>
void unpack_block_payload(BlockStore<D>& store, int id, const double* buf) {
  store.ensure(id);
  BlockView<D> v = store.view(id);
  const double* cursor = buf;
  for (int var = 0; var < store.layout().nvar; ++var) {
    for_each_cell<D>(store.layout().interior_box(),
                     [&](IVec<D> p) { v.at(var, p) = *cursor++; });
  }
}

/// The per-PE record of the migration round migrate_blocks runs from
/// `from` to `to`, without moving any data: one message per (old, new)
/// owner pair, carrying block_payload_doubles per block. Price it with
/// price_pes.
template <int D>
std::vector<PeLoad> migration_loads(const std::vector<int>& leaves,
                                    const std::vector<int>& from,
                                    const std::vector<int>& to, int npes,
                                    const BlockLayout<D>& lay) {
  const std::int64_t block_bytes =
      block_payload_doubles(lay) * static_cast<std::int64_t>(sizeof(double));
  std::map<std::pair<int, int>, std::int64_t> pair_bytes;
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    AB_REQUIRE(a >= 0 && b >= 0 && a < npes && b < npes,
               "migration_loads: leaf without an owner");
    if (a != b) pair_bytes[{a, b}] += block_bytes;
  }
  std::vector<PeLoad> pes(static_cast<std::size_t>(npes));
  for (const auto& [pair, bytes] : pair_bytes) {
    pes[static_cast<std::size_t>(pair.first)].add_sent(bytes);
    pes[static_cast<std::size_t>(pair.second)].add_recv(bytes);
  }
  return pes;
}

struct MigrationStats {
  std::int64_t blocks = 0;    ///< blocks that changed owner
  std::int64_t messages = 0;  ///< pair-aggregated messages shipped
  std::int64_t bytes = 0;     ///< wire bytes shipped
};

/// One bulk-synchronous migration round: every leaf whose owner differs
/// between `from` and `to` (both indexed by node id) is packed on its old
/// owner into its (old, new) channel of `board`, and unpacked on its new
/// owner; the old copy is released. Each channel crosses the wire as one
/// frame. `stores[pe]` is PE pe's private store.
template <int D>
MigrationStats migrate_blocks(const std::vector<int>& leaves,
                              const std::vector<int>& from,
                              const std::vector<int>& to,
                              std::vector<BlockStore<D>>& stores,
                              MessageBoard& board) {
  AB_REQUIRE(!stores.empty(), "migrate_blocks: no stores");
  MigrationStats st;
  const BlockLayout<D>& lay = stores.front().layout();
  const std::int64_t n = block_payload_doubles(lay);
  board.clear();
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    AB_REQUIRE(a >= 0 && b >= 0, "migrate_blocks: leaf without an owner");
    if (a == b) continue;
    pack_block_payload<D>(stores[static_cast<std::size_t>(a)], id,
                          board.append(a, b, n));
    stores[static_cast<std::size_t>(a)].release(id);
    ++st.blocks;
  }
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    if (a == b) continue;
    unpack_block_payload<D>(stores[static_cast<std::size_t>(b)], id,
                            board.receive(a, b, n));
  }
  st.messages = board.messages();
  st.bytes = board.bytes();
  return st;
}

}  // namespace ab
