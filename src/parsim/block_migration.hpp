// Block migration between simulated ranks.
//
// The paper's load re-balancing ("whenever refinement or coarsening occurs,
// load re-balancing should be performed") moves whole blocks between
// processors. A block's wire payload is its interior image (pack_interior,
// core/block_store.hpp) — ghost cells are never shipped because every
// consumer of a migrated block refills its face ghosts before reading them
// (the exchange plan is rebuilt after each regrid, and stale corner ghosts
// are never read by the dimension-split kernels).
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

/// The per-PE record of the migration round migrate_blocks runs from
/// `from` to `to`, without moving any data: one message per (old, new)
/// owner pair, carrying interior_doubles per block. Price it with
/// price_pes.
template <int D>
std::vector<PeLoad> migration_loads(const std::vector<int>& leaves,
                                    const std::vector<int>& from,
                                    const std::vector<int>& to, int npes,
                                    const BlockLayout<D>& lay) {
  const std::int64_t block_bytes =
      interior_doubles(lay) * static_cast<std::int64_t>(sizeof(double));
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
  const std::int64_t n = interior_doubles(lay);
  board.clear();
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    AB_REQUIRE(a >= 0 && b >= 0, "migrate_blocks: leaf without an owner");
    if (a == b) continue;
    BlockStore<D>& src = stores[static_cast<std::size_t>(a)];
    pack_interior<D>(src.view(id), board.append(a, b, n));
    src.release(id);
    ++st.blocks;
  }
  for (int id : leaves) {
    const int a = from[static_cast<std::size_t>(id)];
    const int b = to[static_cast<std::size_t>(id)];
    if (a == b) continue;
    BlockStore<D>& dst = stores[static_cast<std::size_t>(b)];
    dst.ensure(id);
    unpack_interior<D>(board.receive(a, b, n), dst.view(id));
  }
  st.messages = board.messages();
  st.bytes = board.bytes();
  return st;
}

}  // namespace ab
