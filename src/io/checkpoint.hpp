// Binary checkpoint/restart of an adaptive block grid.
//
// Long-running AMR simulations (the paper's solar-wind runs took many
// hours of T3D time) need restart files that survive the failure modes of
// production storage: a killed writer, a truncated copy, a flipped bit.
// The v2 format is self-describing and integrity-checked:
//
//   [u64 magic "ABKPT02\0"] [u32 format version = 2]
//   3 x section: [u64 payload bytes] [payload] [u32 CRC-32 of payload]
//     section 0 "config"   — dimension, forest configuration, block
//                            layout, solution time, leaf count
//     section 1 "topology" — per leaf: level + logical coordinates
//     section 2 "data"     — per leaf: interior cells, variable-major
//
// Writes are atomic: the file is assembled at `path + ".tmp"` and renamed
// over `path` only after every byte is on disk, so a crash mid-save never
// clobbers the previous checkpoint. Loads verify magic, version, section
// sizes, and per-section CRCs against the in-memory image before touching
// the forest or store — a corrupt file is rejected with a precise
// diagnostic and zero partial mutation. Version-1 files (no checksums)
// are still read, with position-bearing truncation errors.
//
// Restoration rebuilds the topology by re-refining a pristine forest —
// node ids may differ between save and load, so data is keyed by logical
// coordinates, never by id.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/block_store.hpp"
#include "core/forest.hpp"

namespace ab {

/// Write the forest topology and all leaf interiors to `path` atomically
/// (temp file + rename), in the v2 format. Returns the number of bytes
/// written.
template <int D>
std::uint64_t save_checkpoint(const std::string& path, const Forest<D>& forest,
                              const BlockStore<D>& store, double time);

/// As above, but block data is supplied by `view_of(id)` instead of a
/// single store — the rank-parallel solver saves a globally consistent
/// checkpoint from its per-rank private stores this way.
template <int D>
std::uint64_t save_checkpoint_view(
    const std::string& path, const Forest<D>& forest,
    const BlockLayout<D>& layout,
    const std::function<ConstBlockView<D>(int)>& view_of, double time);

/// Restore a checkpoint into `forest` (which must be freshly constructed —
/// no refinement yet — with a configuration matching the file) and `store`
/// (matching layout). Accepts both V1 and V2 files; every structural or
/// integrity violation (bad magic, version skew, truncation, CRC mismatch,
/// configuration mismatch) throws ab::Error *before* any mutation of
/// `forest` or `store`. Returns the saved solution time. Ghost cells are
/// NOT restored; refill them before stepping.
template <int D>
double load_checkpoint(const std::string& path, Forest<D>& forest,
                       BlockStore<D>& store);

extern template std::uint64_t save_checkpoint<1>(const std::string&,
                                                 const Forest<1>&,
                                                 const BlockStore<1>&,
                                                 double);
extern template std::uint64_t save_checkpoint<2>(const std::string&,
                                                 const Forest<2>&,
                                                 const BlockStore<2>&,
                                                 double);
extern template std::uint64_t save_checkpoint<3>(const std::string&,
                                                 const Forest<3>&,
                                                 const BlockStore<3>&,
                                                 double);
extern template std::uint64_t save_checkpoint_view<1>(
    const std::string&, const Forest<1>&, const BlockLayout<1>&,
    const std::function<ConstBlockView<1>(int)>&, double);
extern template std::uint64_t save_checkpoint_view<2>(
    const std::string&, const Forest<2>&, const BlockLayout<2>&,
    const std::function<ConstBlockView<2>(int)>&, double);
extern template std::uint64_t save_checkpoint_view<3>(
    const std::string&, const Forest<3>&, const BlockLayout<3>&,
    const std::function<ConstBlockView<3>(int)>&, double);
extern template double load_checkpoint<1>(const std::string&, Forest<1>&,
                                          BlockStore<1>&);
extern template double load_checkpoint<2>(const std::string&, Forest<2>&,
                                          BlockStore<2>&);
extern template double load_checkpoint<3>(const std::string&, Forest<3>&,
                                          BlockStore<3>&);

}  // namespace ab
