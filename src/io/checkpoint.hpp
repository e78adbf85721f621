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
//     section 2 "data"     — per leaf: its interior image (pack_interior:
//                            variable-major, no ghosts)
//
// Writes are atomic: the file is assembled at `<path>.tmp.<pid>.<n>` and
// renamed over `path` only after every byte has been flushed to the OS, so
// a crash mid-save never clobbers the previous checkpoint, and a failed
// write removes its tmp file before it throws. Loads verify magic, version,
// section sizes, per-section CRCs and the configuration, and rebuild the
// saved topology into a forest of their own: nothing the caller holds is
// touched, so a restoring solver changes nothing until the whole file has
// been checked. An `ABKPT01` file (the unchecksummed v1 layout) is rejected
// as an older revision.
//
// Node ids may differ between save and load, so data is keyed by logical
// coordinates, never by id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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

/// A checkpoint file read and checked in full, not yet applied to anything:
/// the saved topology rebuilt into a forest of its own, the solution time,
/// and the file image the leaf interiors are copied out of.
template <int D>
struct Checkpoint {
  Forest<D> forest;
  double time = 0.0;

  /// Copy every saved leaf's interior into `view_of(id)`, once each; `id`
  /// is the leaf's node id in `forest`, and the view has the block layout
  /// the file was loaded with. Ghost cells are not written.
  void write_leaves(const std::function<BlockView<D>(int)>& view_of) const;

  std::vector<char> bytes;  ///< the file image
  /// Per saved leaf: its node id in `forest`, and the file offset of its
  /// interior cells.
  std::vector<std::pair<int, std::size_t>> leaves;
};

/// Read the checkpoint at `path`, written with forest configuration `cfg`
/// and block layout `layout`. Every structural or integrity violation (bad
/// magic, version skew, truncation, CRC mismatch, configuration mismatch,
/// a topology that does not rebuild) throws ab::Error.
template <int D>
Checkpoint<D> load_checkpoint(const std::string& path,
                              const typename Forest<D>::Config& cfg,
                              const BlockLayout<D>& layout);

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
extern template struct Checkpoint<1>;
extern template struct Checkpoint<2>;
extern template struct Checkpoint<3>;
extern template Checkpoint<1> load_checkpoint<1>(const std::string&,
                                                 const Forest<1>::Config&,
                                                 const BlockLayout<1>&);
extern template Checkpoint<2> load_checkpoint<2>(const std::string&,
                                                 const Forest<2>::Config&,
                                                 const BlockLayout<2>&);
extern template Checkpoint<3> load_checkpoint<3>(const std::string&,
                                                 const Forest<3>::Config&,
                                                 const BlockLayout<3>&);

}  // namespace ab
