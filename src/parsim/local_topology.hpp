// Distributed block metadata: per-rank local topology with SFC-key
// neighbor discovery.
//
// The global-metadata RankSolver has every simulated rank hold the full
// forest and the full owner map — O(total blocks) per rank, the bottleneck
// Schornbaum & Rüde (PAPERS.md) remove at extreme scale. This header is the
// distributed alternative: each rank keeps
//
//   - its *owned* block descriptors,
//   - a *neighbor hull* of remote descriptors (blocks face-adjacent to an
//     owned block, the ones ghost exchange / flux correction can touch),
//   - an O(P) *rank directory* of per-rank curve-key ranges.
//
// Neighbor discovery needs no global scan. Both SFC partition policies
// assign ranks contiguous chunks of the key-sorted leaf list, and a block at
// level l covers a contiguous, aligned interval of 2^(D*(max_level-l))
// fine-grain curve keys (Morton by construction; Hilbert because the curve
// is hierarchical on aligned power-of-two cubes). So "who owns the cell
// across this face?" is: compute the fine probe key, binary-search the
// directory for the owning rank, binary-search that rank's owned intervals
// for the covering block — O(log P + log(blocks/rank)), touching only
// O(blocks/rank + hull) state. The 2:1 level constraint bounds the probes
// at 2^(D-1) per face (one per potentially-finer neighbor).
//
// tests/parsim/local_topology_test.cpp checks the hull against the forest's
// global-scan oracle (face_neighbor_leaves) over randomized forests and
// regrids; RankSolver consumes the structure behind Config::
// distributed_metadata, where it is load-bearing for ghost-plan and
// migration verification plus the regrid topology-delta exchange
// (src/util/topo_codec.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/forest.hpp"
#include "parsim/partition.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

/// Compact descriptor of one block as a remote rank sees it: identity,
/// placement, and the fine-grain curve-key interval it covers.
template <int D>
struct BlockDesc {
  int id = -1;  ///< forest node id (stands in for a global block id)
  int level = 0;
  IVec<D> coords{};
  std::uint64_t key_begin = 0;  ///< first fine-grain curve key covered
  std::uint64_t key_end = 0;    ///< one past the last
  int owner = -1;
};

// --- Hull-prefetch hints on a double-valued channel ----------------------
//
// A rank's owned-block descriptors cross a MessageBoard channel, which
// carries doubles, as [count, then per block: level, coords..., owner].

/// Append one block to a rank's hint payload, opening its count first.
template <int D>
void pack_block_hint(std::vector<double>& payload, int level,
                     const IVec<D>& coords, int owner) {
  if (payload.empty()) payload.push_back(0.0);
  payload.push_back(static_cast<double>(level));
  for (int d = 0; d < D; ++d) payload.push_back(static_cast<double>(coords[d]));
  payload.push_back(static_cast<double>(owner));
  payload[0] += 1.0;
}

namespace hint_detail {
/// A double read off the wire as an integer in [lo, hi]; NaN, infinities
/// and fractions fail the check before any conversion.
inline int wire_int(double v, int lo, int hi, const char* what) {
  AB_REQUIRE(v >= lo && v <= hi && v == std::floor(v),
             std::string("hull hint: ") + what + " " + std::to_string(v) +
                 " outside [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
  return static_cast<int>(v);
}
}  // namespace hint_detail

/// Decode a hint payload of `n` doubles into descriptors keyed on `curve`.
/// Every value comes off the wire, so each is checked before use: the
/// payload must be exactly 1 + count * (D + 2) doubles, each level in
/// [0, max_level], each coordinate inside root_blocks << level, and each
/// owner in [0, npes). Throws Error otherwise.
template <int D>
std::vector<BlockDesc<D>> unpack_block_hints(const double* payload,
                                             std::size_t n,
                                             const CurveMap<D>& curve,
                                             int npes) {
  constexpr std::size_t kHintDoubles = D + 2;
  AB_REQUIRE(n >= 1, "hull hint: payload without a count");
  const std::size_t count = (n - 1) / kHintDoubles;
  AB_REQUIRE((n - 1) % kHintDoubles == 0 &&
                 payload[0] == static_cast<double>(count),
             "hull hint: a payload of " + std::to_string(n) +
                 " double(s) cannot hold the " + std::to_string(payload[0]) +
                 " hint(s) it declares");
  std::vector<BlockDesc<D>> hints(count);
  const double* at = payload + 1;
  for (BlockDesc<D>& b : hints) {
    b.level = hint_detail::wire_int(*at++, 0, curve.max_level(), "level");
    for (int d = 0; d < D; ++d)
      b.coords[d] = hint_detail::wire_int(
          *at++, 0, (curve.root_blocks()[d] << b.level) - 1, "coordinate");
    b.owner = hint_detail::wire_int(*at++, 0, npes - 1, "owner");
    b.key_begin = curve.interval_begin(b.level, b.coords);
    b.key_end = b.key_begin + curve.span(b.level);
  }
  return hints;
}

/// The O(P) global structure every rank may hold: one key range per rank
/// (the distributed analogue of the owner array). Ranks owning no blocks
/// have no range — lookups simply never resolve to them.
class RankDirectory {
 public:
  struct Range {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;  // exclusive
    int rank = -1;
  };

  void clear() { ranges_.clear(); }

  /// Append rank `rank`'s key range. Ranks must be added in key order with
  /// disjoint ranges (the contiguous-chunk property of SFC partitions).
  void add(int rank, std::uint64_t begin, std::uint64_t end) {
    AB_REQUIRE(begin < end, "RankDirectory: empty range for rank " +
                                std::to_string(rank));
    AB_REQUIRE(ranges_.empty() || ranges_.back().end <= begin,
               "RankDirectory: rank ranges must be disjoint and ordered");
    ranges_.push_back({begin, end, rank});
  }

  /// Rank whose key range contains `key`, or -1 (domain boundary, root-mask
  /// gap, or key past the last owned block). O(log P).
  int owner_of(std::uint64_t key) const {
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), key,
        [](std::uint64_t k, const Range& r) { return k < r.begin; });
    if (it == ranges_.begin()) return -1;
    --it;
    return key < it->end ? it->rank : -1;
  }

  std::size_t num_ranges() const { return ranges_.size(); }
  std::size_t bytes() const { return ranges_.capacity() * sizeof(Range); }

 private:
  std::vector<Range> ranges_;
};

/// One rank's view of the world: owned descriptors, the neighbor hull, and
/// the ranks it exchanges with. Both lists sort by key_begin, so membership
/// is a binary search.
template <int D>
class LocalTopology {
 public:
  const std::vector<BlockDesc<D>>& owned() const { return owned_; }
  const std::vector<BlockDesc<D>>& hull() const { return hull_; }
  /// Ranks owning at least one hull block (sorted): the recipients of this
  /// rank's topology deltas, and the only ranks it talks to.
  const std::vector<int>& neighbor_ranks() const { return neighbor_ranks_; }

  /// Owned block whose key interval contains `key`, or nullptr.
  const BlockDesc<D>* find_owned(std::uint64_t key) const {
    return find_in(owned_, key);
  }
  /// Hull block whose key interval contains `key`, or nullptr.
  const BlockDesc<D>* find_hull(std::uint64_t key) const {
    return find_in(hull_, key);
  }

  /// This rank's topology memory — the quantity that must stay
  /// O(blocks/rank + hull), not O(total blocks).
  std::size_t bytes() const {
    return (owned_.capacity() + hull_.capacity()) * sizeof(BlockDesc<D>) +
           neighbor_ranks_.capacity() * sizeof(int);
  }

 private:
  template <int D2>
  friend class LocalTopologySet;

  static const BlockDesc<D>* find_in(const std::vector<BlockDesc<D>>& v,
                                     std::uint64_t key) {
    auto it = std::upper_bound(
        v.begin(), v.end(), key,
        [](std::uint64_t k, const BlockDesc<D>& b) { return k < b.key_begin; });
    if (it == v.begin()) return nullptr;
    --it;
    return key < it->key_end ? &*it : nullptr;
  }

  std::vector<BlockDesc<D>> owned_;
  std::vector<BlockDesc<D>> hull_;
  std::vector<int> neighbor_ranks_;
};

/// Builds and holds the per-rank local topologies for one (forest, owner)
/// snapshot — the simulation-side stand-in for P ranks each building their
/// own view from their owned blocks plus probe responses.
template <int D>
class LocalTopologySet {
 public:
  struct BuildStats {
    std::int64_t probes = 0;         ///< face probes issued, all ranks
    std::int64_t remote_probes = 0;  ///< probes resolving to another rank
    std::int64_t prefetch_hits = 0;  ///< remote probes a validated hint saved
  };

  /// Build the per-rank views. `owner` is the node-id -> rank map from
  /// partition_blocks (only Morton/Hilbert are valid); requires the
  /// forest's 2:1 level constraint, which bounds face probes.
  ///
  /// `prefetch`, when non-null, holds per-rank hull-prefetch hints: remote
  /// descriptors shipped with the migration traffic (RankSolver's
  /// exchange_hull_prefetch), each sorted by key_begin. A probe whose hint
  /// validates against the directory skips the remote round trip and
  /// counts as a prefetch_hit instead of a remote_probe; stale hints fall
  /// back to the probe path. The hull built is identical either way.
  LocalTopologySet(
      const Forest<D>& forest, const std::vector<int>& owner, int npes,
      PartitionPolicy policy,
      const std::vector<std::vector<BlockDesc<D>>>* prefetch = nullptr)
      : curve_(forest.config(), policy),
        ranks_(static_cast<std::size_t>(npes)) {
    AB_REQUIRE(npes >= 1, "LocalTopologySet: npes must be >= 1");
    AB_REQUIRE(forest.config().max_level_diff == 1,
               "LocalTopologySet: face probes require the 2:1 constraint");
    AB_REQUIRE(prefetch == nullptr ||
                   static_cast<int>(prefetch->size()) == npes,
               "LocalTopologySet: prefetch hints must be sized to npes");
    build_owned(forest, owner, npes);
    build_directory(npes);
    build_hulls(forest, npes, prefetch);
  }

  const CurveMap<D>& curve() const { return curve_; }
  const RankDirectory& directory() const { return directory_; }
  const LocalTopology<D>& rank(int pe) const {
    AB_REQUIRE(pe >= 0 && pe < static_cast<int>(ranks_.size()),
               "LocalTopologySet: rank out of range");
    return ranks_[static_cast<std::size_t>(pe)];
  }
  int npes() const { return static_cast<int>(ranks_.size()); }
  const BuildStats& stats() const { return stats_; }

  /// True if rank `pe` can name block (level, coords) — it owns it or holds
  /// it in its hull. What ghost-plan verification asks.
  bool knows(int pe, int level, IVec<D> coords) const {
    const std::uint64_t key = curve_.interval_begin(level, coords);
    const LocalTopology<D>& t = rank(pe);
    const BlockDesc<D>* b = t.find_owned(key);
    if (b == nullptr) b = t.find_hull(key);
    return b != nullptr && b->level == level && b->coords == coords;
  }

  /// Largest owned-block count over ranks.
  std::size_t max_owned() const {
    std::size_t m = 0;
    for (const auto& t : ranks_) m = std::max(m, t.owned().size());
    return m;
  }
  /// Largest hull size over ranks.
  std::size_t max_hull() const {
    std::size_t m = 0;
    for (const auto& t : ranks_) m = std::max(m, t.hull().size());
    return m;
  }
  /// Largest per-rank topology footprint (descriptors, excluding the O(P)
  /// directory, reported separately by directory().bytes()).
  std::size_t max_rank_bytes() const {
    std::size_t m = 0;
    for (const auto& t : ranks_) m = std::max(m, t.bytes());
    return m;
  }

 private:
  void build_owned(const Forest<D>& forest, const std::vector<int>& owner,
                   int npes) {
    for (int id : forest.leaves()) {
      AB_REQUIRE(id < static_cast<int>(owner.size()) && owner[id] >= 0 &&
                     owner[id] < npes,
                 "LocalTopologySet: leaf without a valid owner");
      BlockDesc<D> b;
      b.id = id;
      b.level = forest.level(id);
      b.coords = forest.coords(id);
      b.key_begin = curve_.interval_begin(b.level, b.coords);
      b.key_end = b.key_begin + curve_.span(b.level);
      b.owner = owner[id];
      ranks_[static_cast<std::size_t>(b.owner)].owned_.push_back(b);
    }
    // forest.leaves() arrives in Morton order; Hilbert views re-sort.
    for (auto& t : ranks_)
      std::sort(t.owned_.begin(), t.owned_.end(),
                [](const BlockDesc<D>& a, const BlockDesc<D>& b) {
                  return a.key_begin < b.key_begin;
                });
  }

  void build_directory(int npes) {
    directory_.clear();
    for (int pe = 0; pe < npes; ++pe) {
      // Zero-owned-block ranks (npes > leaf count, dead ranks after a
      // recovery) get no directory range — probes can never resolve to
      // them, and their hull stays empty below.
      const auto& own = ranks_[static_cast<std::size_t>(pe)].owned_;
      if (own.empty()) continue;
      directory_.add(pe, own.front().key_begin, own.back().key_end);
    }
  }

  void build_hulls(
      const Forest<D>& forest, int npes,
      const std::vector<std::vector<BlockDesc<D>>>* prefetch = nullptr) {
    for (int pe = 0; pe < npes; ++pe) {
      LocalTopology<D>& t = ranks_[static_cast<std::size_t>(pe)];
      for (const BlockDesc<D>& b : t.owned_) {
        const int shift = curve_.max_level() - b.level;
        // Probe fine cells hug the face: one per potentially-finer
        // neighbor (2:1 constraint), which also covers Same and Coarser.
        const int half = shift > 0 ? (1 << (shift - 1)) : 0;
        for (int dim = 0; dim < D; ++dim) {
          for (int side = 0; side < 2; ++side) {
            for (int k = 0; k < Forest<D>::kFaceChildren; ++k) {
              IVec<D> probe = b.coords.shifted_left(shift);
              probe[dim] =
                  side == 1 ? (b.coords[dim] + 1) << shift : probe[dim] - 1;
              int bit = 0;
              for (int d = 0; d < D; ++d) {
                if (d == dim) continue;
                if ((k >> bit) & 1) probe[d] += half;
                ++bit;
              }
              ++stats_.probes;
              if (!forest.wrap_coords(curve_.max_level(), probe))
                continue;  // domain boundary
              const std::uint64_t key = curve_.point_key(probe);
              const int who = directory_.owner_of(key);
              if (who == pe) continue;  // local neighbor: already owned
              if (prefetch != nullptr && who >= 0) {
                // A hint that still agrees with the directory and the
                // owner's real descriptor replaces the remote round trip.
                const BlockDesc<D>* hint = LocalTopology<D>::find_in(
                    (*prefetch)[static_cast<std::size_t>(pe)], key);
                if (hint != nullptr && hint->owner == who) {
                  const BlockDesc<D>* nb =
                      ranks_[static_cast<std::size_t>(who)].find_owned(key);
                  if (nb != nullptr && nb->key_begin == hint->key_begin &&
                      nb->level == hint->level && nb->coords == hint->coords) {
                    ++stats_.prefetch_hits;
                    t.hull_.push_back(*nb);
                    continue;
                  }
                }
              }
              ++stats_.remote_probes;
              if (who < 0) continue;  // root-mask gap past the key range
              const BlockDesc<D>* nb =
                  ranks_[static_cast<std::size_t>(who)].find_owned(key);
              if (nb == nullptr) continue;  // gap inside the rank's range
              t.hull_.push_back(*nb);
            }
          }
        }
      }
      // Distinct blocks have distinct (disjoint) intervals, so key_begin
      // identifies a block: sort + unique dedups the probe hits.
      std::sort(t.hull_.begin(), t.hull_.end(),
                [](const BlockDesc<D>& a, const BlockDesc<D>& b) {
                  return a.key_begin < b.key_begin;
                });
      t.hull_.erase(std::unique(t.hull_.begin(), t.hull_.end(),
                                [](const BlockDesc<D>& a,
                                   const BlockDesc<D>& b) {
                                  return a.key_begin == b.key_begin;
                                }),
                    t.hull_.end());
      t.neighbor_ranks_.clear();
      for (const BlockDesc<D>& h : t.hull_) t.neighbor_ranks_.push_back(h.owner);
      std::sort(t.neighbor_ranks_.begin(), t.neighbor_ranks_.end());
      t.neighbor_ranks_.erase(
          std::unique(t.neighbor_ranks_.begin(), t.neighbor_ranks_.end()),
          t.neighbor_ranks_.end());
    }
  }

  CurveMap<D> curve_;
  RankDirectory directory_;
  std::vector<LocalTopology<D>> ranks_;
  BuildStats stats_;
};

}  // namespace ab
