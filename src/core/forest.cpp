#include "core/forest.hpp"

#include <algorithm>

namespace ab {

template <int D>
Forest<D>::Forest(const Config& cfg) : cfg_(cfg) {
  AB_REQUIRE(cfg_.max_level >= 0 && cfg_.max_level <= kMaxLevelCap,
             "Forest: max_level out of range");
  AB_REQUIRE(cfg_.max_level_diff >= 1, "Forest: max_level_diff must be >= 1");
  for (int d = 0; d < D; ++d) {
    AB_REQUIRE(cfg_.root_blocks[d] >= 1, "Forest: root_blocks must be >= 1");
    AB_REQUIRE(cfg_.domain_hi[d] > cfg_.domain_lo[d],
               "Forest: empty physical domain");
    // Coordinates at the finest level must fit the 19-bit-per-dimension
    // packing used for hash keys.
    AB_REQUIRE((static_cast<std::int64_t>(cfg_.root_blocks[d])
                << cfg_.max_level) <= (1 << 19),
               "Forest: root_blocks << max_level exceeds coordinate range");
  }

  // Create the level-0 root blocks (all of them, or the masked subset).
  const std::int64_t n_roots = cfg_.root_blocks.product();
  nodes_.reserve(static_cast<std::size_t>(n_roots));
  for_each_cell<D>(Box<D>::from_extent(cfg_.root_blocks), [&](IVec<D> c) {
    if (cfg_.root_active && !cfg_.root_active(c)) return;
    int id = allocate_node();
    Node& n = nodes_[id];
    n.coords = c;
    n.level = 0;
    n.parent = -1;
    n.child_index = 0;
    n.leaf = true;
    index_.emplace(key(0, c), id);
    ++num_leaves_;
  });
  AB_REQUIRE(num_leaves_ > 0, "Forest: root mask removed every root block");
}

template <int D>
int Forest<D>::allocate_node() {
  int id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = Node{};
  } else {
    id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[id].live = true;
  ++live_nodes_;
  return id;
}

template <int D>
void Forest<D>::free_node(int id) {
  AB_ASSERT(is_live(id));
  nodes_[id].live = false;
  free_list_.push_back(id);
  --live_nodes_;
}

template <int D>
int Forest<D>::find(int level, IVec<D> coords) const {
  auto it = index_.find(key(level, coords));
  return it == index_.end() ? -1 : it->second;
}

template <int D>
bool Forest<D>::wrap_coords(int level, IVec<D>& c) const {
  IVec<D> ext = level_extent(level);
  for (int d = 0; d < D; ++d) {
    if (c[d] < 0 || c[d] >= ext[d]) {
      if (!cfg_.periodic[d]) return false;
      c[d] = ((c[d] % ext[d]) + ext[d]) % ext[d];
    }
  }
  return true;
}

template <int D>
int Forest<D>::find_enclosing_leaf(int level, IVec<D> coords) const {
  IVec<D> c = coords;
  if (!wrap_coords(level, c)) return -1;
  for (int l = level; l >= 0; --l) {
    int id = find(l, c.shifted_right(level - l));
    if (id >= 0) return nodes_[id].leaf ? id : -1;
  }
  return -1;
}

template <int D>
typename Forest<D>::FaceNeighbor Forest<D>::face_neighbor(int id, int dim,
                                                          int side) const {
  AB_REQUIRE(cfg_.max_level_diff == 1,
             "face_neighbor: fixed-size record requires max_level_diff == 1; "
             "use face_neighbor_leaves()");
  AB_ASSERT(is_leaf(id));
  FaceNeighbor out;
  const int L = nodes_[id].level;
  IVec<D> n = nodes_[id].coords + unit<D>(dim, side ? 1 : -1);
  if (!wrap_coords(L, n)) {
    out.kind = NeighborKind::Boundary;
    return out;
  }
  int id2 = find(L, n);
  if (id2 >= 0) {
    if (nodes_[id2].leaf) {
      out.kind = NeighborKind::Same;
      out.ids[0] = id2;
      return out;
    }
    // Refined neighbor: the children on the shared face, in lexicographic
    // order of their tangential coordinates.
    out.kind = NeighborKind::Finer;
    IVec<D> base = n.shifted_left(1);
    int slot = 0;
    for (int mask = 0; mask < kFaceChildren; ++mask) {
      IVec<D> off;
      off[dim] = side ? 0 : 1;
      int bit = 0;
      for (int d = 0; d < D; ++d) {
        if (d == dim) continue;
        off[d] = (mask >> bit) & 1;
        ++bit;
      }
      int cid = find(L + 1, base + off);
      AB_ASSERT(cid >= 0 && nodes_[cid].leaf);
      out.ids[slot++] = cid;
    }
    return out;
  }
  // A coarser neighbor (one level up under the 2:1 constraint), or — with a
  // root mask — no block at all, which acts as a domain boundary.
  int id3 = L >= 1 ? find(L - 1, n.shifted_right(1)) : -1;
  if (id3 < 0) {
    // Only possible when the neighbor's root was masked away.
    AB_ASSERT(L == 0 || cfg_.root_active != nullptr);
    out.kind = NeighborKind::Boundary;
    return out;
  }
  AB_ASSERT(nodes_[id3].leaf);
  out.kind = NeighborKind::Coarser;
  out.ids[0] = id3;
  return out;
}

template <int D>
std::vector<int> Forest<D>::face_neighbor_leaves(int id, int dim,
                                                 int side) const {
  AB_ASSERT(is_leaf(id));
  std::vector<int> out;
  const int L = nodes_[id].level;
  IVec<D> n = nodes_[id].coords + unit<D>(dim, side ? 1 : -1);
  if (!wrap_coords(L, n)) return out;

  // Find the same-level node or the nearest live ancestor of that location.
  int found = -1;
  for (int l = L; l >= 0; --l) {
    found = find(l, n.shifted_right(L - l));
    if (found >= 0) break;
  }
  if (found < 0) {
    // The neighbor's root block was masked away: a domain boundary.
    AB_ASSERT(cfg_.root_active != nullptr);
    return out;
  }
  if (nodes_[found].leaf) {
    out.push_back(found);
    return out;
  }
  // Descend collecting every leaf touching the shared face. Only children on
  // the side facing back toward `id` can touch it.
  const int face_bit_value = side ? 0 : 1;
  std::vector<int> stack{found};
  while (!stack.empty()) {
    int b = stack.back();
    stack.pop_back();
    if (nodes_[b].leaf) {
      out.push_back(b);
      continue;
    }
    for (int ci = 0; ci < kNumChildren; ++ci) {
      if (((ci >> dim) & 1) != face_bit_value) continue;
      stack.push_back(nodes_[b].children[ci]);
    }
  }
  std::sort(out.begin(), out.end(), [this](int a, int b) {
    if (nodes_[a].level != nodes_[b].level)
      return nodes_[a].level < nodes_[b].level;
    return nodes_[a].coords < nodes_[b].coords;
  });
  return out;
}

template <int D>
void Forest<D>::collect_constraint_violators(int id, int required_min_level,
                                             std::vector<int>& out) const {
  for (int dim = 0; dim < D; ++dim) {
    for (int side = 0; side < 2; ++side) {
      for (int nb : face_neighbor_leaves(id, dim, side)) {
        if (nodes_[nb].level < required_min_level) out.push_back(nb);
      }
    }
  }
}

template <int D>
typename Forest<D>::RefineEvent Forest<D>::refine_raw(int id) {
  AB_ASSERT(is_leaf(id));
  Node& n = nodes_[id];
  AB_REQUIRE(n.level < cfg_.max_level, "refine: level cap reached");
  RefineEvent ev;
  ev.parent = id;
  IVec<D> base = n.coords.shifted_left(1);
  const int child_level = n.level + 1;
  for (int ci = 0; ci < kNumChildren; ++ci) {
    IVec<D> off;
    for (int d = 0; d < D; ++d) off[d] = (ci >> d) & 1;
    int cid = allocate_node();
    Node& c = nodes_[cid];
    c.parent = id;
    c.coords = base + off;
    c.level = static_cast<std::int16_t>(child_level);
    c.child_index = static_cast<std::int8_t>(ci);
    c.leaf = true;
    index_.emplace(key(child_level, c.coords), cid);
    // Re-fetch: allocate_node may have grown nodes_, invalidating `n`.
    nodes_[id].children[ci] = cid;
    ev.children[ci] = cid;
  }
  nodes_[id].leaf = false;
  num_leaves_ += kNumChildren - 1;
  neighbor_table_valid_ = false;
  leaves_valid_ = false;
  return ev;
}

template <int D>
std::vector<typename Forest<D>::RefineEvent> Forest<D>::refine(int id) {
  AB_REQUIRE(is_live(id) && is_leaf(id), "refine: not a live leaf");
  std::vector<RefineEvent> events;
  std::vector<int> stack{id};
  std::vector<int> violators;
  while (!stack.empty()) {
    int b = stack.back();
    if (!is_live(b) || !nodes_[b].leaf) {
      // Already refined along another dependency path.
      stack.pop_back();
      continue;
    }
    // After refining b to level(b)+1, every face-adjacent leaf must be at
    // level >= level(b)+1 - max_level_diff.
    const int need = nodes_[b].level + 1 - cfg_.max_level_diff;
    violators.clear();
    collect_constraint_violators(b, need, violators);
    if (violators.empty()) {
      events.push_back(refine_raw(b));
      stack.pop_back();
    } else {
      // Refine the coarser neighbors first (their levels are strictly
      // smaller, so this terminates).
      stack.insert(stack.end(), violators.begin(), violators.end());
    }
  }
  return events;
}

template <int D>
bool Forest<D>::can_coarsen(int parent_id) const {
  if (!is_live(parent_id) || nodes_[parent_id].leaf) return false;
  const Node& p = nodes_[parent_id];
  for (int ci = 0; ci < kNumChildren; ++ci) {
    if (!nodes_[p.children[ci]].leaf) return false;
  }
  // After coarsening, the parent (level L) must not have a face-adjacent
  // leaf finer than L + max_level_diff.
  const int limit = p.level + cfg_.max_level_diff;
  for (int ci = 0; ci < kNumChildren; ++ci) {
    int c = p.children[ci];
    for (int dim = 0; dim < D; ++dim) {
      // Only the child faces on the parent's boundary see non-siblings.
      int outward_side = (ci >> dim) & 1;
      for (int nb : face_neighbor_leaves(c, dim, outward_side)) {
        if (nodes_[nb].level > limit) return false;
      }
    }
  }
  return true;
}

template <int D>
typename Forest<D>::CoarsenEvent Forest<D>::coarsen(int parent_id) {
  AB_REQUIRE(can_coarsen(parent_id), "coarsen: constraint violation");
  Node& p = nodes_[parent_id];
  CoarsenEvent ev;
  ev.parent = parent_id;
  for (int ci = 0; ci < kNumChildren; ++ci) {
    int c = p.children[ci];
    ev.children[ci] = c;
    index_.erase(key(nodes_[c].level, nodes_[c].coords));
    free_node(c);
    p.children[ci] = -1;
  }
  p.leaf = true;
  num_leaves_ -= kNumChildren - 1;
  neighbor_table_valid_ = false;
  leaves_valid_ = false;
  return ev;
}

template <int D>
void Forest<D>::rebuild_neighbor_table() const {
  neighbor_table_.assign(nodes_.size(), {});
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    if (!nodes_[id].live || !nodes_[id].leaf) continue;
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side)
        neighbor_table_[id][2 * dim + side] = face_neighbor(id, dim, side);
  }
  neighbor_table_valid_ = true;
}

template <int D>
const std::vector<int>& Forest<D>::leaves() const {
  if (!leaves_valid_) {
    leaves_.clear();
    leaves_.reserve(static_cast<std::size_t>(num_leaves_));
    for (int id = 0; id < static_cast<int>(nodes_.size()); ++id)
      if (nodes_[id].live && nodes_[id].leaf) leaves_.push_back(id);
    const int ml = cfg_.max_level;
    std::sort(leaves_.begin(), leaves_.end(), [&](int a, int b) {
      std::uint64_t ka =
          morton_key_global<D>(nodes_[a].level, nodes_[a].coords, ml);
      std::uint64_t kb =
          morton_key_global<D>(nodes_[b].level, nodes_[b].coords, ml);
      if (ka != kb) return ka < kb;
      return nodes_[a].level < nodes_[b].level;
    });
    leaves_valid_ = true;
  }
  return leaves_;
}

template <int D>
typename Forest<D>::Stats Forest<D>::stats() const {
  Stats s;
  s.leaves_per_level.assign(cfg_.max_level + 1, 0);
  s.min_level = cfg_.max_level;
  s.max_level = 0;
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    if (!nodes_[id].live) continue;
    if (nodes_[id].leaf) {
      ++s.leaves;
      int l = nodes_[id].level;
      ++s.leaves_per_level[l];
      s.min_level = std::min(s.min_level, l);
      s.max_level = std::max(s.max_level, l);
    } else {
      ++s.interior_nodes;
    }
  }
  if (s.leaves == 0) s.min_level = 0;
  return s;
}

template class Forest<1>;
template class Forest<2>;
template class Forest<3>;

}  // namespace ab
