// Ablation A: neighbor location cost — explicit block pointers vs
// cell-based tree traversal (google-benchmark microbenchmarks).
//
// The paper: "Adaptive blocks locate neighbors directly... rather than
// using parent/child tree traversals to locate them as required in
// standard tree structures." This measures exactly that: nanoseconds per
// neighbor query for (a) the explicit per-face neighbor table, which the
// ghost-exchange plan reads after every regrid, (b) the coordinate-hash
// computation that builds it, and (c) the pure parent/child traversal of
// the cell tree at increasing depth.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "celltree/celltree.hpp"
#include "core/forest.hpp"

using namespace ab;

namespace {

/// Mixed-level 3D forest around a refined center.
Forest<3> make_forest(int levels) {
  Forest<3>::Config fc;
  fc.root_blocks = IVec<3>(4);
  fc.max_level = levels;
  Forest<3> f(fc);
  for (int l = 0; l < levels; ++l) {
    auto snapshot = f.leaves();
    for (int id : snapshot) {
      if (!f.is_live(id) || !f.is_leaf(id)) continue;
      // Refine the central octant region.
      auto c = f.coords(id);
      const int mid = 2 << f.level(id);
      bool central = true;
      for (int d = 0; d < 3; ++d)
        central &= (c[d] >= mid / 2 && c[d] < mid * 3 / 2);
      if (central && f.level(id) == l) f.refine(id);
    }
  }
  f.neighbor(f.leaves()[0], 0, 0);  // the first read builds the table
  return f;
}

/// Uniform cell tree of given depth (every traversal has real ancestry).
CellTree<3> make_tree(int depth) {
  CellTree<3>::Config cc;
  cc.root_cells = IVec<3>(2);
  cc.max_level = depth;
  CellTree<3> t(cc);
  for (int l = 0; l < depth; ++l) {
    auto snapshot = t.leaves();
    for (int id : snapshot)
      if (t.is_leaf(id)) t.refine(id);
  }
  return t;
}

void BM_BlockNeighborTable(benchmark::State& state) {
  Forest<3> f = make_forest(3);
  const auto& leaves = f.leaves();
  std::mt19937 rng(7);
  std::vector<int> ids(4096);
  for (auto& id : ids) id = leaves[rng() % leaves.size()];
  std::size_t i = 0;
  for (auto _ : state) {
    const int id = ids[i++ & 4095];
    const auto& nb = f.neighbor(id, (i >> 12) % 3, i & 1);
    benchmark::DoNotOptimize(nb.ids[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockNeighborTable);

void BM_BlockNeighborComputed(benchmark::State& state) {
  // The hash lookups the table is rebuilt from after a topology change.
  Forest<3> f = make_forest(3);
  const auto& leaves = f.leaves();
  std::mt19937 rng(7);
  std::vector<int> ids(4096);
  for (auto& id : ids) id = leaves[rng() % leaves.size()];
  std::size_t i = 0;
  for (auto _ : state) {
    const int id = ids[i++ & 4095];
    auto nb = f.face_neighbor(id, (i >> 12) % 3, i & 1);
    benchmark::DoNotOptimize(nb.ids[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockNeighborComputed);

void BM_CellTreeTraversal(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  CellTree<3> t = make_tree(depth);
  const auto& leaves = t.leaves();
  std::mt19937 rng(7);
  std::vector<int> ids(4096);
  for (auto& id : ids) id = leaves[rng() % leaves.size()];
  std::size_t i = 0;
  std::int64_t steps = 0;
  std::vector<int> nbrs;
  for (auto _ : state) {
    const int id = ids[i++ & 4095];
    t.neighbor_leaves(id, (i >> 12) % 3, i & 1, nbrs, &steps);
    benchmark::DoNotOptimize(nbrs.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["links/query"] =
      static_cast<double>(steps) / state.iterations();
}
BENCHMARK(BM_CellTreeTraversal)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
