// Scale-out study: distributed vs global block metadata by rank count.
//
// The global-metadata rank path gives every simulated rank the full forest
// and the full owner map — O(total blocks) per rank, which is what caps
// scale-out. The distributed path (src/parsim/local_topology.hpp) keeps
// O(blocks/rank + hull) descriptors plus an O(P) key-range directory, and
// ships binarized-octree deltas (src/util/topo_codec.hpp) to neighbor
// ranks on regrid instead of re-broadcasting the forest. This ablation
// charts, for P = 64..4096 on a solar-wind forest: per-rank metadata
// bytes for both paths, hull sizes and probe counts, modeled ghost
// traffic per rank, load imbalance, and the regrid topology-update bytes
// (full re-broadcast vs delta-to-neighbors).
//
// --json emits the same numbers for bench/run_benchmarks.sh to merge
// into BENCH_solver.json (the table docs/PERFORMANCE.md quotes).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/ghost.hpp"
#include "parsim/local_topology.hpp"
#include "parsim/machine.hpp"
#include "parsim/partition.hpp"
#include "parsim/simulate.hpp"
#include "parsim/workload.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"
#include "util/table.hpp"
#include "util/topo_codec.hpp"

using namespace ab;

namespace {

struct Point {
  const char* policy;
  int npes;
  double imbalance;
  std::size_t max_owned;
  std::size_t max_hull;
  std::size_t dist_rank_bytes;   // max descriptors/rank + directory share
  std::size_t directory_bytes;   // the O(P) structure itself
  std::size_t global_rank_bytes; // full forest + owner map, per rank
  std::int64_t probes;
  std::int64_t remote_probes;
  double remote_kb_per_rank;
  double efficiency;
  std::size_t regrid_global_bytes; // full-topology re-broadcast to P ranks
  std::size_t regrid_delta_bytes;  // deltas to neighbor ranks only
  double build_ms;
};

/// Regrid topology-update traffic under both schemes for one synthetic
/// adapt: every 32nd leaf refines. Global path: every rank re-learns the
/// whole forest (one full encoding each). Distributed: each rank encodes
/// its own refine records and sends them to its hull neighbors.
template <int D>
void regrid_traffic(const Forest<D>& forest, const std::vector<int>& owner,
                    const LocalTopologySet<D>& topo, int npes,
                    std::size_t& global_bytes, std::size_t& delta_bytes) {
  global_bytes = encode_topology<D>(forest).size() *
                 static_cast<std::size_t>(npes);
  std::vector<std::vector<TopoDeltaRecord<D>>> recs(
      static_cast<std::size_t>(npes));
  int i = 0;
  for (int id : forest.leaves()) {
    if (i++ % 32 != 0) continue;
    recs[static_cast<std::size_t>(owner[id])].push_back(
        {TopoDeltaOp::Refine, forest.level(id), forest.coords(id)});
  }
  delta_bytes = 0;
  for (int pe = 0; pe < npes; ++pe) {
    const auto& r = recs[static_cast<std::size_t>(pe)];
    if (r.empty()) continue;
    delta_bytes += encode_topo_delta<D>(r).size() *
                   topo.rank(pe).neighbor_ranks().size();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  Forest<3>::Config fc;
  fc.root_blocks = IVec<3>(2);
  fc.max_level = 7;
  fc.domain_lo = RVec<3>(-1.0);
  fc.domain_hi = RVec<3>(1.0);
  Forest<3> forest(fc);
  build_solar_wind_forest<3>(forest, RVec<3>(0.0), 0.22, 0.62, 0.08, 8192);
  const int nblocks = forest.num_leaves();

  const BlockLayout<3> lay(IVec<3>(16), 2, IdealMhd<3>::NVAR);
  const std::uint64_t flops =
      fv_update_flops<3, IdealMhd<3>>(lay, SpatialOrder::Second);
  GhostExchanger<3> gx(forest, lay);
  const MachineModel machine = MachineModel::cray_t3d();

  // What the global path charges every rank: the forest topology, with the
  // per-face neighbor table the exchanger's plan was just built from, plus
  // the node-indexed owner map.
  const std::size_t global_rank_bytes =
      forest.topology_bytes() +
      static_cast<std::size_t>(forest.node_capacity()) * sizeof(int);

  const std::pair<const char*, PartitionPolicy> policies[] = {
      {"morton", PartitionPolicy::Morton},
      {"hilbert", PartitionPolicy::Hilbert},
  };
  std::vector<Point> points;
  for (auto [pname, policy] : policies) {
    for (int npes : {64, 256, 1024, 4096}) {
      const auto owner = partition_blocks<3>(forest, npes, policy);
      const auto t0 = std::chrono::steady_clock::now();
      const LocalTopologySet<3> topo(forest, owner, npes, policy);
      const auto t1 = std::chrono::steady_clock::now();
      const auto cost =
          simulate_step<3>(gx, owner, npes, machine,
                           [&](int) { return flops; });
      Point p;
      p.policy = pname;
      p.npes = npes;
      p.imbalance = load_imbalance(owner, npes);
      p.max_owned = topo.max_owned();
      p.max_hull = topo.max_hull();
      p.directory_bytes = topo.directory().bytes();
      p.dist_rank_bytes = topo.max_rank_bytes() + p.directory_bytes;
      p.global_rank_bytes = global_rank_bytes;
      p.probes = topo.stats().probes;
      p.remote_probes = topo.stats().remote_probes;
      p.remote_kb_per_rank =
          static_cast<double>(cost.remote_bytes) / npes / 1e3;
      p.efficiency = cost.efficiency;
      regrid_traffic<3>(forest, owner, topo, npes, p.regrid_global_bytes,
                        p.regrid_delta_bytes);
      p.build_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      points.push_back(p);
    }
  }

  if (json) {
    std::printf("{\n \"blocks\": %d,\n \"topology_full_bytes\": %zu,\n"
                " \"points\": [\n",
                nblocks, encode_topology<3>(forest).size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::printf(
          "  {\"policy\": \"%s\", \"npes\": %d, \"imbalance\": %.4f,"
          " \"max_owned\": %zu, \"max_hull\": %zu,"
          " \"dist_rank_bytes\": %zu, \"directory_bytes\": %zu,"
          " \"global_rank_bytes\": %zu, \"probes\": %lld,"
          " \"remote_probes\": %lld, \"remote_kb_per_rank\": %.2f,"
          " \"efficiency\": %.4f, \"regrid_global_bytes\": %zu,"
          " \"regrid_delta_bytes\": %zu, \"build_ms\": %.3f}%s\n",
          p.policy, p.npes, p.imbalance, p.max_owned, p.max_hull,
          p.dist_rank_bytes, p.directory_bytes, p.global_rank_bytes,
          static_cast<long long>(p.probes),
          static_cast<long long>(p.remote_probes), p.remote_kb_per_rank,
          p.efficiency, p.regrid_global_bytes, p.regrid_delta_bytes,
          p.build_ms, i + 1 < points.size() ? "," : "");
    }
    std::printf(" ]\n}\n");
    return 0;
  }

  std::printf(
      "Scale-out: distributed vs global metadata on a %d-block solar-wind "
      "forest, T3D model\n\n",
      nblocks);
  Table t({"policy", "P", "imbalance", "own max", "hull max", "dist KB/rank",
           "global KB/rank", "remote KB/rank", "regrid full KB",
           "regrid delta KB"});
  for (const Point& p : points) {
    t.add_row({std::string(p.policy), static_cast<long long>(p.npes),
               p.imbalance, static_cast<long long>(p.max_owned),
               static_cast<long long>(p.max_hull), p.dist_rank_bytes / 1e3,
               p.global_rank_bytes / 1e3, p.remote_kb_per_rank,
               p.regrid_global_bytes / 1e3, p.regrid_delta_bytes / 1e3});
  }
  t.print(std::cout);
  std::printf(
      "\nper-rank metadata: the global path charges every rank the whole "
      "forest (constant as P grows); the distributed path shrinks with "
      "blocks/rank plus an O(P) directory. Regrid updates shrink from a "
      "full re-broadcast to deltas shipped only to hull neighbors.\n");
  return 0;
}
