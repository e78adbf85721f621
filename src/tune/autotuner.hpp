// Runtime block-layout autotuner.
//
// Figure 5 of the paper shows time/cell varying by more than 3x with block
// size, with cache-alias maxima (12^3, 32^3) that padding and sub-blocking
// remove — and the best point depends on the machine. Instead of shipping a
// hard-coded 8^3, the autotuner probes a candidate set (tune/probe.hpp) on
// the actual host at solver construction, persists the measured table in a
// host-keyed JSON cache (tune/cache.hpp), and rewrites the solver Config's
// (cells_per_block, root_blocks, pad0, sub_block) to the fastest applicable
// layout before any block is allocated.
//
// Determinism contract: pad and sub-blocking are bitwise-invisible (tested),
// and a recorded cache makes selection a pure function of its bytes — same
// cache => same decision => same simulation bytes. Only the first (probing)
// run is timing-dependent.
//
// Enable via Config::autotune or the AB_AUTOTUNE env knob: AB_AUTOTUNE=1
// forces tuning on, AB_AUTOTUNE=0 forces it off, unset defers to the config
// flag.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tune/cache.hpp"
#include "tune/probe.hpp"

namespace ab::tune {

/// What the autotuner decided, for reporting (obs gauges, step reports,
/// example banners). Default state = tuning disabled, nothing changed.
struct TuneDecision {
  bool enabled = false;     ///< tuning requested (config + env override)
  bool tuned = false;       ///< a layout was selected and applied
  bool from_cache = false;  ///< table came from the persistent cache
  ProbeCandidate chosen{};  ///< applied layout (valid when tuned)
  double ns_per_cell = 0.0;           ///< chosen candidate's probe time
  double baseline_ns_per_cell = 0.0;  ///< the fixed 8/pad0/nosub row
  std::vector<ProbeResult> table;     ///< full per-candidate table
  std::string host_key;
  std::string cache_path;
};

/// Resolve the config flag against the AB_AUTOTUNE env override.
bool autotune_enabled(bool cfg_flag);

struct Selection {
  bool ok = false;
  ProbeResult best{};
};

/// The noise floor the autotuner selects with: candidates within 3% of the
/// fastest probe tie, and the simplest tied layout (no pad, no
/// sub-blocking, smallest m) wins.
constexpr double kNoiseFloor = 0.03;

/// Pick the fastest applicable candidate from a probe table. A candidate is
/// applicable when ghost <= m and m divides every entry of `global_cells`
/// (pass empty to accept any m). Among candidates within
/// `noise_floor` (fractional) of the minimum, the simplest wins —
/// lexicographic min of (pad0, sub_block, m) — so the plain default beats a
/// statistically indistinguishable exotic layout. ok=false when nothing
/// applies.
Selection select_layout(const std::vector<ProbeResult>& table,
                        const std::vector<std::int64_t>& global_cells,
                        int ghost, double noise_floor);

/// The autotuner entry point: take a solver Config by value, return it with
/// the tuned layout applied (or untouched when tuning is off / nothing
/// applicable). `Cfg` is AmrSolver<D, Phys>::Config — templated so parsim's
/// RankSolver reuses it for its embedded solver config.
///
/// Probe tables are cached at cfg.tune_cache keyed by host_fingerprint; a
/// valid cache skips probing entirely. The global grid is kept: root_blocks
/// is rescaled so root_blocks[d] * cells_per_block[d] is invariant.
template <int D, class Phys, class Cfg>
Cfg resolve_layout(Cfg cfg, const Phys& phys, TuneDecision* out) {
  TuneDecision dec;
  dec.enabled = autotune_enabled(cfg.autotune);
  if (!dec.enabled) {
    if (out) *out = dec;
    return cfg;
  }
  dec.host_key = host_fingerprint(D, Phys::NVAR, cfg.ghost);
  dec.cache_path = cfg.tune_cache;
  if (std::optional<TuneCache> cache = load_cache(cfg.tune_cache, dec.host_key)) {
    dec.from_cache = true;
    dec.table = std::move(cache->table);
  } else {
    for (const ProbeCandidate& c : default_candidates())
      dec.table.push_back(run_probe<D, Phys>(c, cfg.tune_budget, phys));
    TuneCache fresh;
    fresh.host_key = dec.host_key;
    fresh.table = dec.table;
    save_cache(cfg.tune_cache, fresh);  // failure non-fatal: re-probe next run
  }
  for (const ProbeResult& r : dec.table)
    if (r.cand == ProbeCandidate{8, 0, 0}) dec.baseline_ns_per_cell = r.ns_per_cell;

  std::vector<std::int64_t> global(D);
  for (int d = 0; d < D; ++d)
    global[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(cfg.forest.root_blocks[d]) *
        cfg.cells_per_block[d];
  const Selection sel =
      select_layout(dec.table, global, cfg.ghost, kNoiseFloor);
  if (sel.ok) {
    dec.tuned = true;
    dec.chosen = sel.best.cand;
    dec.ns_per_cell = sel.best.ns_per_cell;
    for (int d = 0; d < D; ++d) {
      cfg.forest.root_blocks[d] = static_cast<int>(
          global[static_cast<std::size_t>(d)] / sel.best.cand.m);
      cfg.cells_per_block[d] = sel.best.cand.m;
    }
    cfg.pad0 = sel.best.cand.pad0;
    cfg.sub_block = sel.best.cand.sub_block;
  }
  if (out) *out = dec;
  return cfg;
}

/// Publish the decision as obs gauges: the chosen layout under tune.* plus
/// the full per-candidate table under tune.probe_ns.m<m>p<pad>s<sub>.
/// Templated on the registry so ab_tune does not depend on ab_obs; a no-op
/// when tuning was disabled (keeps untuned step reports byte-identical).
template <class Metrics>
void publish_tune_gauges(Metrics& m, const TuneDecision& dec) {
  if (!dec.enabled) return;
  m.gauge("tune.tuned")->set(dec.tuned ? 1.0 : 0.0);
  m.gauge("tune.from_cache")->set(dec.from_cache ? 1.0 : 0.0);
  if (dec.tuned) {
    m.gauge("tune.m")->set(static_cast<double>(dec.chosen.m));
    m.gauge("tune.pad0")->set(static_cast<double>(dec.chosen.pad0));
    m.gauge("tune.sub_block")->set(static_cast<double>(dec.chosen.sub_block));
    m.gauge("tune.ns_per_cell")->set(dec.ns_per_cell);
    if (dec.baseline_ns_per_cell > 0.0)
      m.gauge("tune.baseline_ns_per_cell")->set(dec.baseline_ns_per_cell);
  }
  for (const ProbeResult& r : dec.table) {
    const std::string name = "tune.probe_ns.m" + std::to_string(r.cand.m) +
                             "p" + std::to_string(r.cand.pad0) + "s" +
                             std::to_string(r.cand.sub_block);
    m.gauge(name)->set(r.ns_per_cell);
  }
}

}  // namespace ab::tune
