// The one stepping core: the non-subcycled step (ghost fill, stage update,
// reflux, epilogue) for forward Euler and Heun, with everything around it
// that a serial and a rank-parallel run share — compute_dt, advance_to,
// init, cell geometry, total_conserved, adapt's flag snapshot / refine loop
// / coarsen-family selection, the step-report accounting, and checkpoint
// save and restore.
//
// AmrSolver (one address space) and RankSolver (P simulated ranks with
// private stores) derive from it. They differ only through a compile-time
// ownership policy, the derived class itself, which answers four
// questions:
//   rank_of(id)                  which store of a store set holds block id;
//   fill_set(set, t, span)       how a store set's ghosts are filled;
//   register_of(id), reflux_round(set, dt, span)
//                                where a block records its coarse/fine
//                                fluxes, and how a reflux round runs;
//   around_block(id, span, body) what surrounds each block update.
// Serial is P = 1: one store per set, GhostExchanger::fill, FluxRegister::
// apply, and nothing around a block. Regrid bookkeeping (ownership, sibling
// gathers, migration) and the placement of restored leaves hook in the same
// way. Both solvers run these loops, so the serial-vs-rank bitwise contract
// holds by construction.
//
// Heun keeps two block sets, the state u_ and the stage-1 result scratch_.
// Stage 2 updates each block into its thread's block buffer and combines at
// once; only blocks the reflux round may correct (needs_fluxes) copy their
// update over their own stage-1 block — which nothing else reads — and
// combine after the round.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amr/criteria.hpp"
#include "amr/flux_register.hpp"
#include "amr/stage_ops.hpp"
#include "core/bc.hpp"
#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "core/regrid_data.hpp"
#include "io/checkpoint.hpp"
#include "obs/telemetry.hpp"
#include "physics/kernel.hpp"
#include "tune/autotuner.hpp"
#include "util/aligned.hpp"
#include "util/block_pool.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ab {

/// Configuration of the adaptive-block solvers: AmrSolver::Config, and the
/// `solver` member of RankSolver::Config.
template <int D>
struct AmrConfig {
  typename Forest<D>::Config forest{};
  IVec<D> cells_per_block = IVec<D>(8);  ///< must be even
  int ghost = 2;
  SpatialOrder order = SpatialOrder::Second;
  LimiterKind limiter = LimiterKind::VanLeer;
  FluxScheme flux = FluxScheme::Rusanov;
  Prolongation prolongation = Prolongation::LimitedLinear;
  double cfl = 0.4;
  BcSet<D> bc{};
  int rk_stages = 2;  ///< 1 = forward Euler, 2 = Heun
  /// Clip every block to the positivity floors (kRhoFloor, kPFloor) after
  /// each stage.
  bool apply_positivity_fix = false;
  /// Conservative coarse/fine flux correction (refluxing) after each
  /// stage — an extension beyond the paper's ghost-only coupling; makes
  /// global conservation machine-exact on periodic domains.
  bool flux_correction = false;
  /// Shared-memory threads for block sweeps and ghost fills (1 = serial).
  /// Results are independent of the thread count: every parallel phase
  /// writes disjoint per-block regions.
  int num_threads = 1;
  /// Local time stepping: blocks at level l take substeps dt / 2^(l-lmin)
  /// instead of the global finest-stable dt — refinement in time as well
  /// as space (the evolution of the paper's global-step scheme adopted by
  /// its PARAMESH/AMReX descendants). Coarse-sourced ghost values are
  /// interpolated linearly in time between the coarse block's last two
  /// states. Requires rk_stages == 1 and no flux correction.
  bool subcycling = false;
  /// Optional observability sink (phase traces, metrics, per-step JSONL
  /// reports — see src/obs/ and docs/OBSERVABILITY.md). nullptr (the
  /// default) keeps every instrumentation site a dead pointer test: no
  /// clock reads, no allocation. Attaching one never changes numerics —
  /// instrumentation only reads solver state.
  obs::Telemetry* telemetry = nullptr;
  /// Runtime block-layout autotuning (the paper's Fig. 5 effect): probe
  /// candidate (block edge, pad, sub-blocking) layouts at construction
  /// and rewrite cells_per_block / root_blocks / pad0 / sub_block to the
  /// fastest applicable one, keeping the global grid invariant. The probe
  /// table persists at `tune_cache`, so only the first run pays for
  /// probing. Env override: AB_AUTOTUNE=1/0. See src/tune/ and
  /// docs/PERFORMANCE.md "Autotuned layout".
  bool autotune = false;
  /// Probe-table cache path (host-keyed JSON; see tune/cache.hpp).
  std::string tune_cache = ".ab_tune.json";
  /// Probe measurement effort (tests shrink it to milliseconds).
  tune::ProbeBudget tune_budget{};
  /// Extra dim-0 cells in the block allocation, breaking cache-line
  /// aliasing between adjacent pencils. Bitwise-invisible to results;
  /// normally set by the autotuner, settable directly for experiments.
  int pad0 = 0;
  /// Sub-blocked interior tiling edge for pencil-sweep updates (0 = whole
  /// block). Bitwise-invisible; normally set by the autotuner.
  int sub_block = 0;
};

template <int D, class Phys, class Solver>
class SteppingCore {
 public:
  using State = typename Phys::State;
  using Config = AmrConfig<D>;

  struct AdaptResult {
    int refined = 0;    ///< refine events (including cascades)
    int coarsened = 0;  ///< coarsen events
  };

  // The exchanger holds a pointer to the member forest; moving would dangle.
  SteppingCore(const SteppingCore&) = delete;
  SteppingCore& operator=(const SteppingCore&) = delete;
  SteppingCore(SteppingCore&&) = delete;
  SteppingCore& operator=(SteppingCore&&) = delete;

  Forest<D>& forest() { return forest_; }
  const Forest<D>& forest() const { return forest_; }
  /// The shared slab arena backing every store (never null). Stats only;
  /// the solver owns the allocation policy.
  const BlockPool* block_pool() const { return block_pool_.get(); }
  const GhostExchanger<D>& exchanger() const { return exchanger_; }
  /// What the layout autotuner decided at construction (enabled == false
  /// when tuning was off — the config was left untouched).
  const tune::TuneDecision& tune_decision() const { return tune_decision_; }
  const Phys& physics() const { return phys_; }
  double time() const { return time_; }
  std::uint64_t total_flops() const { return flop_counter_.total(); }
  /// Total per-block kernel invocations so far (a work measure: with
  /// subcycling, coarse blocks update less often than fine ones).
  std::uint64_t block_updates() const { return block_updates_; }
  std::int64_t total_interior_cells() const {
    return static_cast<std::int64_t>(forest_.num_leaves()) *
           layout_.interior_cells();
  }

  /// Cell size of a block at `level`.
  RVec<D> cell_dx(int level) const {
    RVec<D> dx = forest_.block_size(level);
    for (int d = 0; d < D; ++d) dx[d] /= cfg_.cells_per_block[d];
    return dx;
  }

  /// Physical center of interior cell `p` of block `id`.
  RVec<D> cell_center(int id, IVec<D> p) const {
    RVec<D> lo = forest_.block_lo(id);
    RVec<D> dx = cell_dx(forest_.level(id));
    RVec<D> x;
    for (int d = 0; d < D; ++d) x[d] = lo[d] + (p[d] + 0.5) * dx[d];
    return x;
  }

  /// Set the solution from a point function evaluated at cell centers.
  void init(const std::function<void(const RVec<D>&, State&)>& f) {
    for (int id : forest_.leaves()) {
      store_of(u_, id).ensure(id);
      store_of(scratch_, id).ensure(id);
      BlockView<D> v = store_of(u_, id).view(id);
      for_each_cell<D>(layout_.interior_box(), [&](IVec<D> p) {
        State u{};
        f(cell_center(id, p), u);
        for (int k = 0; k < Phys::NVAR; ++k) v.at(k, p) = u[k];
      });
    }
  }

  /// Stable timestep from the CFL condition over all blocks. With
  /// subcycling this is the COARSE-level step: a block at level l only has
  /// to be stable at dt / 2^(l - lmin), so refined regions no longer
  /// throttle the whole grid.
  double compute_dt() const {
    obs::PhaseScope ps(cfg_.telemetry, "compute_dt");
    const int lmin = forest_.stats().min_level;
    const std::vector<int>& leaves = forest_.leaves();
    // Per-block wave speeds are independent scans; run them on the pool and
    // reduce serially in leaf order. The min fold is exact, so the result
    // does not depend on the thread count or on which rank owns a block.
    std::vector<double> wave(leaves.size());
    for_index(leaves.size(), [&](std::size_t i) {
      const int id = leaves[i];
      wave[i] = block_wave_speed_sum<D, Phys>(layout_, view(id).base, phys_,
                                              cell_dx(forest_.level(id)));
    });
    double dt = 1e300;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      AB_REQUIRE(wave[i] > 0.0, "compute_dt: zero wave speed");
      double block_dt = cfg_.cfl / wave[i];
      if (cfg_.subcycling)
        block_dt *=
            static_cast<double>(1 << (forest_.level(leaves[i]) - lmin));
      dt = std::min(dt, block_dt);
    }
    return dt;
  }

  /// Advance with CFL-limited steps until `t_end` (or `max_steps`).
  /// Returns the number of steps taken.
  int advance_to(double t_end, int max_steps = 1000000) {
    int steps = 0;
    while (time_ < t_end && steps < max_steps) {
      double dt = compute_dt();
      if (time_ + dt > t_end) dt = t_end - time_;
      if (self().try_step(dt)) ++steps;
    }
    return steps;
  }

  /// One adaptation cycle: flag every leaf with `criterion` (signature
  /// AdaptFlag(const Forest&, const BlockStore&, int block)), refine flagged
  /// blocks (with constraint cascades), then coarsen eligible sibling
  /// families. Block data is prolonged/restricted in the store that holds
  /// it: refined children are born in their parent's store, and a family
  /// merges in its first child's store. Ghosts are refilled by the next
  /// step.
  template <class Criterion>
  AdaptResult adapt(const Criterion& criterion) {
    obs::PhaseScope ps(cfg_.telemetry, "regrid", "regrid");
    self().regrid_begin(ps);
    AdaptResult res;
    // Snapshot flags before mutating topology.
    std::vector<std::pair<int, AdaptFlag>> flags;
    flags.reserve(forest_.leaves().size());
    for (int id : forest_.leaves())
      flags.emplace_back(
          id, criterion(forest_, std::as_const(store_of(u_, id)), id));

    // Refinement (cascades may refine additional blocks).
    for (auto [id, flag] : flags) {
      if (flag != AdaptFlag::Refine) continue;
      if (!forest_.is_live(id) || !forest_.is_leaf(id)) continue;
      if (forest_.level(id) >= cfg_.forest.max_level) continue;
      for (const auto& ev : forest_.refine(id)) {
        const int r = self().rank_of(ev.parent);
        BlockStore<D>& sr = scratch_[static_cast<std::size_t>(r)];
        prolong_to_children<D>(u_[static_cast<std::size_t>(r)], ev,
                               cfg_.prolongation);
        for (int c : ev.children) sr.ensure(c);
        sr.release(ev.parent);
        self().refined(ev, r);
        ++res.refined;
      }
    }

    // Coarsening: a sibling family merges only if every child was flagged
    // Coarsen, is still a leaf, and the constraint allows it.
    std::vector<int> parents;
    for (auto [id, flag] : flags) {
      if (flag != AdaptFlag::Coarsen) continue;
      if (!forest_.is_live(id) || !forest_.is_leaf(id)) continue;
      const int p = forest_.parent(id);
      if (p < 0) continue;
      if (forest_.child_index(id) != 0) continue;  // visit once per family
      parents.push_back(p);
    }
    // The flags of all siblings must agree; build a lookup.
    std::unordered_map<int, AdaptFlag> flag_map;
    flag_map.reserve(flags.size());
    for (auto [fid, fl] : flags) flag_map.emplace(fid, fl);
    auto flag_of = [&](int id) {
      auto it = flag_map.find(id);
      return it == flag_map.end() ? AdaptFlag::Keep : it->second;
    };
    for (int p : parents) {
      if (!forest_.is_live(p) || forest_.is_leaf(p)) continue;
      bool all = true;
      const auto& kids = forest_.children(p);
      for (int c : kids) {
        if (!forest_.is_live(c) || !forest_.is_leaf(c) ||
            flag_of(c) != AdaptFlag::Coarsen) {
          all = false;
          break;
        }
      }
      if (!all || !forest_.can_coarsen(p)) continue;
      const int r = self().rank_of(kids[0]);
      self().gather(kids, r);
      restrict_to_parent<D>(u_[static_cast<std::size_t>(r)], p, kids);
      scratch_[static_cast<std::size_t>(r)].ensure(p);
      for (int c : kids) store_of(scratch_, c).release(c);
      self().coarsened(p, kids, r);
      forest_.coarsen(p);
      ++res.coarsened;
    }

    const bool changed = res.refined || res.coarsened;
    if (changed) {
      forest_.rebuild_neighbor_table();
      exchanger_.rebuild();
    }
    self().regrid_end(changed, ps);
    pending_refined_ += res.refined;
    pending_coarsened_ += res.coarsened;
    if (cfg_.telemetry != nullptr) {
      obs::MetricsRegistry& m = cfg_.telemetry->metrics;
      m.counter("solver.refined")->add(
          static_cast<std::uint64_t>(res.refined));
      m.counter("solver.coarsened")->add(
          static_cast<std::uint64_t>(res.coarsened));
      self().publish_totals(m);
    }
    return res;
  }

  /// Total of conserved variable `var` over the domain (cell value times
  /// cell volume, folded in global leaf order); machine-exact conservation
  /// on periodic uniform grids, near-conservation with AMR (ghost-based
  /// scheme, as in the paper) unless flux correction is on.
  double total_conserved(int var) const {
    double total = 0.0;
    for (int id : forest_.leaves()) {
      const RVec<D> dx = cell_dx(forest_.level(id));
      double vol = 1.0;
      for (int d = 0; d < D; ++d) vol *= dx[d];
      ConstBlockView<D> v = view(id);
      double s = 0.0;
      for_each_cell<D>(layout_.interior_box(),
                       [&](IVec<D> p) { s += v.at(var, p); });
      total += s * vol;
    }
    return total;
  }

  /// Write a restart file (topology + solution + time), checksummed and
  /// written atomically; the write is accounted to the ckpt.* metrics when
  /// telemetry is attached. Returns bytes written.
  std::uint64_t save(const std::string& path) const {
    obs::Telemetry* const tel = cfg_.telemetry;
    const std::int64_t t0 = tel != nullptr ? tel->trace.now_ns() : 0;
    const std::uint64_t bytes = save_checkpoint_view<D>(
        path, forest_, layout_, [this](int id) { return view(id); }, time_);
    if (tel != nullptr) {
      tel->metrics.counter("ckpt.saves")->add(1);
      tel->metrics.counter("ckpt.bytes")->add(bytes);
      tel->metrics.gauge("ckpt.last_save_s")
          ->set(static_cast<double>(tel->trace.now_ns() - t0) * 1e-9);
    }
    return bytes;
  }

  /// Restore a restart file written by save() from a solver built with the
  /// same configuration, whatever it has done since. The whole file is read
  /// and checked first, so a bad one throws and leaves the solver as it
  /// was. Ghosts are refilled by the next step.
  void restore(const std::string& path) {
    install_checkpoint(read_checkpoint(path), path);
  }

 protected:
  /// One store per rank; block id lives in store rank_of(id).
  using StoreSet = std::vector<BlockStore<D>>;
  /// The children of one sibling family.
  using Family = std::array<int, Forest<D>::kNumChildren>;

  SteppingCore(Config cfg, Phys phys, int num_stores)
      : cfg_(tune::resolve_layout<D, Phys>(std::move(cfg), phys,
                                           &tune_decision_)),
        phys_(std::move(phys)),
        forest_(cfg_.forest),
        layout_(cfg_.cells_per_block, cfg_.ghost, Phys::NVAR, cfg_.pad0),
        block_pool_(std::make_shared<BlockPool>(layout_.block_doubles())),
        exchanger_(forest_, layout_, cfg_.prolongation) {
    AB_REQUIRE(cfg_.num_threads >= 1, "AmrSolver: num_threads must be >= 1");
    AB_REQUIRE(cfg_.rk_stages == 1 || cfg_.rk_stages == 2,
               "AmrSolver: rk_stages must be 1 or 2");
    AB_REQUIRE(cfg_.ghost >= (cfg_.order == SpatialOrder::Second ? 2 : 1),
               "AmrSolver: not enough ghost layers for the spatial order");
    for (int r = 0; r < num_stores; ++r) {
      u_.push_back(make_store());
      scratch_.push_back(make_store());
    }
    if (cfg_.num_threads > 1)
      pool_ = std::make_unique<ThreadPool>(cfg_.num_threads);
    // One kernel scratch arena and one stage-2 block buffer per pool thread
    // (index 0 is the calling thread), so block sweeps never contend or
    // allocate on the hot path.
    kernel_scratch_.resize(static_cast<std::size_t>(cfg_.num_threads));
    block_tmp_.resize(static_cast<std::size_t>(cfg_.num_threads));
  }
  ~SteppingCore() = default;

  Solver& self() { return static_cast<Solver&>(*this); }
  const Solver& self() const { return static_cast<const Solver&>(*this); }

  BlockStore<D>& store_of(StoreSet& s, int id) const {
    return s[static_cast<std::size_t>(self().rank_of(id))];
  }
  /// Read-only view of leaf `id`'s current state.
  ConstBlockView<D> view(int id) const {
    return std::as_const(u_[static_cast<std::size_t>(self().rank_of(id))])
        .view(id);
  }
  BlockStore<D> make_store() const {
    return BlockStore<D>(layout_, block_pool_);
  }

  /// Read and check the checkpoint at `path`; changes nothing.
  Checkpoint<D> read_checkpoint(const std::string& path) const {
    return load_checkpoint<D>(path, cfg_.forest, layout_);
  }

  /// Replace the solver's state with a checked checkpoint: swap its forest
  /// in, let the policy place the leaves (restored, told the checkpoint's
  /// `path`), then write each leaf's interior once, into the store that
  /// owns it.
  void install_checkpoint(Checkpoint<D> ckpt, const std::string& path) {
    forest_ = std::move(ckpt.forest);
    forest_.rebuild_neighbor_table();
    exchanger_.rebuild();
    time_ = ckpt.time;
    for (std::size_t r = 0; r < u_.size(); ++r) {
      u_[r] = make_store();
      scratch_[r] = make_store();
    }
    self().restored(path);
    for (int id : forest_.leaves()) {
      store_of(u_, id).ensure(id);
      store_of(scratch_, id).ensure(id);
    }
    ckpt.write_leaves([this](int id) { return store_of(u_, id).view(id); });
  }

  /// Advance one non-subcycled step of size `dt`. `after_first_fill` runs
  /// right after the first ghost fill, while the step is in flight.
  template <class Hook>
  void advance(double dt, const Hook& after_first_fill) {
    // Stage 1: scratch = u + dt L(u).
    fill(u_, time_);
    after_first_fill();
    stage(dt);
    if (cfg_.rk_stages == 1) {
      obs::PhaseScope ps(cfg_.telemetry, "epilogue");
      tag(ps);
      if (cfg_.apply_positivity_fix)
        for_leaves([&](int id) { fix_block(scratch_, id); });
      for (std::size_t r = 0; r < u_.size(); ++r)
        std::swap(u_[r], scratch_[r]);
      time_ += dt;
      return;
    }
    if (cfg_.apply_positivity_fix)
      for_leaves([&](int id) { fix_block(scratch_, id); });
    // Stage 2 (Heun): u <- (u + (scratch + dt L(scratch))) / 2.
    fill(scratch_, time_ + dt);
    heun_stage(dt);
    time_ += dt;
  }

  /// Exchange ghosts and apply boundary conditions on a store set.
  void fill(StoreSet& s, double t) {
    obs::PhaseScope ps(cfg_.telemetry, "ghost_exchange");
    tag(ps);
    self().fill_set(s, t, ps.span_id());
    account_ghost_plan();
  }

  // ------------------------------------------------------------------
  // Step accounting: begin_step() before the step, end_step() after it.
  // Both are a pointer test when no telemetry is attached.

  struct StepMark {
    std::int64_t t0 = 0;
    std::uint64_t updates0 = 0;
    std::uint64_t flops0 = 0;
  };

  StepMark begin_step() const {
    obs::Telemetry* const tel = cfg_.telemetry;
    if (tel == nullptr) return {};
    return {tel->trace.now_ns(), block_updates_, flop_counter_.total()};
  }

  /// Publish the step's metrics and, if a report file is open, append one
  /// JSONL record; then advance the step index. Phase times drain from the
  /// telemetry's accumulator, so between-step work (compute_dt, regrid)
  /// rides in the NEXT step's record under its own phase name.
  void end_step(const StepMark& mark, double dt) {
    if (obs::Telemetry* const tel = cfg_.telemetry)
      emit_step_report(*tel, mark, dt);
    ++step_index_;
  }

  /// Copy the running totals kept outside the registry into it, as
  /// counter deltas: the pool's here, the wire hub's and fault plan's in
  /// the rank solver's override. Called at the end of every step and of
  /// every adapt, so a regrid after the last step is counted too.
  void publish_totals(obs::MetricsRegistry& m) {
    const BlockPool::Stats& ps = block_pool_->stats();
    m.gauge("pool.chunks")->set(static_cast<double>(ps.chunks));
    m.gauge("pool.slabs_in_use")->set(static_cast<double>(ps.slabs_in_use));
    obs::publish_total(m, "pool.reuse_hits", ps.reuse_hits,
                       pool_published_.reuse_hits);
    obs::publish_total(m, "pool.fresh_allocs", ps.fresh_allocs,
                       pool_published_.fresh_allocs);
  }

  // ------------------------------------------------------------------
  // Policy hooks with nothing to do in a single address space; the rank
  // solver overrides them.

  /// One step of advance_to; false when the step did not complete and dt
  /// must be recomputed.
  bool try_step(double dt) {
    self().step(dt);
    return true;
  }
  void regrid_begin(obs::PhaseScope&) {}
  void refined(const typename Forest<D>::RefineEvent&, int) {}
  void gather(const Family&, int) {}
  void coarsened(int, const Family&, int) {}
  void publish_step(obs::MetricsRegistry&, obs::StepReport*) {}

  // ------------------------------------------------------------------
  // Loops and per-block helpers.

  /// Run fn(i) for every i in [0, n), on the pool when one exists.
  template <class F>
  void for_index(std::size_t n, const F& fn) const {
    if (pool_) {
      pool_->parallel_for(static_cast<std::int64_t>(n), [&](std::int64_t i) {
        fn(static_cast<std::size_t>(i));
      });
    } else {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
  }

  /// Run fn(id) for every block id in `ids`, on the pool when one exists.
  template <class F>
  void for_blocks(const std::vector<int>& ids, const F& fn) const {
    for_index(ids.size(), [&](std::size_t i) { fn(ids[i]); });
  }

  template <class F>
  void for_leaves(const F& fn) const {
    for_blocks(forest_.leaves(), fn);
  }

  /// The calling thread's index into the per-thread scratch arrays.
  static std::size_t thread_slot() {
    return static_cast<std::size_t>(ThreadPool::this_thread_index());
  }

  void fix_block(StoreSet& s, int id) {
    if (cfg_.apply_positivity_fix)
      apply_positivity_fix<D, Phys>(phys_, store_of(s, id), id, kRhoFloor,
                                    kPFloor);
  }

  /// Tag a step-phase span as a child of the in-flight step span (none
  /// unless the solver opened one).
  void tag(obs::PhaseScope& ps) const {
    if (step_span_ != 0) ps.set_context(step_span_, -1, step_index_);
  }

  // Declared before cfg_ so cfg_'s initializer (the autotuner) can fill it.
  tune::TuneDecision tune_decision_;
  Config cfg_;
  Phys phys_;
  Forest<D> forest_;
  BlockLayout<D> layout_;
  // One slab arena shared by every store, so the stepper's swaps, regrids
  // and rank migration recycle slabs.
  std::shared_ptr<BlockPool> block_pool_;
  GhostExchanger<D> exchanger_;
  StoreSet u_;        ///< the solution
  StoreSet scratch_;  ///< the stage-1 result
  std::unique_ptr<ThreadPool> pool_;            // when num_threads > 1
  std::vector<AlignedScratch> kernel_scratch_;  // one per pool thread
  std::vector<AlignedScratch> block_tmp_;       // one per pool thread
  double time_ = 0.0;
  FlopCounter flop_counter_;  // thread-sharded; merged on total_flops()
  std::uint64_t block_updates_ = 0;
  std::int64_t step_index_ = 0;
  std::uint64_t step_span_ = 0;  ///< span id of the in-flight step (0 = none)
  // Regrid events and ghost ops since the last step report (by GhostOpKind).
  int pending_refined_ = 0;
  int pending_coarsened_ = 0;
  std::int64_t ghost_ops_step_[3] = {0, 0, 0};

 private:
  /// The stage loop. Each block's update runs inside the policy's
  /// around_block, on the pool when there is one.
  ///
  /// Stage 1: out = in + dt L(in) for every block, then the reflux round
  /// on the stage result.
  void stage(double dt) {
    obs::PhaseScope ps(cfg_.telemetry, "stage_update");
    tag(ps);
    prepare_fluxes();
    for_leaves([&](int id) {
      self().around_block(id, ps.span_id(), [&] {
        return update(id, store_of(u_, id).view(id).base,
                      store_of(scratch_, id).view(id).base, dt);
      });
    });
    block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
    reflux(scratch_, dt);
  }

  /// Heun's second stage in one pass: each block updates into its thread's
  /// block buffer and combines into u_ at once. A block the reflux round
  /// may correct copies its update over its own stage-1 block instead
  /// (only its own update read that; the ghosts are refilled before any
  /// later read), and combines after the round.
  void heun_stage(double dt) {
    const auto n = static_cast<std::size_t>(layout_.block_doubles());
    {
      obs::PhaseScope ps(cfg_.telemetry, "stage_update");
      tag(ps);  // stage 1 allocated the flux storage
      for_leaves([&](int id) {
        self().around_block(id, ps.span_id(), [&] {
          double* tmp = block_tmp_[thread_slot()].acquire(n);
          double* stage1 = store_of(scratch_, id).view(id).base;
          const std::uint64_t f = update(id, stage1, tmp, dt);
          if (records_fluxes(id))
            std::memcpy(stage1, tmp, n * sizeof(double));
          else
            combine(id, tmp);
          return f;
        });
      });
      block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
      reflux(scratch_, dt);
    }
    if (!cfg_.flux_correction) return;
    obs::PhaseScope ps(cfg_.telemetry, "epilogue");
    tag(ps);
    for_leaves([&](int id) {
      if (records_fluxes(id))
        combine(id, store_of(scratch_, id).view(id).base);
    });
  }

  /// u = (u + stage) / 2 over block id's interior, then the positivity fix.
  void combine(int id, const double* stage) {
    heun_combine_half<D, Phys>(store_of(u_, id).view(id),
                               ConstBlockView<D>{stage, &layout_});
    fix_block(u_, id);
  }

  /// Whether block id records boundary fluxes for the reflux round (and so
  /// may be corrected by it).
  bool records_fluxes(int id) {
    return cfg_.flux_correction && self().register_of(id).needs_fluxes(id);
  }

  /// One forward-Euler update of block id from `in` into `out`, recording
  /// its boundary fluxes when the reflux round needs them. Returns flops.
  std::uint64_t update(int id, const double* in, double* out, double dt) {
    FaceFluxStorage<D>* ff =
        records_fluxes(id) ? &self().register_of(id).storage(id) : nullptr;
    const std::uint64_t f = fv_block_update_tiled<D, Phys>(
        cfg_.sub_block, layout_, in, out, phys_, cell_dx(forest_.level(id)),
        dt, cfg_.order, cfg_.limiter, cfg_.flux, ff, nullptr,
        &kernel_scratch_[thread_slot()]);
    flop_counter_.add(f);
    return f;
  }

  /// Flux storage is allocated lazily; touch it serially before a parallel
  /// sweep so the sweep only writes into pre-sized buffers.
  void prepare_fluxes() {
    if (!cfg_.flux_correction) return;
    for (int id : forest_.leaves())
      if (records_fluxes(id)) self().register_of(id).storage(id);
  }

  /// The reflux round on a stage result (inside the stage_update phase).
  /// Corrections may touch one block from several faces, so the round is
  /// serial, in plan order.
  void reflux(StoreSet& out, double dt) {
    if (!cfg_.flux_correction) return;
    obs::PhaseScope ps(cfg_.telemetry, "reflux");
    tag(ps);
    self().reflux_round(out, dt, ps.span_id());
  }

  /// Tally one full ghost fill (every op in the current plan) into this
  /// step's per-kind counters.
  void account_ghost_plan() {
    if (cfg_.telemetry == nullptr) return;
    const GhostPlanStats& st = exchanger_.plan_stats();
    for (int k = 0; k < 3; ++k) ghost_ops_step_[k] += st.ops[k];
  }

  void emit_step_report(obs::Telemetry& tel, const StepMark& mark, double dt) {
    const double wall =
        static_cast<double>(tel.trace.now_ns() - mark.t0) * 1e-9;
    const std::uint64_t updates = block_updates_ - mark.updates0;
    const std::uint64_t flops = flop_counter_.total() - mark.flops0;
    obs::MetricsRegistry& m = tel.metrics;
    m.counter("solver.steps")->add(1);
    m.counter("solver.block_updates")->add(updates);
    m.counter("solver.flops")->add(flops);
    m.counter("solver.ghost_copy_ops")
        ->add(static_cast<std::uint64_t>(ghost_ops_step_[0]));
    m.counter("solver.ghost_restrict_ops")
        ->add(static_cast<std::uint64_t>(ghost_ops_step_[1]));
    m.counter("solver.ghost_prolong_ops")
        ->add(static_cast<std::uint64_t>(ghost_ops_step_[2]));
    m.gauge("solver.dt")->set(dt);
    m.gauge("solver.blocks")->set(static_cast<double>(forest_.num_leaves()));
    self().publish_totals(m);
    publish_tune_gauges(m, tune_decision_);
    m.histogram("solver.step_wall_s",
                {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0})
        ->record(wall);
    if (tel.report() != nullptr) {
      obs::StepReport r;
      r.step = step_index_;
      r.t = time_;
      r.dt = dt;
      r.wall_s = wall;
      r.blocks = forest_.num_leaves();
      r.cells_updated =
          static_cast<std::int64_t>(updates) * layout_.interior_cells();
      r.refined = pending_refined_;
      r.coarsened = pending_coarsened_;
      r.layout = layout_string(layout_, cfg_.sub_block);
      r.ghost_copy_ops = ghost_ops_step_[0];
      r.ghost_restrict_ops = ghost_ops_step_[1];
      r.ghost_prolong_ops = ghost_ops_step_[2];
      self().publish_step(m, &r);
      r.phase_s = tel.take_phase_times();
      const obs::MetricsSnapshot snap = m.snapshot();
      r.gauges = snap.gauges;
      r.counters.reserve(snap.counters.size());
      for (const auto& [name, v] : snap.counters)
        r.counters.emplace_back(name, static_cast<std::int64_t>(v));
      tel.report()->write(r);
    } else {
      self().publish_step(m, nullptr);
      tel.take_phase_times();  // reset the per-step accumulator regardless
    }
    pending_refined_ = 0;
    pending_coarsened_ = 0;
    ghost_ops_step_[0] = ghost_ops_step_[1] = ghost_ops_step_[2] = 0;
  }

  BlockPool::Stats pool_published_;  // pool totals exported so far
};

}  // namespace ab
