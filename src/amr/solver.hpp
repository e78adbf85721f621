// The AMR driver: composes the adaptive block forest, per-block storage,
// ghost exchange, boundary conditions, finite-volume kernels, and
// adaptation into a time-stepping solver.
//
// Time integration is Heun's second-order Runge-Kutta (two forward-Euler
// stages with a ghost fill before each), matching the explicit mode of the
// paper's MHD code, or forward Euler. By default all blocks advance with
// one global timestep, as in the original; Config::subcycling switches to
// local time stepping (forward Euler, two passes per level).
//
// The global-timestep step is the stepping core's (amr/stepping_core.hpp),
// run here with one store per block set: ghost fill, stage update, reflux,
// epilogue, each a bulk-synchronous loop over blocks that write disjoint
// memory, on the thread pool when there is one, so the bytes never depend
// on the thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "amr/stepping_core.hpp"

namespace ab {

template <int D, class Phys>
class AmrSolver : public SteppingCore<D, Phys, AmrSolver<D, Phys>> {
  using Core = SteppingCore<D, Phys, AmrSolver<D, Phys>>;
  friend Core;
  using typename Core::StoreSet;
  using Core::block_tmp_;
  using Core::block_updates_;
  using Core::cfg_;
  using Core::exchanger_;
  using Core::flop_counter_;
  using Core::forest_;
  using Core::ghost_ops_step_;
  using Core::kernel_scratch_;
  using Core::phys_;
  using Core::pool_;
  using Core::scratch_;
  using Core::time_;
  using Core::u_;

 public:
  using Config = typename Core::Config;

  AmrSolver(Config cfg, Phys phys)
      : Core(std::move(cfg), std::move(phys), 1),
        flux_register_(forest_, this->layout_) {
    AB_REQUIRE(
        !cfg_.subcycling || (cfg_.rk_stages == 1 && !cfg_.flux_correction),
        "AmrSolver: subcycling requires rk_stages == 1 and no flux "
        "correction");
    for (int id : forest_.leaves()) {
      u_[0].ensure(id);
      scratch_[0].ensure(id);
    }
    rebuild_plans();
  }

  BlockStore<D>& store() { return u_[0]; }
  const BlockStore<D>& store() const { return u_[0]; }
  const Config& config() const { return cfg_; }

  /// Exchange ghosts and apply boundary conditions on the solution.
  void fill_ghosts() { this->fill(u_, time_); }

  /// Advance one step of size `dt`. With a telemetry sink attached this
  /// also times the step, tallies per-phase wall times, and appends one
  /// StepReport record (if a report file is open); without one the
  /// instrumentation collapses to pointer tests.
  void step(double dt) {
    const auto mark = this->begin_step();
    if (cfg_.subcycling) {
      const auto st = forest_.stats();
      advance_level(st.min_level, st.max_level, time_, dt);
      time_ += dt;
    } else {
      this->advance(dt, [] {});
    }
    this->end_step(mark, dt);
  }

  /// Number of coarse/fine face corrections currently planned (0 unless
  /// flux_correction is enabled and the grid has resolution jumps).
  int flux_corrections_planned() const {
    return flux_register_.num_corrections();
  }

 private:
  // ------------------------------------------------------------------
  // Ownership policy (see stepping_core.hpp): one store per block set.

  int rank_of(int) const { return 0; }
  FluxRegister<D>& register_of(int) { return flux_register_; }

  void fill_set(StoreSet& s, double t, std::uint64_t) {
    exchanger_.fill(s[0], pool_.get());
    apply_boundary_conditions<D>(s[0], forest_, exchanger_.boundary_faces(),
                                 cfg_.bc, t);
  }

  void reflux_round(StoreSet& out, double dt, std::uint64_t) {
    flux_register_.apply(out[0], dt);
  }

  template <class F>
  void around_block(int, std::uint64_t, const F& update) {
    update();
  }

  void regrid_end(bool changed, obs::PhaseScope&) {
    if (changed) rebuild_plans();
  }

  void restored(const std::string&) { rebuild_plans(); }

  /// Rebuild what derives from the ghost plan.
  void rebuild_plans() {
    if (cfg_.flux_correction) flux_register_.rebuild(exchanger_);
    if (cfg_.subcycling) rebuild_level_structures();
  }

  // ------------------------------------------------------------------
  // Subcycling (local time stepping)
  //
  // Recursion invariant: when advance_level(l, t, dt) runs, every block at
  // level >= l holds the solution at time t, and every coarser level l' < l
  // holds time level_t_cur_[l'] >= t with its previous state (ghosts
  // included) preserved in scratch_ for time interpolation.

  /// Group leaves by refinement level and boundary faces by block, and
  /// count each level's incoming ghost ops by kind.
  void rebuild_level_structures() {
    const int nl = cfg_.forest.max_level + 1;
    level_leaves_.assign(static_cast<std::size_t>(nl), {});
    level_op_kinds_.assign(static_cast<std::size_t>(nl), {});
    level_t_old_.assign(static_cast<std::size_t>(nl), time_);
    level_t_cur_.assign(static_cast<std::size_t>(nl), time_);
    for (int id : forest_.leaves())
      level_leaves_[static_cast<std::size_t>(forest_.level(id))].push_back(id);
    for (const GhostOp<D>& op : exchanger_.ops())
      ++level_op_kinds_[static_cast<std::size_t>(forest_.level(op.dst))]
                       [static_cast<std::size_t>(op.kind)];
    block_bfaces_.assign(static_cast<std::size_t>(forest_.node_capacity()),
                         {});
    for (const auto& bf : exchanger_.boundary_faces())
      block_bfaces_[static_cast<std::size_t>(bf.block)].push_back(bf);
  }

  /// Apply one ghost op for a subcycled fill at time `tau`: same-level and
  /// finer sources are synchronized at tau (recursion invariant); coarser
  /// sources are interpolated linearly between their old (scratch_) and
  /// current (u_) states. The old state's prolongation is packed into the
  /// thread's block buffer, the current one applied in place, and each row
  /// blended.
  void apply_subcycled_op(const GhostOp<D>& op, double tau) {
    if (op.kind != GhostOpKind::Prolong) {
      exchanger_.apply(u_[0], op);
      return;
    }
    const int src_level = forest_.level(op.dst) - 1;
    const double t0 = level_t_old_[src_level];
    const double t1 = level_t_cur_[src_level];
    double theta = (t1 > t0) ? (tau - t0) / (t1 - t0) : 1.0;
    theta = std::min(std::max(theta, 0.0), 1.0);
    if (theta >= 1.0 - 1e-12) {
      exchanger_.apply(u_[0], op);  // pure current state
      return;
    }
    double* old = block_tmp_[this->thread_slot()].acquire(
        static_cast<std::size_t>(exchanger_.op_payload_doubles(op)));
    exchanger_.pack_op(scratch_[0], op, old);
    exchanger_.apply(u_[0], op);
    const BlockLayout<D>& lay = this->layout_;
    double* base = u_[0].view(op.dst).base;
    for (int v = 0; v < Phys::NVAR; ++v) {
      double* d = base + v * lay.field_stride();
      for_each_row<D>(op.dst_box, [&](IVec<D> q, int n) {
        double* cur = d + lay.offset(q);
        for (int t = 0; t < n; ++t)
          cur[t] = (1.0 - theta) * old[t] + theta * cur[t];
        old += n;
      });
    }
  }

  /// Advance level l from t to t+dt, then recursively advance finer levels
  /// in two half-steps each. Two passes over the level's leaves: every
  /// block's ghost fill (its incoming ops, then its boundary faces), then
  /// every block's update, swap, and fix. The fills only read blocks this
  /// level's swaps have not touched yet, so the pass barrier is the only
  /// ordering the blocks need.
  void advance_level(int l, int lmax, double t, double dt) {
    const std::vector<int>& leaves =
        level_leaves_[static_cast<std::size_t>(l)];
    {
      obs::PhaseScope ps(cfg_.telemetry, "ghost_exchange");
      this->for_blocks(leaves, [&](int id) {
        for (int i : exchanger_.ops_into(id))
          apply_subcycled_op(exchanger_.ops()[static_cast<std::size_t>(i)],
                             t);
        apply_boundary_conditions<D>(
            u_[0], forest_, block_bfaces_[static_cast<std::size_t>(id)],
            cfg_.bc, t);
      });
    }
    account_ghost_level(l);
    {
      obs::PhaseScope ps(cfg_.telemetry, "stage_update");
      const RVec<D> dx = this->cell_dx(l);
      this->for_blocks(leaves, [&](int id) {
        flop_counter_.add(fv_block_update_tiled<D, Phys>(
            cfg_.sub_block, this->layout_, u_[0].view(id).base,
            scratch_[0].view(id).base, phys_, dx, dt, cfg_.order,
            cfg_.limiter, cfg_.flux, nullptr, nullptr,
            &kernel_scratch_[this->thread_slot()]));
        // Swap: u_ takes the new state; scratch_ keeps the old one (with
        // its freshly filled ghosts) for finer-level interpolation.
        u_[0].swap_block(scratch_[0], id);
        this->fix_block(u_, id);
      });
      block_updates_ += static_cast<std::uint64_t>(leaves.size());
    }
    level_t_old_[l] = t;
    level_t_cur_[l] = t + dt;
    if (l < lmax) {
      advance_level(l + 1, lmax, t, 0.5 * dt);
      advance_level(l + 1, lmax, t + 0.5 * dt, 0.5 * dt);
    }
  }

  /// Tally one level fill (subcycled path) into this step's counters.
  void account_ghost_level(int l) {
    if (cfg_.telemetry == nullptr ||
        static_cast<std::size_t>(l) >= level_op_kinds_.size())
      return;
    for (int k = 0; k < 3; ++k)
      ghost_ops_step_[k] += level_op_kinds_[static_cast<std::size_t>(l)]
                                           [static_cast<std::size_t>(k)];
  }

  FluxRegister<D> flux_register_;
  // Per-level ghost-op kind counts for the subcycled path (one level fill's
  // worth); rebuilt with level structures.
  std::vector<std::array<std::int64_t, 3>> level_op_kinds_;
  // Subcycling bookkeeping (empty unless cfg_.subcycling).
  std::vector<std::vector<int>> level_leaves_;
  std::vector<std::vector<BoundaryFace>> block_bfaces_;  // per block
  std::vector<double> level_t_old_;
  std::vector<double> level_t_cur_;
};

}  // namespace ab
