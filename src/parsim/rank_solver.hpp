// Rank-parallel time stepping: the stepping core run with every leaf owned
// by one of P simulated ranks.
//
// Each rank holds a private store per block set containing only its blocks
// — nothing crosses a rank boundary except message payload, and every
// payload rides a MessageBoard: ghost fills (laid out by BufferedExchange),
// flux-register corrections, coarsen gathers, and re-partitioned blocks,
// which migrate by pack/unpack of their interior cell data. The partition is
// recomputed after every regrid (PartitionPolicy pluggable) and each step's
// per-rank record is priced on the MachineModel by price_pes, the function
// behind Figures 6-7.
//
// The step, the stage loop, compute_dt, init and adapt's family selection
// are the stepping core's (amr/stepping_core.hpp), the same code AmrSolver
// runs; this class is the core's ownership policy for P ranks. It answers
// which rank's store holds a block, fills a store set's ghosts by message,
// runs the reflux round by message, and after each block update records
// the rank's compute span and flops. Every message round receives all it
// sends before the next one starts, so no payload outlives its round. The
// solver is bitwise identical to the single-address-space AmrSolver
// (serial, no subcycling) by construction, because:
//   - ghost values arriving by message are sender-side evaluations packed
//     by the row executor GhostExchanger::fill runs (verified in
//     tests/parsim/buffered_exchange_test.cpp);
//   - flux corrections route through FluxRegister::pack_fine_avg /
//     apply_correction — the same functions the serial apply() calls —
//     and are applied in the serial plan order.
// tests/parsim/rank_solver_test.cpp asserts this equivalence over
// randomized forests, physics, policies, and rank counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amr/solver.hpp"
#include "obs/msg_trace.hpp"
#include "parsim/block_migration.hpp"
#include "parsim/buffered_exchange.hpp"
#include "parsim/fault.hpp"
#include "parsim/local_topology.hpp"
#include "parsim/machine.hpp"
#include "parsim/partition.hpp"
#include "parsim/rank_accounting.hpp"
#include "parsim/wire/hub.hpp"
#include "parsim/wire/transport.hpp"
#include "util/topo_codec.hpp"

namespace ab {

template <int D, class Phys>
class RankSolver : public SteppingCore<D, Phys, RankSolver<D, Phys>> {
  using Core = SteppingCore<D, Phys, RankSolver<D, Phys>>;
  friend Core;
  using typename Core::Family;
  using typename Core::StoreSet;
  using Core::cfg_;
  using Core::exchanger_;
  using Core::forest_;
  using Core::layout_;
  using Core::scratch_;
  using Core::step_index_;
  using Core::step_span_;
  using Core::time_;
  using Core::u_;

 public:
  using SolverConfig = typename AmrSolver<D, Phys>::Config;

  struct Config {
    SolverConfig solver{};
    int npes = 1;
    PartitionPolicy policy = PartitionPolicy::Morton;
    MachineModel machine = MachineModel::cray_t3d();
    /// Lossy-wire / rank-death fault injection (nullptr = perfect
    /// hardware). See src/parsim/fault.hpp and docs/ROBUSTNESS.md.
    FaultPlan* faults = nullptr;
    /// Distributed block metadata: every rank holds only its owned blocks
    /// plus a neighbor hull, with neighbor discovery by SFC curve key and
    /// topology deltas exchanged on regrid (src/parsim/local_topology.hpp).
    /// Requires a Morton or Hilbert partition policy and the 2:1 level
    /// constraint; a request without them throws. Results are bitwise
    /// identical to the global-metadata path; the local view is
    /// load-bearing for ghost-plan, flux-plan, and migration verification.
    bool distributed_metadata = false;
    /// Auto-checkpoint cadence in steps (0 = off). When positive, step()
    /// writes a v2 checkpoint to `checkpoint_path` at the top of every
    /// step whose index is a multiple of the cadence — including step 0,
    /// so a recovery point always exists before the first possible death.
    int checkpoint_every = 0;
    std::string checkpoint_path;
    /// Which path carries the exchange payloads (env AB_TRANSPORT=
    /// board|shm wins over config). Board is the in-process MessageBoard
    /// path — the default and the bitwise reference; Shm frames every
    /// payload (ghosts, flux, gathers, migration, topology deltas) over
    /// shared-memory rings (src/parsim/wire/), still bitwise identical to
    /// serial.
    wire::TransportKind transport = wire::TransportKind::Board;
    /// External wire hub: SPMD worker processes construct one hub before
    /// forking and every worker's solver shares it (it overrides
    /// `transport`: the solver runs Shm). Null = the solver owns a private
    /// hub when the resolved transport is Shm.
    wire::WireHub* wire = nullptr;
  };

  RankSolver(Config cfg, Phys phys)
      : Core(supported(cfg).solver, std::move(phys), cfg.npes),
        rcfg_(std::move(cfg)),
        owner_(partition_blocks<D>(forest_, rcfg_.npes, rcfg_.policy)),
        buffered_(exchanger_, owner_, rcfg_.npes),
        flux_register_(forest_, layout_) {
    rcfg_.solver = cfg_;  // as the autotuner resolved it
    for (int id : forest_.leaves()) {
      this->store_of(u_, id).ensure(id);
      this->store_of(scratch_, id).ensure(id);
    }
    for (int p = 0; p < rcfg_.npes; ++p) alive_.push_back(p);
    AB_REQUIRE(rcfg_.checkpoint_every <= 0 || !rcfg_.checkpoint_path.empty(),
               "RankSolver: checkpoint_every needs a checkpoint_path");
    // Causal cross-rank tracing: every transport payload carries a span
    // context stamped at send and joined at receive. Costs nothing while
    // the tracer is disabled (one flag test per hook).
    if (cfg_.telemetry != nullptr) msg_trace_.bind(&cfg_.telemetry->trace);
    // Wire transport: an external hub (SPMD workers, pre-fork) wins; else
    // resolve config + AB_TRANSPORT and own a hub when one is needed.
    if (rcfg_.wire != nullptr) {
      AB_REQUIRE(rcfg_.wire->npes() == rcfg_.npes,
                 "RankSolver: wire hub sized for a different npes");
      hub_ = rcfg_.wire;
      transport_kind_ = wire::TransportKind::Shm;
    } else {
      transport_kind_ = wire::resolve_transport(rcfg_.transport);
      if (transport_kind_ == wire::TransportKind::Shm) {
        owned_hub_ = std::make_unique<wire::WireHub>(rcfg_.npes);
        hub_ = owned_hub_.get();
      }
    }
    board_.set_fault_plan(rcfg_.faults);
    if (cfg_.telemetry != nullptr) board_.set_trace(&msg_trace_);
    board_.set_wire(hub_);
    AB_REQUIRE(!rcfg_.distributed_metadata ||
                   (CurveMap<D>::supports(rcfg_.policy) &&
                    cfg_.forest.max_level_diff == 1),
               "RankSolver: distributed_metadata requires an SFC partition "
               "policy (Morton or Hilbert) and the 2:1 level constraint");
    rebuild_rank_structures();
  }

  const Config& config() const { return rcfg_; }
  int npes() const { return rcfg_.npes; }
  const std::vector<int>& owner() const { return owner_; }
  int block_owner(int id) const { return owner_at(id); }
  /// Read-only view of leaf `id` on its owning rank's store.
  ConstBlockView<D> block_view(int id) const { return this->view(id); }
  const RankStepCost& last_step_cost() const { return step_cost_; }
  const RegridCost& last_regrid_cost() const { return last_regrid_; }
  const RankRunTotals& totals() const { return totals_; }
  /// Whether the distributed-metadata path is active.
  bool distributed_metadata() const { return rcfg_.distributed_metadata; }
  /// The per-rank local views (null when distributed_metadata is off).
  const LocalTopologySet<D>* local_topology() const { return topo_.get(); }
  /// The transport actually carrying exchange payloads (config + env +
  /// external hub resolution).
  wire::TransportKind transport_kind() const { return transport_kind_; }
  /// The wire hub in use (null on the Board path). Tests shrink its
  /// receive timeout; SPMD harnesses read its frame stats.
  wire::WireHub* wire_hub() { return hub_; }
  const wire::WireHub* wire_hub() const { return hub_; }

  /// Advance one step of size `dt`: the stepping core's step, between an
  /// auto-checkpoint and the step's pricing on the machine model.
  /// Throws RankFailure if the fault plan kills a rank mid-step; the
  /// caller recovers with recover() (advance_to does both).
  void step(double dt) {
    maybe_auto_checkpoint();
    obs::Telemetry* const tel = cfg_.telemetry;
    const auto mark = this->begin_step();
    step_span_ = (tel != nullptr && tel->trace.enabled())
                     ? tel->trace.new_span_id()
                     : 0;
    RankStepCost& sc = step_cost_;
    sc = RankStepCost{};
    sc.imbalance = alive_imbalance();
    sc.per_rank.assign(static_cast<std::size_t>(rcfg_.npes), PeLoad{});
    // The kill point sits after the first exchange: the step is genuinely
    // in flight (ghosts delivered, stage results pending) when the rank
    // dies, and nothing it half-did survives recovery.
    this->advance(dt, [this] { maybe_kill(); });
    // A dead rank is no idle PE of the machine: price the survivors.
    std::vector<PeLoad> survivors;
    for (int p : alive_)
      survivors.push_back(sc.per_rank[static_cast<std::size_t>(p)]);
    sc.model = price_pes(survivors, rcfg_.machine);
    totals_.add(sc);
    if (step_span_ != 0)
      tel->trace.record(obs::TraceEvent{"step", "step", mark.t0,
                                        tel->trace.now_ns(), 0, step_span_, 0,
                                        -1, step_index_});
    step_span_ = 0;
    this->end_step(mark, dt);
  }

  // --- Checkpointing and fault recovery --------------------------------

  /// Write a v2 checkpoint (atomic, checksummed) of the global state
  /// assembled from the per-rank stores. Returns bytes written.
  std::uint64_t save(const std::string& path) {
    const std::uint64_t bytes = Core::save(path);
    last_checkpoint_path_ = path;
    return bytes;
  }

  /// Handle the death of `dead_rank`: read and check the last checkpoint,
  /// retire the rank, then restore the checkpoint with its blocks
  /// re-partitioned across the survivors, ready to resume from the
  /// checkpointed time. A bad checkpoint throws before the rank is retired
  /// and leaves the solver as it was.
  void recover(int dead_rank) {
    AB_REQUIRE(rank_alive(dead_rank),
               "RankSolver: recover() needs a live rank id");
    AB_REQUIRE(!last_checkpoint_path_.empty(),
               "RankSolver: rank " + std::to_string(dead_rank) +
                   " died with no checkpoint to recover from (set "
                   "checkpoint_every/checkpoint_path)");
    AB_REQUIRE(num_alive() > 1, "RankSolver: no surviving ranks");
    Checkpoint<D> ckpt = this->read_checkpoint(last_checkpoint_path_);
    alive_.erase(std::find(alive_.begin(), alive_.end(), dead_rank));
    this->install_checkpoint(std::move(ckpt), last_checkpoint_path_);
    count("fault.rank_deaths", 1);
    count("fault.recoveries", 1);
  }

  /// Ranks still alive (npes minus recovered deaths).
  int num_alive() const { return static_cast<int>(alive_.size()); }
  bool rank_alive(int pe) const {
    return std::binary_search(alive_.begin(), alive_.end(), pe);
  }
  const std::string& last_checkpoint_path() const {
    return last_checkpoint_path_;
  }

  /// Number of coarse/fine face corrections currently planned.
  int flux_corrections_planned() const {
    return flux_register_.num_corrections();
  }

 private:
  void maybe_auto_checkpoint() {
    if (rcfg_.checkpoint_every <= 0) return;
    if (step_index_ % rcfg_.checkpoint_every == 0) save(rcfg_.checkpoint_path);
  }

  /// Fire the fault plan's one-shot kill trigger if this step is due.
  void maybe_kill() {
    FaultPlan* const fp = rcfg_.faults;
    if (fp == nullptr || !fp->kill_due(step_index_)) return;
    const int r = fp->kill_rank();
    AB_REQUIRE(r >= 0 && r < rcfg_.npes,
               "FaultPlan: kill_rank out of range");
    fp->consume_kill();
    if (!rank_alive(r)) return;  // already dead
    throw RankFailure(r, "simulated rank " + std::to_string(r) +
                             " died during step " +
                             std::to_string(step_index_));
  }

  /// Partition the current leaves across the alive ranks only. With no
  /// deaths this is exactly partition_blocks; after deaths, the policy
  /// runs over num_alive() slots and the result is mapped back to the
  /// surviving rank ids, so dead ranks own nothing.
  std::vector<int> partition_alive() const {
    std::vector<int> raw =
        partition_blocks<D>(forest_, num_alive(), rcfg_.policy);
    for (int& o : raw)
      if (o >= 0) o = alive_[static_cast<std::size_t>(o)];
    return raw;
  }

  /// Block-count imbalance over the surviving ranks: a dead rank owns
  /// nothing, and is no idle PE.
  double alive_imbalance() const {
    std::vector<int> slot(static_cast<std::size_t>(rcfg_.npes), -1);
    for (std::size_t k = 0; k < alive_.size(); ++k)
      slot[static_cast<std::size_t>(alive_[k])] = static_cast<int>(k);
    std::vector<int> owner = owner_;
    for (int& o : owner)
      if (o >= 0) o = slot[static_cast<std::size_t>(o)];
    return load_imbalance(owner, num_alive());
  }

  /// Add `n` to telemetry counter `name` where the event happens (a pointer
  /// test without telemetry).
  void count(const char* name, std::int64_t n) const {
    if (cfg_.telemetry != nullptr && n > 0)
      cfg_.telemetry->metrics.counter(name)->add(
          static_cast<std::uint64_t>(n));
  }

  int owner_at(int id) const {
    AB_REQUIRE(id >= 0 && id < static_cast<int>(owner_.size()) &&
                   owner_[static_cast<std::size_t>(id)] >= 0,
               "RankSolver: block without an owner");
    return owner_[static_cast<std::size_t>(id)];
  }

  void set_owner_entry(int id, int pe) {
    if (id >= static_cast<int>(owner_.size()))
      owner_.resize(static_cast<std::size_t>(id) + 1, -1);
    owner_[static_cast<std::size_t>(id)] = pe;
  }

  /// Per-rank boundary-face lists (each rank applies BCs to its own
  /// blocks); also rebuilds the flux-correction plan. Call after every
  /// exchanger rebuild or partition change.
  void rebuild_rank_structures() {
    bfaces_by_pe_.assign(static_cast<std::size_t>(rcfg_.npes), {});
    for (const auto& bf : exchanger_.boundary_faces())
      bfaces_by_pe_[static_cast<std::size_t>(owner_at(bf.block))].push_back(
          bf);
    if (cfg_.flux_correction) flux_register_.rebuild(exchanger_);
    if (rcfg_.distributed_metadata) rebuild_local_topology();
  }

  /// Rebuild every rank's local view (owned + hull + directory) for the
  /// current partition, then verify the communication plans against it —
  /// the local view is the authority: any block a plan touches across a
  /// rank boundary must be discoverable by curve-key probing alone.
  void rebuild_local_topology() {
    // One-shot prefetch hints from the regrid that triggered this rebuild
    // (empty everywhere else: construction, restore).
    const std::vector<std::vector<BlockDesc<D>>>* hints =
        prefetch_hints_.empty() ? nullptr : &prefetch_hints_;
    topo_ = std::make_unique<LocalTopologySet<D>>(forest_, owner_, rcfg_.npes,
                                                  rcfg_.policy, hints);
    prefetch_hints_.clear();
    count("topo.probes", topo_->stats().probes);
    count("topo.remote_probes", topo_->stats().remote_probes);
    count("topo.prefetch_hits", topo_->stats().prefetch_hits);
    // Directory check: every owned block's key interval must resolve to
    // its owner (this is what routes migration payloads when no rank holds
    // the global owner array).
    for (int id : forest_.leaves()) {
      const std::uint64_t key = topo_->curve().interval_begin(
          forest_.level(id), forest_.coords(id));
      AB_REQUIRE(topo_->directory().owner_of(key) == owner_at(id),
                 "distributed metadata: directory disagrees with the "
                 "partition for block " + std::to_string(id));
    }
    // Ghost plan: both endpoints of every cross-rank op must know the
    // remote block from their hull.
    for (const auto& op : exchanger_.ops()) {
      const int ps = owner_at(op.src);
      const int pd = owner_at(op.dst);
      if (ps == pd) continue;
      AB_REQUIRE(
          topo_->knows(pd, forest_.level(op.src), forest_.coords(op.src)) &&
              topo_->knows(ps, forest_.level(op.dst),
                           forest_.coords(op.dst)),
          "distributed metadata: ghost-plan block missing from the "
          "neighbor hull");
    }
    // Flux plan: cross-rank coarse/fine correction pairs likewise.
    if (cfg_.flux_correction) {
      for (const auto& c : flux_register_.corrections()) {
        const int pf = owner_at(c.fine);
        const int pc = owner_at(c.coarse);
        if (pf == pc) continue;
        AB_REQUIRE(
            topo_->knows(pc, forest_.level(c.fine),
                         forest_.coords(c.fine)) &&
                topo_->knows(pf, forest_.level(c.coarse),
                             forest_.coords(c.coarse)),
            "distributed metadata: flux-plan block missing from the "
            "neighbor hull");
      }
    }
  }

  /// One regrid metadata round on the board: rank p's payload `packed[p]`
  /// goes to every neighbor rank q of the current local view, then
  /// `consume(p, q, payload, n)` reads each delivery. The payloads come off
  /// the wire, so an Error while consuming one is rethrown naming its
  /// channel. The round's traffic counts as topology-delta traffic.
  template <class Consume>
  void topo_round(const std::vector<std::vector<double>>& packed,
                  const char* what, RegridCost& rc, std::uint64_t parent_span,
                  const Consume& consume) {
    board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::TopoDelta,
                             parent_span);
    for (int p = 0; p < rcfg_.npes; ++p) {
      const auto& buf = packed[static_cast<std::size_t>(p)];
      if (buf.empty()) continue;
      for (int q : topo_->rank(p).neighbor_ranks())
        board_.send(p, q, buf.data(), static_cast<std::int64_t>(buf.size()));
    }
    for (int p = 0; p < rcfg_.npes; ++p) {
      const auto& buf = packed[static_cast<std::size_t>(p)];
      if (buf.empty()) continue;
      for (int q : topo_->rank(p).neighbor_ranks())
        board_.receive(p, q, static_cast<std::int64_t>(buf.size()),
                       [&](const double* payload) {
                         try {
                           consume(p, q, payload, buf.size());
                         } catch (const Error& e) {
                           throw Error(std::string("distributed metadata: ") +
                                       what + " on channel " +
                                       std::to_string(p) + "->" +
                                       std::to_string(q) + ": " + e.what());
                         }
                       });
    }
    rc.topo_delta_messages += board_.messages();
    rc.topo_delta_bytes += board_.bytes();
    count("topo.delta_messages", board_.messages());
    count("topo.delta_bytes", board_.bytes());
    board_.flush_trace();
  }

  /// Ship each rank's regrid topology changes (compact binarized-octree
  /// delta records, src/util/topo_codec.hpp) to its neighbor ranks — the
  /// same lossy wire as every other payload, so fault injection composes —
  /// and verify that each receiver decodes exactly the records the sender
  /// applied.
  void exchange_topology_deltas(
      const std::vector<std::vector<TopoDeltaRecord<D>>>& deltas,
      RegridCost& rc, std::uint64_t parent_span) {
    std::vector<std::vector<double>> packed(deltas.size());
    for (std::size_t p = 0; p < deltas.size(); ++p)
      if (!deltas[p].empty()) packed[p] = pack_topo_delta<D>(deltas[p]);
    topo_round(packed, "topology delta", rc, parent_span,
               [&](int p, int, const double* payload, std::size_t n) {
                 AB_REQUIRE(unpack_topo_delta<D>(payload, n) ==
                                deltas[static_cast<std::size_t>(p)],
                            "decoded records differ from the records sent");
               });
  }

  /// Ship each rank's post-regrid owned-block descriptors to the neighbor
  /// ranks of its STALE pre-regrid view (the only adjacency anyone knows
  /// mid-migration), counted as topo-delta traffic. Receivers keep them as
  /// hull-prefetch hints: the rebuild validates each hint against the
  /// directory and skips the remote probe it replaces
  /// (stats().prefetch_hits). Metadata only — the hull built is identical
  /// with or without hints.
  void exchange_hull_prefetch(RegridCost& rc, std::uint64_t parent_span) {
    std::vector<std::vector<double>> packed(
        static_cast<std::size_t>(rcfg_.npes));
    for (int id : forest_.leaves()) {
      const int pe = owner_at(id);
      pack_block_hint<D>(packed[static_cast<std::size_t>(pe)],
                         forest_.level(id), forest_.coords(id), pe);
    }
    prefetch_hints_.assign(static_cast<std::size_t>(rcfg_.npes), {});
    const CurveMap<D> curve(forest_.config(), rcfg_.policy);
    topo_round(packed, "hull-prefetch hints", rc, parent_span,
               [&](int, int q, const double* payload, std::size_t n) {
                 const std::vector<BlockDesc<D>> got =
                     unpack_block_hints<D>(payload, n, curve, rcfg_.npes);
                 auto& hints = prefetch_hints_[static_cast<std::size_t>(q)];
                 hints.insert(hints.end(), got.begin(), got.end());
               });
    for (auto& hints : prefetch_hints_)
      std::sort(hints.begin(), hints.end(),
                [](const BlockDesc<D>& a, const BlockDesc<D>& b) {
                  return a.key_begin < b.key_begin;
                });
  }

  /// One step of advance_to. A simulated rank death is recovered in
  /// place: the dead rank is retired, the last auto-checkpoint reloaded,
  /// its blocks re-partitioned across the survivors, and stepping resumes
  /// from the checkpointed time (returns false: dt must be recomputed from
  /// the restored state).
  bool try_step(double dt) {
    try {
      step(dt);
    } catch (const RankFailure& f) {
      recover(f.rank());
      return false;
    }
    return true;
  }

  // ------------------------------------------------------------------
  // Ownership policy (see stepping_core.hpp): one store per rank.

  int rank_of(int id) const { return owner_at(id); }
  FluxRegister<D>& register_of(int) { return flux_register_; }

  /// Buffered ghost exchange across all ranks + per-rank BCs. BC faces
  /// write only their own block's ghost slabs from its own data, so the
  /// per-rank grouping is order-independent (bitwise equal to the serial
  /// boundary-face order).
  void fill_set(StoreSet& s, double t, std::uint64_t span) {
    if (span != 0)
      msg_trace_.set_context(step_index_, obs::MsgPhase::Ghost, span);
    buffered_.fill_on(
        [&s](int pe) -> BlockStore<D>& {
          return s[static_cast<std::size_t>(pe)];
        },
        board_);
    for (int pe = 0; pe < rcfg_.npes; ++pe)
      apply_boundary_conditions<D>(s[static_cast<std::size_t>(pe)], forest_,
                                   bfaces_by_pe_[static_cast<std::size_t>(pe)],
                                   cfg_.bc, t);
    step_cost_.ghost_messages += buffered_.messages_per_fill();
    step_cost_.ghost_bytes += buffered_.bytes_per_fill();
    buffered_.add_per_pe_traffic(step_cost_.per_rank);
  }

  /// Distributed refluxing round: every fine-side average is evaluated on
  /// the fine block's owner (pack_fine_avg — the same arithmetic the
  /// serial FluxRegister::apply uses) and shipped to the coarse owner;
  /// corrections are applied in plan order, which is the serial apply
  /// order (two faces of one coarse block can overlap in a corner cell,
  /// so the order is part of the bitwise contract).
  void reflux_round(StoreSet& out, double dt, std::uint64_t span) {
    FluxRegister<D>& reg = flux_register_;
    const auto& plan = reg.corrections();
    board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::Flux, span);
    for (const auto& c : plan) {
      const int pf = owner_at(c.fine);
      const int pc = owner_at(c.coarse);
      if (pf != pc)
        reg.pack_fine_avg(c, reg.storage(c.fine),
                          board_.append(pf, pc, reg.correction_doubles(c)));
    }
    // A same-rank payload is packed just before its apply, as the serial
    // FluxRegister::apply does (applying never writes the register).
    std::vector<double> local;
    for (const auto& c : plan) {
      const int pf = owner_at(c.fine);
      const int pc = owner_at(c.coarse);
      const std::int64_t n = reg.correction_doubles(c);
      if (pf == pc) {
        local.resize(static_cast<std::size_t>(n));
        reg.pack_fine_avg(c, reg.storage(c.fine), local.data());
      }
      reg.apply_correction(
          out[static_cast<std::size_t>(pc)].view(c.coarse), c,
          reg.storage(c.coarse),
          pf == pc ? local.data() : board_.receive(pf, pc, n), dt);
    }
    step_cost_.flux_messages += board_.messages();
    step_cost_.flux_bytes += board_.bytes();
    board_.add_per_pe_traffic(step_cost_.per_rank);
    board_.flush_trace();
  }

  /// Each block update runs on its owning rank: tally its flops there and,
  /// when spans are collected, record a per-block compute span on that
  /// rank — what the critical-path reconstruction charges as the rank's
  /// useful work.
  template <class F>
  void around_block(int id, std::uint64_t span, const F& update) {
    const int pe = owner_at(id);
    obs::Tracer* const tr = span != 0 ? &cfg_.telemetry->trace : nullptr;
    const std::int64_t t0 = tr != nullptr ? tr->now_ns() : 0;
    step_cost_.per_rank[static_cast<std::size_t>(pe)].flops += update();
    if (tr != nullptr)
      tr->record(obs::TraceEvent{"stage_update", "compute", t0, tr->now_ns(),
                                 0, tr->new_span_id(), span, pe,
                                 step_index_});
  }

  /// A restored checkpoint's leaves are partitioned across the ranks still
  /// alive, and its path becomes the recovery point.
  void restored(const std::string& path) {
    owner_ = partition_alive();
    buffered_.set_owner(owner_, rcfg_.npes);
    rebuild_rank_structures();
    last_checkpoint_path_ = path;
  }

  // Regrid: refined children are born on the parent's rank; a coarsening
  // family is gathered to its first child's rank through the message
  // board; then the partition is recomputed and blocks migrate. Criteria
  // read only the flagged block's own data, so per-rank evaluation matches
  // the single-store evaluation.

  void regrid_begin(obs::PhaseScope& ps) {
    if (ps.span_id() != 0) ps.set_context(0, -1, step_index_);
    // Distributed metadata: each rank records the topology changes it
    // performs, to broadcast (binarized-octree encoded) to its neighbor
    // ranks after the regrid settles.
    deltas_.assign(
        rcfg_.distributed_metadata ? static_cast<std::size_t>(rcfg_.npes) : 0,
        {});
    board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::Gather,
                             ps.span_id());
  }

  void refined(const typename Forest<D>::RefineEvent& ev, int pe) {
    if (rcfg_.distributed_metadata)
      deltas_[static_cast<std::size_t>(pe)].push_back(
          {TopoDeltaOp::Refine, forest_.level(ev.parent),
           forest_.coords(ev.parent)});
    for (int c : ev.children) set_owner_entry(c, pe);
    owner_[static_cast<std::size_t>(ev.parent)] = -1;
  }

  /// Gather remote siblings onto the surviving parent's rank `pe`.
  void gather(const Family& kids, int pe) {
    const std::int64_t payload = block_payload_doubles<D>(layout_);
    for (int c : kids) {
      const int cp = owner_at(c);
      if (cp == pe) continue;
      pack_block_payload<D>(u_[static_cast<std::size_t>(cp)], c,
                            board_.append(cp, pe, payload));
      unpack_block_payload<D>(u_[static_cast<std::size_t>(pe)], c,
                              board_.receive(cp, pe, payload));
      u_[static_cast<std::size_t>(cp)].release(c);
    }
  }

  void coarsened(int p, const Family& kids, int pe) {
    for (int c : kids) owner_[static_cast<std::size_t>(c)] = -1;
    set_owner_entry(p, pe);
    if (rcfg_.distributed_metadata)
      deltas_[static_cast<std::size_t>(pe)].push_back(
          {TopoDeltaOp::Coarsen, forest_.level(p), forest_.coords(p)});
  }

  void regrid_end(bool changed, obs::PhaseScope& ps) {
    RegridCost rc;
    rc.gather_messages = board_.messages();
    rc.gather_bytes = board_.bytes();
    board_.flush_trace();
    if (!changed) return;
    // Load re-balancing, as the paper prescribes after every adaptation:
    // recompute the partition for the new leaf set and migrate every
    // block whose owner changed.
    rc.imbalance_before = alive_imbalance();
    std::vector<int> fresh = partition_alive();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::Migrate,
                             ps.span_id());
    const MigrationStats ms =
        migrate_blocks<D>(forest_.leaves(), owner_, fresh, u_, board_);
    board_.flush_trace();
    for (int id : forest_.leaves()) {
      const int a = owner_at(id);
      const int b = fresh[static_cast<std::size_t>(id)];
      if (a == b) continue;
      scratch_[static_cast<std::size_t>(a)].release(id);
      scratch_[static_cast<std::size_t>(b)].ensure(id);
    }
    owner_ = std::move(fresh);
    buffered_.set_owner(owner_, rcfg_.npes);
    // Hull prefetch rides with the migration: post-regrid descriptors go
    // to the stale view's neighbor ranks now, so the rebuild below can
    // validate hints instead of probing.
    if (rcfg_.distributed_metadata && topo_ != nullptr)
      exchange_hull_prefetch(rc, ps.span_id());
    rebuild_rank_structures();
    if (rcfg_.distributed_metadata)
      exchange_topology_deltas(deltas_, rc, ps.span_id());
    rc.migrated_blocks = ms.blocks;
    rc.migration_messages = ms.messages;
    rc.migration_bytes = ms.bytes;
    rc.imbalance_after = alive_imbalance();
    last_regrid_ = rc;
    totals_.add(rc);
  }

  /// The core's totals plus the wire hub's and the fault plan's, whose
  /// stats are run totals; counters take the deltas since the last call.
  void publish_totals(obs::MetricsRegistry& m) {
    Core::publish_totals(m);
    if (hub_ != nullptr) {
      const wire::WireStats& ws = hub_->stats();
      wire::WireStats& pub = wire_published_;
      obs::publish_total(m, "wire.frames_sent", ws.frames_sent,
                         pub.frames_sent);
      obs::publish_total(m, "wire.frames_recv", ws.frames_recv,
                         pub.frames_recv);
      obs::publish_total(m, "wire.payload_bytes", ws.payload_bytes,
                         pub.payload_bytes);
      obs::publish_total(m, "wire.bytes", ws.wire_bytes, pub.wire_bytes);
      obs::publish_total(m, "wire.crc_rejects", ws.crc_rejects,
                         pub.crc_rejects);
      obs::publish_total(m, "wire.dup_discards", ws.dup_discards,
                         pub.dup_discards);
      obs::publish_total(m, "wire.reorder_stashes", ws.reorder_stashes,
                         pub.reorder_stashes);
      m.gauge("wire.dedup_state_bytes")
          ->set(static_cast<double>(hub_->dedup_state_bytes()));
    }
    if (rcfg_.faults != nullptr) {
      const FaultStats& fs = rcfg_.faults->stats();
      FaultStats& pub = fault_published_;
      obs::publish_total(m, "fault.dropped", fs.dropped, pub.dropped);
      obs::publish_total(m, "fault.corrupted", fs.corrupted, pub.corrupted);
      obs::publish_total(m, "fault.duplicated", fs.duplicated,
                         pub.duplicated);
      obs::publish_total(m, "fault.reordered", fs.reordered, pub.reordered);
      obs::publish_total(m, "fault.retries", fs.retries, pub.retries);
    }
  }

  /// The step's traffic, imbalance and modeled time through the metrics
  /// registry, and the per-rank traffic table in the step's report record.
  /// Counters of regrid-time events (topology probes and deltas) are added
  /// where they happen.
  void publish_step(obs::MetricsRegistry& m, obs::StepReport* r) {
    const RankStepCost& sc = step_cost_;
    m.counter("rank.steps")->add(1);
    m.counter("rank.ghost_messages")
        ->add(static_cast<std::uint64_t>(sc.ghost_messages));
    m.counter("rank.ghost_bytes")
        ->add(static_cast<std::uint64_t>(sc.ghost_bytes));
    m.counter("rank.flux_messages")
        ->add(static_cast<std::uint64_t>(sc.flux_messages));
    m.counter("rank.flux_bytes")
        ->add(static_cast<std::uint64_t>(sc.flux_bytes));
    m.counter("rank.flops")->add(sc.model.total_flops);
    m.gauge("rank.load_imbalance")->set(sc.imbalance);
    m.gauge("rank.t_step_model_s")->set(sc.model.t_step);
    m.gauge("rank.efficiency")->set(sc.model.efficiency);
    if (rcfg_.distributed_metadata && topo_ != nullptr) {
      // Per-rank topology footprint: the gauges must track blocks/rank +
      // hull, not total blocks (the distributed-metadata contract).
      m.gauge("topo.max_owned")
          ->set(static_cast<double>(topo_->max_owned()));
      m.gauge("topo.max_hull")->set(static_cast<double>(topo_->max_hull()));
      m.gauge("topo.max_rank_bytes")
          ->set(static_cast<double>(topo_->max_rank_bytes()));
      m.gauge("topo.directory_bytes")
          ->set(static_cast<double>(topo_->directory().bytes()));
    }
    if (r == nullptr) return;
    r->per_rank.reserve(sc.per_rank.size());
    for (std::size_t p = 0; p < sc.per_rank.size(); ++p) {
      const PeLoad& t = sc.per_rank[p];
      obs::RankTrafficRecord rec;
      rec.rank = static_cast<int>(p);
      rec.sent_messages = t.sent_messages;
      rec.recv_messages = t.recv_messages;
      rec.sent_bytes = t.sent_bytes;
      rec.recv_bytes = t.recv_bytes;
      r->per_rank.push_back(rec);
    }
  }

  /// Modes the rank solver does not simulate, refused before any member is
  /// built.
  static const Config& supported(const Config& cfg) {
    AB_REQUIRE(cfg.npes >= 1, "RankSolver: npes must be >= 1");
    AB_REQUIRE(!cfg.solver.subcycling,
               "RankSolver: subcycling is not supported");
    AB_REQUIRE(cfg.solver.num_threads == 1,
               "RankSolver: ranks are simulated serially");
    return cfg;
  }

  Config rcfg_;  ///< solver member: the core's cfg_ (autotuned)
  std::vector<int> owner_;  ///< node id -> rank (-1 for non-leaves)
  BufferedExchange<D> buffered_;
  /// The message layer. Every round — ghost fills, flux, gathers,
  /// migration, hull prefetch and topology deltas — clears it, receives
  /// all it sends and reads its traffic before the next round starts, so
  /// one in-order channel per rank pair carries them all.
  MessageBoard board_;
  /// Cross-rank causal message tracing (bound to the telemetry's tracer at
  /// construction; inert while the tracer is disabled).
  obs::MsgTrace msg_trace_;
  /// Flux recording for every rank's blocks: one correction plan, and one
  /// storage per block, written by its owner's update and read on its owner
  /// (pack_fine_avg on the fine side, apply_correction on the coarse side).
  FluxRegister<D> flux_register_;
  std::vector<std::vector<BoundaryFace>> bfaces_by_pe_;
  /// Distributed metadata (Config::distributed_metadata): per-rank local
  /// views rebuilt with every partition change.
  std::unique_ptr<LocalTopologySet<D>> topo_;
  /// Wire transport state (Board path: hub_ stays null and none of this
  /// is touched).
  wire::TransportKind transport_kind_ = wire::TransportKind::Board;
  std::unique_ptr<wire::WireHub> owned_hub_;
  wire::WireHub* hub_ = nullptr;
  wire::WireStats wire_published_;  ///< hub totals published so far
  /// Hull-prefetch hints collected by exchange_hull_prefetch, consumed
  /// (and cleared) by the next rebuild_local_topology.
  std::vector<std::vector<BlockDesc<D>>> prefetch_hints_;
  /// Per-rank topology changes of the regrid in flight (distributed
  /// metadata only).
  std::vector<std::vector<TopoDeltaRecord<D>>> deltas_;
  std::vector<int> alive_;  ///< surviving rank ids, ascending
  std::string last_checkpoint_path_;
  FaultStats fault_published_;  ///< plan totals published so far
  RankStepCost step_cost_{};  ///< the step in flight, then the last step
  RegridCost last_regrid_{};
  RankRunTotals totals_;
};

}  // namespace ab
