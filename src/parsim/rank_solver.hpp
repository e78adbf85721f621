// Rank-parallel time stepping: the stepping core run with every leaf owned
// by one of P simulated ranks.
//
// Each rank holds a private store per block set containing only its blocks
// — nothing crosses a rank boundary except message payload: ghost fills go
// through BufferedExchange's buffers, flux-register corrections and
// coarsen gathers through a MessageBoard, and re-partitioned blocks
// migrate by pack/unpack of their interior cell data. The partition is
// recomputed after every regrid (PartitionPolicy pluggable) and per-step
// traffic/imbalance is priced on the MachineModel.
//
// The step, the stage loop, compute_dt, init and adapt's family selection
// are the stepping core's (amr/stepping_core.hpp), the same code AmrSolver
// runs; this class is the core's ownership policy for P ranks. It answers
// which rank's store holds a block, fills a store set's ghosts by message,
// runs the reflux round by message, and after each block update records
// the rank's compute span and flops and retires a deferred topology
// delta. The solver is therefore bitwise identical to the single-address-
// space AmrSolver (serial, no subcycling) by construction, because:
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
#include <cstdlib>
#include <cstring>
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
    /// Distributed block metadata (env override AB_DIST_META): every rank
    /// holds only its owned blocks plus a neighbor hull, with neighbor
    /// discovery by SFC curve key and topology deltas exchanged on regrid
    /// (src/parsim/local_topology.hpp). Requires a Morton or Hilbert
    /// partition policy. Results are bitwise identical to the global-
    /// metadata path; the local view is load-bearing for ghost-plan,
    /// flux-plan, and migration verification.
    bool distributed_metadata = false;
    /// Auto-checkpoint cadence in steps (0 = off). When positive, step()
    /// writes a v2 checkpoint to `checkpoint_path` at the top of every
    /// step whose index is a multiple of the cadence — including step 0,
    /// so a recovery point always exists before the first possible death.
    int checkpoint_every = 0;
    std::string checkpoint_path;
    /// Which wire carries the exchange payloads (env AB_TRANSPORT=
    /// board|socket|shm wins over config). Board is the in-process
    /// MessageBoard path — the default and the bitwise reference; Socket
    /// and Shm frame every payload (ghosts, flux, gathers, migration,
    /// topology deltas) over a real kernel transport (src/parsim/wire/),
    /// still bitwise identical to serial.
    wire::TransportKind transport = wire::TransportKind::Board;
    /// External wire hub: SPMD worker processes construct one hub before
    /// forking and every worker's solver shares it (its kind overrides
    /// `transport`). Null = the solver owns a private hub when the
    /// resolved transport is not Board.
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
    rank_flops_.assign(static_cast<std::size_t>(rcfg_.npes), 0);
    alive_.assign(static_cast<std::size_t>(rcfg_.npes), true);
    num_alive_ = rcfg_.npes;
    AB_REQUIRE(rcfg_.checkpoint_every <= 0 || !rcfg_.checkpoint_path.empty(),
               "RankSolver: checkpoint_every needs a checkpoint_path");
    buffered_.set_fault_plan(rcfg_.faults);
    board_.set_fault_plan(rcfg_.faults);
    topo_board_.set_fault_plan(rcfg_.faults);
    if (cfg_.telemetry != nullptr) {
      // Causal cross-rank tracing: every transport payload carries a span
      // context stamped at send and joined at receive. Costs nothing while
      // the tracer is disabled (one flag test per hook).
      msg_trace_.bind(&cfg_.telemetry->trace);
      buffered_.set_trace(&msg_trace_);
      board_.set_trace(&msg_trace_);
      topo_board_.set_trace(&msg_trace_);
    }
    // Wire transport: an external hub (SPMD workers, pre-fork) wins; else
    // resolve config + AB_TRANSPORT and own a hub when one is needed.
    if (rcfg_.wire != nullptr) {
      AB_REQUIRE(rcfg_.wire->npes() == rcfg_.npes,
                 "RankSolver: wire hub sized for a different npes");
      hub_ = rcfg_.wire;
      transport_kind_ = hub_->kind();
    } else {
      transport_kind_ = wire::resolve_transport(rcfg_.transport);
      if (transport_kind_ != wire::TransportKind::Board) {
        owned_hub_ =
            std::make_unique<wire::WireHub>(transport_kind_, rcfg_.npes);
        hub_ = owned_hub_.get();
      }
    }
    if (hub_ != nullptr) {
      buffered_.set_wire(hub_);
      board_.set_wire(hub_, wire::PayloadClass::Board);
      topo_board_.set_wire(hub_, wire::PayloadClass::Topo);
    }
    distmeta_ = resolve_distmeta(rcfg_);
    if (distmeta_ && (!CurveMap<D>::supports(rcfg_.policy) ||
                      cfg_.forest.max_level_diff != 1)) {
      // A config request for an unsupportable setup is a caller error; an
      // env-forced AB_DIST_META=1 on such a run falls back to global
      // metadata (the same grace AB_AUTOTUNE shows inapplicable layouts).
      AB_REQUIRE(!rcfg_.distributed_metadata,
                 "RankSolver: distributed_metadata requires an SFC "
                 "partition policy (Morton or Hilbert) and the 2:1 level "
                 "constraint");
      distmeta_ = false;
    }
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
  /// Whether the distributed-metadata path is active (config or env).
  bool distributed_metadata() const { return distmeta_; }
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
    sc.imbalance = load_imbalance(owner_, rcfg_.npes);
    sc.per_rank.assign(static_cast<std::size_t>(rcfg_.npes), PeTraffic{});
    rank_flops_.assign(static_cast<std::size_t>(rcfg_.npes), 0);
    // The kill point sits after the first exchange: the step is genuinely
    // in flight (ghosts delivered, stage results pending) when the rank
    // dies, and nothing it half-did survives recovery.
    this->advance(dt, [this] { maybe_kill(); });
    for (std::uint64_t f : rank_flops_) {
      sc.flops += f;
      sc.max_rank_flops = std::max(sc.max_rank_flops, f);
    }
    price_step(sc, rcfg_.machine, rcfg_.npes);
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

  /// Discard all in-memory state and reload from `path`, partitioning the
  /// restored blocks across the currently-alive ranks. Ghosts are refilled
  /// by the next step's exchange.
  void restore(const std::string& path) {
    // Deferred topology deltas from before the failure must be consumed
    // (on the wire path they are already buffered frames that would
    // otherwise corrupt the next topo round).
    drain_topo_all();
    forest_ = Forest<D>(cfg_.forest);
    BlockStore<D> global(layout_);
    time_ = load_checkpoint<D>(path, forest_, global);
    forest_.rebuild_neighbor_table();
    exchanger_.rebuild();
    for (int p = 0; p < rcfg_.npes; ++p) {
      u_[static_cast<std::size_t>(p)] = this->make_store();
      scratch_[static_cast<std::size_t>(p)] = this->make_store();
    }
    owner_ = partition_alive();
    const std::int64_t payload = block_payload_doubles<D>(layout_);
    std::vector<double> buf(static_cast<std::size_t>(payload));
    for (int id : forest_.leaves()) {
      this->store_of(scratch_, id).ensure(id);
      pack_block_payload<D>(global, id, buf.data());
      unpack_block_payload<D>(this->store_of(u_, id), id, buf.data());
    }
    buffered_.set_owner(owner_, rcfg_.npes);
    rebuild_rank_structures();
    last_checkpoint_path_ = path;
  }

  /// Handle the death of `dead_rank`: retire it, reload the last
  /// checkpoint, re-partition its blocks across the survivors (existing
  /// PartitionPolicy/migration machinery), and leave the solver ready to
  /// resume from the checkpointed time.
  void recover(int dead_rank) {
    AB_REQUIRE(dead_rank >= 0 && dead_rank < rcfg_.npes &&
                   alive_[static_cast<std::size_t>(dead_rank)],
               "RankSolver: recover() needs a live rank id");
    AB_REQUIRE(!last_checkpoint_path_.empty(),
               "RankSolver: rank " + std::to_string(dead_rank) +
                   " died with no checkpoint to recover from (set "
                   "checkpoint_every/checkpoint_path)");
    alive_[static_cast<std::size_t>(dead_rank)] = false;
    --num_alive_;
    AB_REQUIRE(num_alive_ >= 1, "RankSolver: no surviving ranks");
    restore(last_checkpoint_path_);
    obs::Telemetry* const tel = cfg_.telemetry;
    if (tel != nullptr) {
      tel->metrics.counter("fault.rank_deaths")->add(1);
      tel->metrics.counter("fault.recoveries")->add(1);
    }
  }

  /// Ranks still alive (npes minus recovered deaths).
  int num_alive() const { return num_alive_; }
  bool rank_alive(int pe) const {
    return pe >= 0 && pe < rcfg_.npes && alive_[static_cast<std::size_t>(pe)];
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
    if (!alive_[static_cast<std::size_t>(r)]) return;  // already dead
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
        partition_blocks<D>(forest_, num_alive_, rcfg_.policy);
    if (num_alive_ == rcfg_.npes) return raw;
    std::vector<int> alive_ids;
    alive_ids.reserve(static_cast<std::size_t>(num_alive_));
    for (int p = 0; p < rcfg_.npes; ++p)
      if (alive_[static_cast<std::size_t>(p)]) alive_ids.push_back(p);
    for (int& o : raw)
      if (o >= 0) o = alive_ids[static_cast<std::size_t>(o)];
    return raw;
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
    if (distmeta_) rebuild_local_topology();
  }

  /// Resolve the distributed-metadata switch (config + AB_DIST_META env,
  /// which wins when set).
  static bool resolve_distmeta(const Config& cfg) {
    bool use = cfg.distributed_metadata;
    if (const char* e = std::getenv("AB_DIST_META")) use = e[0] != '0';
    return use;
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
    topo_probes_acc_ += topo_->stats().probes;
    topo_remote_acc_ += topo_->stats().remote_probes;
    topo_prefetch_acc_ += topo_->stats().prefetch_hits;
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

  /// Ship each rank's regrid topology changes (compact binarized-octree
  /// delta records, src/util/topo_codec.hpp) to its neighbor ranks through
  /// the topology board — the same lossy wire as every other payload, so
  /// fault injection composes — and verify the decoded records match.
  ///
  /// Sends post here but receives defer to drain_topo_some(), called
  /// between block updates during stage compute — the delta exchange
  /// overlaps the next step's work instead of extending the regrid barrier.
  /// Synchronous while message tracing is active, so span accounting (one
  /// span pair per channel, closed within the round) is unchanged; the
  /// solver bytes are the same either way.
  void exchange_topology_deltas(
      const std::vector<std::vector<TopoDeltaRecord<D>>>& deltas,
      RegridCost& rc, std::uint64_t parent_span = 0) {
    const bool async = !msg_trace_.active();
    topo_board_.clear();  // prior rounds fully drained (adapt() entry)
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::TopoDelta,
                             parent_span);
    std::vector<std::vector<double>> packed(
        static_cast<std::size_t>(rcfg_.npes));
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    for (int p = 0; p < rcfg_.npes; ++p) {
      const auto& recs = deltas[static_cast<std::size_t>(p)];
      if (recs.empty()) continue;
      const std::vector<std::uint8_t> enc = encode_topo_delta<D>(recs);
      // Byte payloads ride the double-valued board: one length double,
      // then the bytes packed eight per double.
      std::vector<double>& buf = packed[static_cast<std::size_t>(p)];
      buf.assign(1 + (enc.size() + sizeof(double) - 1) / sizeof(double),
                 0.0);
      buf[0] = static_cast<double>(enc.size());
      std::memcpy(buf.data() + 1, enc.data(), enc.size());
      for (int q : topo_->rank(p).neighbor_ranks()) {
        topo_board_.send(p, q, buf.data(),
                         static_cast<std::int64_t>(buf.size()));
        ++msgs;
        bytes += static_cast<std::int64_t>(buf.size() * sizeof(double));
        if (async)
          pending_topo_.push_back(
              {p, q, static_cast<std::int64_t>(buf.size()), recs});
      }
    }
    if (!async) {
      for (int p = 0; p < rcfg_.npes; ++p) {
        const auto& buf = packed[static_cast<std::size_t>(p)];
        if (buf.empty()) continue;
        for (int q : topo_->rank(p).neighbor_ranks())
          verify_topo_delta(p, q, static_cast<std::int64_t>(buf.size()),
                            deltas[static_cast<std::size_t>(p)]);
      }
    }
    rc.topo_delta_messages += msgs;
    rc.topo_delta_bytes += bytes;
    topo_board_.flush_trace();
    topo_delta_msgs_acc_ += msgs;
    topo_delta_bytes_acc_ += bytes;
  }

  /// Receive one (src, dst) topology-delta payload and check it decodes to
  /// exactly the records the sender applied.
  void verify_topo_delta(int src, int dst, std::int64_t n,
                         const std::vector<TopoDeltaRecord<D>>& expect) {
    const double* payload = topo_board_.receive(src, dst, n);
    const std::size_t nbytes = static_cast<std::size_t>(payload[0]);
    std::vector<std::uint8_t> rx(nbytes);
    std::memcpy(rx.data(), payload + 1, nbytes);
    AB_REQUIRE(decode_topo_delta<D>(rx) == expect,
               "distributed metadata: topology delta did not survive "
               "the wire");
  }

  /// Deferred topology-delta receives still outstanding?
  bool topo_pending() const {
    return topo_drain_pos_ < pending_topo_.size();
  }

  /// Consume up to `k` deferred topology-delta receives — the overlap
  /// hook, called between block updates during stage compute. Resets the
  /// board once the round fully drains (on the wire path the frames have
  /// left their per-class queue by then).
  void drain_topo_some(std::size_t k) {
    while (k-- > 0 && topo_drain_pos_ < pending_topo_.size()) {
      const PendingTopo& pt = pending_topo_[topo_drain_pos_++];
      verify_topo_delta(pt.src, pt.dst, pt.n, pt.expect);
    }
    if (!pending_topo_.empty() &&
        topo_drain_pos_ == pending_topo_.size()) {
      pending_topo_.clear();
      topo_drain_pos_ = 0;
      topo_board_.clear();
    }
  }

  void drain_topo_all() { drain_topo_some(pending_topo_.size()); }

  /// Ship each rank's post-regrid owned-block descriptors to the neighbor
  /// ranks of its STALE pre-regrid view (the only adjacency anyone knows
  /// mid-migration), riding the topology wire class and counted as
  /// topo-delta traffic. Receivers keep them as hull-prefetch hints: the
  /// rebuild validates each hint against the directory and skips the
  /// remote probe it replaces (stats().prefetch_hits). Metadata only —
  /// the hull built is identical with or without hints.
  void exchange_hull_prefetch(RegridCost& rc, std::uint64_t parent_span = 0) {
    topo_board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::TopoDelta,
                             parent_span);
    // Pack per rank: [count, then per block: level, coords..., owner].
    std::vector<std::vector<double>> packed(
        static_cast<std::size_t>(rcfg_.npes));
    for (int id : forest_.leaves()) {
      const int pe = owner_at(id);
      std::vector<double>& buf = packed[static_cast<std::size_t>(pe)];
      if (buf.empty()) buf.push_back(0.0);
      buf.push_back(static_cast<double>(forest_.level(id)));
      const IVec<D> c = forest_.coords(id);
      for (int d = 0; d < D; ++d) buf.push_back(static_cast<double>(c[d]));
      buf.push_back(static_cast<double>(pe));
      buf[0] += 1.0;
    }
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    for (int p = 0; p < rcfg_.npes; ++p) {
      const auto& buf = packed[static_cast<std::size_t>(p)];
      if (buf.empty()) continue;
      for (int q : topo_->rank(p).neighbor_ranks()) {
        topo_board_.send(p, q, buf.data(),
                         static_cast<std::int64_t>(buf.size()));
        ++msgs;
        bytes += static_cast<std::int64_t>(buf.size() * sizeof(double));
      }
    }
    prefetch_hints_.assign(static_cast<std::size_t>(rcfg_.npes), {});
    const CurveMap<D> curve(forest_.config(), rcfg_.policy);
    for (int p = 0; p < rcfg_.npes; ++p) {
      const auto& buf = packed[static_cast<std::size_t>(p)];
      if (buf.empty()) continue;
      for (int q : topo_->rank(p).neighbor_ranks()) {
        const double* payload = topo_board_.receive(
            p, q, static_cast<std::int64_t>(buf.size()));
        const int count = static_cast<int>(payload[0]);
        const double* at = payload + 1;
        auto& hints = prefetch_hints_[static_cast<std::size_t>(q)];
        for (int i = 0; i < count; ++i) {
          BlockDesc<D> b;
          b.level = static_cast<int>(*at++);
          for (int d = 0; d < D; ++d) b.coords[d] = static_cast<int>(*at++);
          b.owner = static_cast<int>(*at++);
          b.key_begin = curve.interval_begin(b.level, b.coords);
          b.key_end = b.key_begin + curve.span(b.level);
          hints.push_back(b);
        }
      }
    }
    for (auto& hints : prefetch_hints_)
      std::sort(hints.begin(), hints.end(),
                [](const BlockDesc<D>& a, const BlockDesc<D>& b) {
                  return a.key_begin < b.key_begin;
                });
    rc.topo_delta_messages += msgs;
    rc.topo_delta_bytes += bytes;
    topo_board_.flush_trace();
    topo_delta_msgs_acc_ += msgs;
    topo_delta_bytes_acc_ += bytes;
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
    buffered_.fill_on([&s](int pe) -> BlockStore<D>& {
      return s[static_cast<std::size_t>(pe)];
    });
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
    std::vector<std::vector<double>> favg(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& c = plan[i];
      const int pf = owner_at(c.fine);
      favg[i].resize(static_cast<std::size_t>(reg.correction_doubles(c)));
      reg.pack_fine_avg(c, reg.storage(c.fine), favg[i].data());
      const int pc = owner_at(c.coarse);
      if (pf != pc)
        board_.send(pf, pc, favg[i].data(),
                    static_cast<std::int64_t>(favg[i].size()));
    }
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& c = plan[i];
      const int pf = owner_at(c.fine);
      const int pc = owner_at(c.coarse);
      const double* payload =
          (pf == pc)
              ? favg[i].data()
              : board_.receive(pf, pc,
                               static_cast<std::int64_t>(favg[i].size()));
      reg.apply_correction(
          out[static_cast<std::size_t>(pc)].view(c.coarse), c,
          reg.storage(c.coarse), payload, dt);
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
    rank_flops_[static_cast<std::size_t>(pe)] += update();
    if (tr != nullptr)
      tr->record(obs::TraceEvent{"stage_update", "compute", t0, tr->now_ns(),
                                 0, tr->new_span_id(), span, pe,
                                 step_index_});
    // Async topology deltas: retire one deferred receive per block
    // update, hiding the exchange behind compute.
    if (topo_pending()) drain_topo_some(1);
  }

  // Regrid: refined children are born on the parent's rank; a coarsening
  // family is gathered to its first child's rank through the message
  // board; then the partition is recomputed and blocks migrate. Criteria
  // read only the flagged block's own data, so per-rank evaluation matches
  // the single-store evaluation.

  void regrid_begin(obs::PhaseScope& ps) {
    if (ps.span_id() != 0) ps.set_context(0, -1, step_index_);
    // The previous regrid's deferred topology deltas must land before a
    // new round starts (normally they drained during stage compute).
    drain_topo_all();
    // Distributed metadata: each rank records the topology changes it
    // performs, to broadcast (binarized-octree encoded) to its neighbor
    // ranks after the regrid settles.
    deltas_.assign(distmeta_ ? static_cast<std::size_t>(rcfg_.npes) : 0, {});
    board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::Gather,
                             ps.span_id());
  }

  void refined(const typename Forest<D>::RefineEvent& ev, int pe) {
    if (distmeta_)
      deltas_[static_cast<std::size_t>(pe)].push_back(
          {TopoDeltaOp::Refine, forest_.level(ev.parent),
           forest_.coords(ev.parent)});
    for (int c : ev.children) set_owner_entry(c, pe);
    owner_[static_cast<std::size_t>(ev.parent)] = -1;
  }

  /// Gather remote siblings onto the surviving parent's rank `pe`.
  void gather(const Family& kids, int pe) {
    const std::int64_t payload = block_payload_doubles<D>(layout_);
    std::vector<double> buf(static_cast<std::size_t>(payload));
    for (int c : kids) {
      const int cp = owner_at(c);
      if (cp == pe) continue;
      pack_block_payload<D>(u_[static_cast<std::size_t>(cp)], c, buf.data());
      board_.send(cp, pe, buf.data(), payload);
      unpack_block_payload<D>(u_[static_cast<std::size_t>(pe)], c,
                              board_.receive(cp, pe, payload));
      u_[static_cast<std::size_t>(cp)].release(c);
    }
  }

  void coarsened(int p, const Family& kids, int pe) {
    for (int c : kids) owner_[static_cast<std::size_t>(c)] = -1;
    set_owner_entry(p, pe);
    if (distmeta_)
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
    rc.imbalance_before = load_imbalance(owner_, rcfg_.npes);
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
    if (distmeta_ && topo_ != nullptr)
      exchange_hull_prefetch(rc, ps.span_id());
    rebuild_rank_structures();
    if (distmeta_) exchange_topology_deltas(deltas_, rc, ps.span_id());
    rc.migrated_blocks = ms.blocks;
    rc.migration_messages = ms.messages;
    rc.migration_bytes = ms.bytes;
    rc.imbalance_after = load_imbalance(owner_, rcfg_.npes);
    last_regrid_ = rc;
    totals_.add(rc);
  }

  /// The step's traffic/imbalance through the metrics registry, and the
  /// per-rank traffic table in the step's report record.
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
    m.counter("rank.flops")->add(sc.flops);
    m.gauge("rank.load_imbalance")->set(sc.imbalance);
    m.gauge("rank.t_step_model_s")->set(sc.t_step);
    m.gauge("rank.efficiency")->set(sc.efficiency);
    if (distmeta_ && topo_ != nullptr) {
      // Per-rank topology footprint: the gauges must track blocks/rank +
      // hull, not total blocks (the distributed-metadata contract). Probe
      // and delta totals are cumulative; counters take per-step deltas.
      m.gauge("topo.max_owned")
          ->set(static_cast<double>(topo_->max_owned()));
      m.gauge("topo.max_hull")->set(static_cast<double>(topo_->max_hull()));
      m.gauge("topo.max_rank_bytes")
          ->set(static_cast<double>(topo_->max_rank_bytes()));
      m.gauge("topo.directory_bytes")
          ->set(static_cast<double>(topo_->directory().bytes()));
      auto pub = [&m](const char* name, std::int64_t cur,
                      std::int64_t& prev) {
        if (cur > prev)
          m.counter(name)->add(static_cast<std::uint64_t>(cur - prev));
        prev = cur;
      };
      pub("topo.probes", topo_probes_acc_, topo_probes_seen_);
      pub("topo.remote_probes", topo_remote_acc_, topo_remote_seen_);
      pub("topo.prefetch_hits", topo_prefetch_acc_, topo_prefetch_seen_);
      pub("topo.delta_messages", topo_delta_msgs_acc_,
          topo_delta_msgs_seen_);
      pub("topo.delta_bytes", topo_delta_bytes_acc_, topo_delta_bytes_seen_);
    }
    if (hub_ != nullptr) {
      // Wire-frame totals are cumulative per hub; counters take deltas.
      const wire::WireStats& ws = hub_->stats();
      auto pub = [&m](const char* name, std::int64_t cur,
                      std::int64_t prev) {
        if (cur > prev)
          m.counter(name)->add(static_cast<std::uint64_t>(cur - prev));
      };
      pub("wire.frames_sent", ws.frames_sent, wire_prev_.frames_sent);
      pub("wire.frames_recv", ws.frames_recv, wire_prev_.frames_recv);
      pub("wire.payload_bytes", ws.payload_bytes, wire_prev_.payload_bytes);
      pub("wire.bytes", ws.wire_bytes, wire_prev_.wire_bytes);
      pub("wire.crc_rejects", ws.crc_rejects, wire_prev_.crc_rejects);
      pub("wire.dup_discards", ws.dup_discards, wire_prev_.dup_discards);
      pub("wire.reorder_stashes", ws.reorder_stashes,
          wire_prev_.reorder_stashes);
      wire_prev_ = ws;
      m.gauge("wire.dedup_state_bytes")
          ->set(static_cast<double>(hub_->dedup_state_bytes()));
    }
    if (rcfg_.faults != nullptr) {
      // The plan's stats are run totals; counters take per-step deltas.
      const FaultStats& fs = rcfg_.faults->stats();
      auto pub = [&m](const char* name, std::int64_t cur,
                      std::int64_t prev) {
        if (cur > prev)
          m.counter(name)->add(static_cast<std::uint64_t>(cur - prev));
      };
      pub("fault.dropped", fs.dropped, fault_prev_.dropped);
      pub("fault.corrupted", fs.corrupted, fault_prev_.corrupted);
      pub("fault.duplicated", fs.duplicated, fault_prev_.duplicated);
      pub("fault.reordered", fs.reordered, fault_prev_.reordered);
      pub("fault.retries", fs.retries, fault_prev_.retries);
      fault_prev_ = fs;
    }
    if (r == nullptr) return;
    r->per_rank.reserve(sc.per_rank.size());
    for (std::size_t p = 0; p < sc.per_rank.size(); ++p) {
      const PeTraffic& t = sc.per_rank[p];
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
  MessageBoard board_;
  /// Topology-delta + hull-prefetch traffic (wire class Topo). Separate
  /// from board_ so deferred async receives survive the board rounds the
  /// next steps run.
  MessageBoard topo_board_;
  /// Cross-rank causal message tracing (bound to the telemetry's tracer at
  /// construction; inert while the tracer is disabled).
  obs::MsgTrace msg_trace_;
  /// Flux recording for every rank's blocks: one correction plan, and one
  /// storage per block, written by its owner's update and read on its owner
  /// (pack_fine_avg on the fine side, apply_correction on the coarse side).
  FluxRegister<D> flux_register_;
  std::vector<std::vector<BoundaryFace>> bfaces_by_pe_;
  /// Distributed metadata (Config::distributed_metadata / AB_DIST_META):
  /// per-rank local views rebuilt with every partition change; the probe
  /// and delta totals feed the topo.* telemetry counters.
  bool distmeta_ = false;
  std::unique_ptr<LocalTopologySet<D>> topo_;
  std::int64_t topo_probes_acc_ = 0;
  std::int64_t topo_remote_acc_ = 0;
  std::int64_t topo_prefetch_acc_ = 0;
  std::int64_t topo_delta_msgs_acc_ = 0;
  std::int64_t topo_delta_bytes_acc_ = 0;
  std::int64_t topo_probes_seen_ = 0;
  std::int64_t topo_remote_seen_ = 0;
  std::int64_t topo_prefetch_seen_ = 0;
  std::int64_t topo_delta_msgs_seen_ = 0;
  std::int64_t topo_delta_bytes_seen_ = 0;
  /// Wire transport state (Board path: hub_ stays null and none of this
  /// is touched).
  wire::TransportKind transport_kind_ = wire::TransportKind::Board;
  std::unique_ptr<wire::WireHub> owned_hub_;
  wire::WireHub* hub_ = nullptr;
  wire::WireStats wire_prev_;  ///< hub stats published so far
  /// One deferred async topology-delta receive (src -> dst, n doubles,
  /// plus the records the payload must decode to).
  struct PendingTopo {
    int src;
    int dst;
    std::int64_t n;
    std::vector<TopoDeltaRecord<D>> expect;
  };
  std::vector<PendingTopo> pending_topo_;
  std::size_t topo_drain_pos_ = 0;
  /// Hull-prefetch hints collected by exchange_hull_prefetch, consumed
  /// (and cleared) by the next rebuild_local_topology.
  std::vector<std::vector<BlockDesc<D>>> prefetch_hints_;
  /// Per-rank topology changes of the regrid in flight (distributed
  /// metadata only).
  std::vector<std::vector<TopoDeltaRecord<D>>> deltas_;
  std::vector<std::uint64_t> rank_flops_;
  std::vector<bool> alive_;  ///< per-rank liveness (deaths are permanent)
  int num_alive_ = 0;
  std::string last_checkpoint_path_;
  FaultStats fault_prev_;  ///< last stats published to the metrics registry
  RankStepCost step_cost_{};  ///< the step in flight, then the last step
  RegridCost last_regrid_{};
  RankRunTotals totals_;
};

}  // namespace ab
