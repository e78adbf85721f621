// The message layer of the rank-parallel run, and the ghost exchange
// performed through it.
//
// MessageBoard is the one code path that moves a payload across a rank
// boundary: ghost fills, flux-register corrections, coarsen gathers, block
// migration and topology deltas all pack into its (src, dst) channels. A
// flush gives each channel with unsent bytes one FaultPlan draw, one wire
// frame and one send-span window — one frame per rank pair per flush, the
// pair aggregation the cost model (simulate.hpp) prices.
//
// BufferedExchange lays the ghost exchange out by rank pair. Each fill
// packs the sender-side-evaluated ghost values (restriction and
// prolongation are computed on the owning PE — the original production
// code's choice, minimizing wire bytes) of every (source PE, destination
// PE) pair into that pair's channel of a MessageBoard, then unpacks on the
// receiver; local ops are applied directly. Packing reads the source
// PE's store and unpacking writes the destination PE's, so with one private
// store per rank (RankSolver) nothing else crosses the rank boundary. The
// result is bit-identical to GhostExchanger::fill
// (tests/parsim/buffered_exchange_test.cpp), and its per-PE traffic is the
// record both simulate_step and RankSolver price.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/ghost.hpp"
#include "obs/msg_trace.hpp"
#include "parsim/fault.hpp"
#include "parsim/machine.hpp"
#include "parsim/wire/hub.hpp"
#include "util/error.hpp"

namespace ab {

/// (src_pe, dst_pe)-keyed channels of doubles. Senders append to a
/// channel; receivers read it back in the same order (each channel is a
/// FIFO). One round = clear(), all sends, all receives — the
/// bulk-synchronous exchange a distributed code performs; messages()/
/// bytes() give the pair-aggregated traffic of the round for the cost
/// model. Sends wait on the board until flush(), which receive() runs first.
class MessageBoard {
 public:
  /// Start a new round: emit the last round's spans and empty every
  /// channel, keeping its storage.
  void clear() {
    flush_trace();
    for (auto& [key, ch] : channels_) {
      ch.data.clear();
      ch.flushed = ch.pulled = ch.read = 0;
    }
    unsent_.clear();
  }

  /// Route every flush through `plan`'s lossy wire (nullptr restores the
  /// perfect wire). Faults are injected and recovered at flush time — what
  /// stays in the channel is always the clean payload.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }

  /// Attach the causal message-trace hook (nullptr detaches). The span
  /// context rides next to each channel, never inside the double payload,
  /// so fault-injection RNG draws and CRCs are unchanged.
  void set_trace(obs::MsgTrace* mt) { trace_ = mt; }

  /// Route every channel payload through a real wire (nullptr detaches):
  /// flushes frame the packed doubles onto `hub`'s transport, and receives
  /// overwrite the channel bytes with what arrived off the wire before the
  /// caller reads them — making the wire copy the one a receiver consumes.
  void set_wire(wire::WireHub* hub) { wire_ = hub; }

  /// Emit one send/receive span pair per channel that saw traffic since
  /// its last emission, in key order. The board has no intrinsic round-end
  /// signal, so the owner calls this once per exchange round (clear() also
  /// does, as a backstop) — keeping span counts equal to the
  /// pair-aggregated message counts add_per_pe_traffic reports.
  void flush_trace() {
    for (auto& [key, ch] : channels_) finish_span(ch, key.second);
  }
  /// Emit the (src, dst) channel's span pair now, for a round that closes
  /// its messages' spans in its own order.
  void flush_trace(int src, int dst) {
    auto it = channels_.find({src, dst});
    if (it != channels_.end()) finish_span(it->second, dst);
  }

  /// Reserve `n` doubles at the end of the (src, dst) channel for the
  /// caller to pack, valid until the channel's next append; they cross the
  /// wire at the next flush(). The first append opens the send span.
  double* append(int src, int dst, std::int64_t n) {
    AB_REQUIRE(src != dst, "MessageBoard: no self-messages");
    Channel& ch = channels_[{src, dst}];
    const std::size_t at = ch.data.size();
    if (n > 0 && ch.flushed == at) unsent_.emplace_back(src, dst);
    if (n > 0 && tracing()) {
      const std::int64_t t = trace_->now();
      trace_->add_send(ch.span, src, t, t);
    }
    ch.data.resize(at + static_cast<std::size_t>(n));
    return ch.data.data() + at;
  }

  /// Append a copy of `n` doubles to the (src, dst) channel.
  void send(int src, int dst, const double* data, std::int64_t n) {
    std::copy_n(data, n, append(src, dst, n));
  }

  /// Put every channel's unsent doubles on the wire: one FaultPlan draw,
  /// one frame and one send-span extension per channel, so a send span
  /// runs from the channel's first append to its transmission.
  void flush() {
    for (const auto& [src, dst] : unsent_) {
      Channel& ch = channels_[{src, dst}];
      obs::MsgTrace* const mt = tracing() ? trace_ : nullptr;
      const std::int64_t t0 = mt != nullptr ? mt->now() : 0;
      const std::int64_t r0 = faults_ != nullptr ? faults_->stats().retries : 0;
      double* const p = ch.data.data() + ch.flushed;
      const std::size_t n = ch.data.size() - ch.flushed;
      WireFaults wf;
      if (faults_ != nullptr) wf = faults_->transmit(src, dst, p, n);
      if (wire_ != nullptr) wire_->send(src, dst, p, n, wf);
      ch.flushed = ch.data.size();
      if (mt != nullptr) {
        const std::int64_t t1 = mt->now();
        mt->add_send(ch.span, src, t0, t1);
        const std::int64_t dr =
            faults_ != nullptr ? faults_->stats().retries - r0 : 0;
        if (dr > 0) mt->add_retries(ch.span, dr, t0, t1);
      }
    }
    unsent_.clear();
  }

  /// Sequential read of `n` doubles from the (src, dst) channel, handed to
  /// `consume` inside the receive span; reads must mirror the send order.
  /// Flushes pending sends first. A read past what the channel has pulled
  /// takes every flushed byte off the wire in one call.
  template <class Consume>
  void receive(int src, int dst, std::int64_t n, const Consume& consume) {
    flush();
    obs::MsgTrace* const mt = (n > 0 && tracing()) ? trace_ : nullptr;
    const std::int64_t t0 = mt != nullptr ? mt->now() : 0;
    auto it = channels_.find({src, dst});
    AB_REQUIRE(it != channels_.end(), "MessageBoard: no such channel");
    Channel& ch = it->second;
    const std::size_t end = ch.read + static_cast<std::size_t>(n);
    AB_REQUIRE(end <= ch.data.size(),
               "MessageBoard: read past end of channel");
    // The wire bytes are authoritative: overwrite the staging bytes with
    // what physically arrived before the caller reads them.
    if (end > ch.pulled) {
      if (wire_ != nullptr)
        wire_->recv(src, dst, ch.data.data() + ch.pulled,
                    ch.flushed - ch.pulled);
      ch.pulled = ch.flushed;
    }
    consume(ch.data.data() + ch.read);
    ch.read = end;
    if (mt != nullptr) mt->add_recv(ch.span, t0, mt->now());
  }
  /// receive() returning the doubles, valid until the channel's next
  /// append.
  const double* receive(int src, int dst, std::int64_t n) {
    const double* p = nullptr;
    receive(src, dst, n, [&p](const double* q) { p = q; });
    return p;
  }

  /// Credit this round's traffic to its endpoints: each non-empty (src,
  /// dst) channel counts one sent message for src and one received for dst,
  /// with the channel's wire bytes on both sides. `t` must be sized to the
  /// PE count; out-of-range endpoints are ignored.
  void add_per_pe_traffic(std::vector<PeLoad>& t) const {
    for (const auto& [key, ch] : channels_) {
      if (ch.data.empty()) continue;
      const std::int64_t bytes =
          static_cast<std::int64_t>(ch.data.size() * sizeof(double));
      const auto [src, dst] = key;
      if (src >= 0 && src < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(src)].add_sent(bytes);
      if (dst >= 0 && dst < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(dst)].add_recv(bytes);
    }
  }

  /// Non-empty channels this round (pair-aggregated message count).
  std::int64_t messages() const {
    std::int64_t n = 0;
    for (const auto& [key, ch] : channels_)
      if (!ch.data.empty()) ++n;
    return n;
  }
  /// Total wire bytes this round.
  std::int64_t bytes() const {
    std::int64_t n = 0;
    for (const auto& [key, ch] : channels_)
      n += static_cast<std::int64_t>(ch.data.size() * sizeof(double));
    return n;
  }

 private:
  struct Channel {
    std::vector<double> data;  ///< this round's doubles, in send order
    std::size_t flushed = 0;   ///< prefix handed to the wire
    std::size_t pulled = 0;    ///< prefix overwritten with the wire bytes
    std::size_t read = 0;      ///< prefix consumed by receive()
    obs::MsgSpanState span;
  };

  bool tracing() const { return trace_ != nullptr && trace_->active(); }
  void finish_span(Channel& ch, int dst) {
    if (tracing() && ch.span.sent) trace_->finish(ch.span, dst);
  }

  std::map<std::pair<int, int>, Channel> channels_;
  std::vector<std::pair<int, int>> unsent_;  ///< channels with bytes to flush
  FaultPlan* faults_ = nullptr;
  obs::MsgTrace* trace_ = nullptr;
  wire::WireHub* wire_ = nullptr;
};

template <int D>
class BufferedExchange {
 public:
  /// `owner` maps node id -> PE (see partition_blocks).
  BufferedExchange(const GhostExchanger<D>& exchanger,
                   std::vector<int> owner, int npes)
      : exchanger_(&exchanger), owner_(std::move(owner)), npes_(npes) {
    AB_REQUIRE(npes_ >= 1, "BufferedExchange: npes must be >= 1");
    rebuild();
  }

  /// Rebind to a new block-to-PE map (after a regrid + re-partition) and
  /// recompute the message layouts.
  void set_owner(std::vector<int> owner, int npes) {
    AB_REQUIRE(npes >= 1, "BufferedExchange: npes must be >= 1");
    owner_ = std::move(owner);
    npes_ = npes;
    rebuild();
  }

  /// Recompute message layouts after the exchanger was rebuilt or the
  /// partition changed.
  void rebuild() {
    local_phase_[0].clear();
    local_phase_[1].clear();
    local_bytes_.assign(static_cast<std::size_t>(npes_), 0);
    messages_.clear();
    std::map<std::pair<int, int>, int> index;  // (src_pe, dst_pe) -> msg
    const auto& ops = exchanger_->ops();
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
      const auto& op = ops[i];
      const int phase = (op.kind == GhostOpKind::Prolong) ? 1 : 0;
      const int ps = owner_at(op.src);
      const int pd = owner_at(op.dst);
      if (ps == pd) {
        local_phase_[phase].push_back(i);
        local_bytes_[static_cast<std::size_t>(ps)] +=
            exchanger_->op_payload_doubles(op) *
            static_cast<std::int64_t>(sizeof(double));
        continue;
      }
      const auto [it, fresh] =
          index.try_emplace({ps, pd}, static_cast<int>(messages_.size()));
      if (fresh) {
        messages_.emplace_back();
        messages_.back().src_pe = ps;
        messages_.back().dst_pe = pd;
      }
      Message& msg = messages_[static_cast<std::size_t>(it->second)];
      msg.phase_ops[phase].push_back(i);
      msg.phase_doubles[phase] += exchanger_->op_payload_doubles(op);
      msg.doubles += exchanger_->op_payload_doubles(op);
    }
  }

  /// Perform the exchange through a private board. Bit-identical to
  /// exchanger.fill(store).
  void fill(BlockStore<D>& store) {
    MessageBoard board;
    fill_on([&store](int) -> BlockStore<D>& { return store; }, board);
  }

  /// Rank-parallel form: `store_of(pe)` yields PE `pe`'s private store, and
  /// `board` carries the messages (one round per fill). Local ops apply
  /// entirely within the owner's store; every cross-PE op packs from the
  /// source PE's store straight into its pair's channel and unpacks into
  /// the destination PE's — the only data that crosses a rank boundary is
  /// message payload. Phase structure matters: all phase-1 traffic
  /// (copies/restrictions, which also fill the ghost slabs prolongation
  /// stencils may read) is delivered before any prolongation is evaluated
  /// on its sender. Each message is flushed as soon as it is packed, so
  /// its send span covers its own packing and transmission, and its
  /// receive span its unpacking.
  template <class StoreOf>
  void fill_on(const StoreOf& store_of, MessageBoard& board) {
    board.clear();
    for (int phase = 0; phase < 2; ++phase) {
      // Local ops (src and dst on the same PE by construction).
      for (int i : local_phase_[phase]) {
        const auto& op = exchanger_->ops()[i];
        exchanger_->apply(store_of(owner_at(op.src)), op);
      }
      // Pack and send every cross-PE message for this phase...
      for (const Message& msg : messages_) {
        const std::int64_t n = msg.phase_doubles[phase];
        if (n == 0) continue;
        double* cursor = board.append(msg.src_pe, msg.dst_pe, n);
        const BlockStore<D>& src_store = store_of(msg.src_pe);
        for (int i : msg.phase_ops[phase]) {
          const auto& op = exchanger_->ops()[i];
          exchanger_->pack_op(src_store, op, cursor);
          cursor += exchanger_->op_payload_doubles(op);
        }
        board.flush();
      }
      // ...then deliver (unpack). The strict pack-all/unpack-all order is
      // what a bulk-synchronous exchange round does.
      for (const Message& msg : messages_) {
        const std::int64_t n = msg.phase_doubles[phase];
        if (n == 0) continue;
        BlockStore<D>& dst_store = store_of(msg.dst_pe);
        board.receive(msg.src_pe, msg.dst_pe, n, [&](const double* cursor) {
          for (int i : msg.phase_ops[phase]) {
            const auto& op = exchanger_->ops()[i];
            exchanger_->unpack_op(dst_store, op, cursor);
            cursor += exchanger_->op_payload_doubles(op);
          }
        });
      }
    }
    // A message's round spans both phases; emit once per fill, in message
    // order — the granularity messages_per_fill/add_per_pe_traffic count.
    for (const Message& msg : messages_)
      board.flush_trace(msg.src_pe, msg.dst_pe);
  }

  /// Messages per fill under pair aggregation (both phases of a pair ride
  /// in that pair's channel; a pair with traffic counts once).
  std::int64_t messages_per_fill() const {
    return static_cast<std::int64_t>(messages_.size());
  }
  /// Total wire bytes per fill.
  std::int64_t bytes_per_fill() const {
    std::int64_t n = 0;
    for (const auto& msg : messages_)
      n += msg.doubles * static_cast<std::int64_t>(sizeof(double));
    return n;
  }

  /// Credit one fill's traffic to its endpoints (same aggregation as
  /// messages_per_fill/bytes_per_fill), and each PE its on-PE ghost copy
  /// bytes. `t` must be sized to the PE count.
  void add_per_pe_traffic(std::vector<PeLoad>& t) const {
    for (std::size_t p = 0; p < t.size() && p < local_bytes_.size(); ++p)
      t[p].local_bytes += local_bytes_[p];
    for (const auto& msg : messages_) {
      const std::int64_t bytes =
          msg.doubles * static_cast<std::int64_t>(sizeof(double));
      if (msg.src_pe >= 0 && msg.src_pe < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(msg.src_pe)].add_sent(bytes);
      if (msg.dst_pe >= 0 && msg.dst_pe < static_cast<int>(t.size()))
        t[static_cast<std::size_t>(msg.dst_pe)].add_recv(bytes);
    }
  }

 private:
  struct Message {
    int src_pe = -1;
    int dst_pe = -1;
    std::vector<int> phase_ops[2];
    std::int64_t phase_doubles[2] = {0, 0};
    std::int64_t doubles = 0;
  };

  int owner_at(int id) const {
    AB_REQUIRE(id >= 0 && id < static_cast<int>(owner_.size()) &&
                   owner_[id] >= 0 && owner_[id] < npes_,
               "BufferedExchange: block without a valid owner");
    return owner_[id];
  }

  const GhostExchanger<D>* exchanger_;
  std::vector<int> owner_;
  int npes_;
  std::vector<int> local_phase_[2];
  std::vector<std::int64_t> local_bytes_;  ///< per PE, one fill's local ops
  std::vector<Message> messages_;
};

}  // namespace ab
