// Cross-rank causal message tracing: the span context every message
// carries and the hook the parsim message layer calls to emit
// parent-linked send/receive spans.
//
// Every MessageBoard channel (one rank pair of one exchange round) is
// stamped at send time with a compact SpanContext — trace id, the send
// span's id (which the matching receive joins as its parent), sending
// rank, step, and phase — and joined at receive time. The context
// travels OUT OF BAND next to the payload: it is never mixed into the
// double-valued wire buffer, so message CRCs, fault-injection RNG draws,
// and the bitwise payload contract are unchanged whether tracing is on or
// off. The documented byte layout below is what a real wire transport
// would ship alongside each message (and what the codec tests pin down).
//
// Span granularity matches the PeLoad accounting exactly: one send
// span and one receive span per pair-aggregated message per exchange
// round (a ghost-fill channel that packs in both fill phases, or a
// channel that accumulates several send() calls, still counts — and
// traces — once). That makes "per-rank span counts equal the
// per-rank traffic counters" an exact conservation law, asserted by
// tests/parsim/span_conservation_test.cpp.
//
// Zero-cost-off: a MsgTrace bound to no tracer (or a disabled one) makes
// every hook a pointer/flag test — no clock reads, no span ids, no
// allocation — and the transports skip even that when no MsgTrace is
// attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "obs/trace.hpp"

namespace ab::obs {

/// Which exchange round a message belongs to. Rides the wire as one byte;
/// msg_phase_name maps it back to the static span-name literal.
enum class MsgPhase : std::uint8_t {
  Ghost = 0,      ///< BufferedExchange ghost fill
  Flux = 1,       ///< flux-register correction round
  Gather = 2,     ///< coarsen gather at regrid
  Migrate = 3,    ///< block migration after re-partitioning
  TopoDelta = 4,  ///< distributed-metadata topology deltas
  Other = 5,
};

inline const char* msg_phase_name(MsgPhase p) {
  switch (p) {
    case MsgPhase::Ghost:
      return "ghost_exchange";
    case MsgPhase::Flux:
      return "flux_correction";
    case MsgPhase::Gather:
      return "coarsen_gather";
    case MsgPhase::Migrate:
      return "migration";
    case MsgPhase::TopoDelta:
      return "topo_delta";
    default:
      return "message";
  }
}

/// Encoded SpanContext size: the out-of-band bytes a wire transport ships
/// next to each message payload.
constexpr std::size_t kSpanContextBytes = 29;

/// The compact per-message span context. Wire layout (little-endian,
/// kSpanContextBytes total):
///   [0..7]   trace_id  u64   one id per traced run
///   [8..15]  span_id   u64   the send span; the receive's parent
///   [16..19] rank      i32   sending rank
///   [20..27] step      i64   step index at send (-1 between steps)
///   [28]     phase     u8    MsgPhase
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::int32_t rank = -1;
  std::int64_t step = -1;
  MsgPhase phase = MsgPhase::Other;

  bool operator==(const SpanContext& o) const {
    return trace_id == o.trace_id && span_id == o.span_id && rank == o.rank &&
           step == o.step && phase == o.phase;
  }
};

inline void encode_span_context(const SpanContext& c,
                                std::uint8_t out[kSpanContextBytes]) {
  auto put = [&out](std::size_t at, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      out[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
  };
  put(0, c.trace_id, 8);
  put(8, c.span_id, 8);
  put(16, static_cast<std::uint32_t>(c.rank), 4);
  put(20, static_cast<std::uint64_t>(c.step), 8);
  out[28] = static_cast<std::uint8_t>(c.phase);
}

inline SpanContext decode_span_context(
    const std::uint8_t in[kSpanContextBytes]) {
  auto get = [&in](std::size_t at, int n) {
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i)
      v = (v << 8) | in[at + static_cast<std::size_t>(i)];
    return v;
  };
  SpanContext c;
  c.trace_id = get(0, 8);
  c.span_id = get(8, 8);
  c.rank = static_cast<std::int32_t>(static_cast<std::uint32_t>(get(16, 4)));
  c.step = static_cast<std::int64_t>(get(20, 8));
  c.phase = static_cast<MsgPhase>(in[28]);
  return c;
}

/// Per-message (or per-channel) trace state a transport keeps alongside
/// its payload buffer: the encoded send context plus the send/receive
/// windows accumulated over the round. Plain data — the MsgTrace hook owns
/// all the logic.
struct MsgSpanState {
  std::uint8_t ctx[kSpanContextBytes] = {};
  bool sent = false;
  bool received = false;
  std::uint64_t send_parent = 0;  ///< enclosing span at the send site
  std::int64_t send_t0 = 0, send_t1 = 0;
  std::int64_t recv_t0 = 0, recv_t1 = 0;
  std::int64_t retrans_t0 = 0, retrans_t1 = 0;
  std::int64_t retries = 0;  ///< fault retransmissions during the send
};

/// The hook transports call. The owning solver binds it to a tracer,
/// stamps the ambient context (step/phase/parent span) at phase
/// boundaries, and the transport reports send/receive work per message;
/// finish() emits the spans once the message's round completes.
class MsgTrace {
 public:
  MsgTrace() = default;

  /// Bind to `tracer` (nullptr unbinds) and start a fresh trace id.
  void bind(Tracer* tracer) {
    tracer_ = tracer;
    trace_id_ = next_trace_id().fetch_add(1, std::memory_order_relaxed);
  }

  bool active() const { return tracer_ != nullptr && tracer_->enabled(); }
  Tracer* tracer() const { return tracer_; }
  std::uint64_t trace_id() const { return trace_id_; }
  std::int64_t now() const { return tracer_->now_ns(); }

  /// Stamp the ambient context subsequent sends inherit. Called by the
  /// solver at phase boundaries; `parent_span` is the enclosing phase
  /// span (0 = none).
  void set_context(std::int64_t step, MsgPhase phase,
                   std::uint64_t parent_span) {
    step_ = step;
    phase_ = phase;
    parent_ = parent_span;
  }

  /// Report send-side work (pack + transmit) on a message from
  /// `src_rank` over [t0, t1]. The first call of a round assigns the send
  /// span id and stamps the wire context; later calls extend the window
  /// (pair aggregation: two fill phases, one message).
  void add_send(MsgSpanState& st, int src_rank, std::int64_t t0,
                std::int64_t t1) {
    if (!st.sent) {
      SpanContext c;
      c.trace_id = trace_id_;
      c.span_id = tracer_->new_span_id();
      c.rank = src_rank;
      c.step = step_;
      c.phase = phase_;
      encode_span_context(c, st.ctx);
      st.send_parent = parent_;
      st.send_t0 = t0;
      st.sent = true;
    }
    st.send_t1 = t1;
  }

  /// Report receive-side work (unpack) over [t0, t1].
  void add_recv(MsgSpanState& st, std::int64_t t0, std::int64_t t1) {
    if (!st.received) {
      st.recv_t0 = t0;
      st.received = true;
    }
    st.recv_t1 = t1;
  }

  /// Report `n` CRC-triggered retransmissions that happened inside the
  /// send window [t0, t1] (the FaultPlan recovers in place; tracing only
  /// observes the retry count delta).
  void add_retries(MsgSpanState& st, std::int64_t n, std::int64_t t0,
                   std::int64_t t1) {
    if (st.retries == 0) st.retrans_t0 = t0;
    st.retries += n;
    st.retrans_t1 = t1;
  }

  /// The message's round is complete: emit the send span (parented to the
  /// phase span at the send site), the receive span on `dst_rank`
  /// (parented to the send span — the cross-rank happens-before edge), a
  /// retransmit span when the lossy wire forced retries, and reset `st`
  /// for the next round.
  void finish(MsgSpanState& st, int dst_rank) {
    if (!st.sent) {
      st = MsgSpanState{};
      return;
    }
    const SpanContext c = decode_span_context(st.ctx);
    const char* name = msg_phase_name(c.phase);
    tracer_->record(TraceEvent{name, "send", st.send_t0, st.send_t1, 0,
                               c.span_id, st.send_parent, c.rank, c.step});
    if (st.retries > 0)
      tracer_->record(TraceEvent{"retransmit", "fault", st.retrans_t0,
                                 st.retrans_t1, 0, tracer_->new_span_id(),
                                 c.span_id, c.rank, c.step});
    if (st.received)
      tracer_->record(TraceEvent{name, "recv", st.recv_t0, st.recv_t1, 0,
                                 tracer_->new_span_id(), c.span_id, dst_rank,
                                 c.step});
    st = MsgSpanState{};
  }

 private:
  static std::atomic<std::uint64_t>& next_trace_id() {
    static std::atomic<std::uint64_t> id{1};
    return id;
  }

  Tracer* tracer_ = nullptr;
  std::uint64_t trace_id_ = 0;
  std::int64_t step_ = -1;
  MsgPhase phase_ = MsgPhase::Other;
  std::uint64_t parent_ = 0;
};

}  // namespace ab::obs
