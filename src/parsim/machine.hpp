// Cost model of a distributed-memory machine (Cray T3D class), and the one
// function that prices a bulk-synchronous step on it.
//
// Substitution note (DESIGN.md #2.1): we do not have a 512-processor T3D, so
// the parallel experiments execute the *actual* block decomposition and
// ghost-exchange plan under this cost model. The block-to-processor map and
// the message pattern are exact; only the per-unit costs (flop rate, message
// latency, link bandwidth) are modeled, with defaults calibrated to
// published T3D characteristics (150 MFLOPS peak / ~30-40 MFLOPS sustained
// per PE on real CFD kernels; ~100 MB/s links; tens-of-microsecond message
// latencies via PVM/shmem).
//
// Every priced number — Figures 6-7 and the ablations (simulate_step), the
// rank solver's per-step gauges (RankSolver) and the migration cost of
// ablation G — comes from price_pes() over a per-PE record, so they all
// describe one machine.
#pragma once

#include <cstdint>
#include <vector>

namespace ab {

struct MachineModel {
  /// Sustained floating-point rate per processing element (flops/s).
  double flops_per_sec = 36e6;
  /// Fixed cost per inter-PE message (s).
  double latency_sec = 25e-6;
  /// Inter-PE link bandwidth (bytes/s).
  double bytes_per_sec = 100e6;
  /// On-PE ghost copies (memcpy-class bandwidth, bytes/s).
  double local_bytes_per_sec = 320e6;

  /// A T3D-like default (matches the paper's 512-PE platform).
  static MachineModel cray_t3d() { return MachineModel{}; }

  /// A modern-cluster-like model (higher flop rate, relatively slower
  /// network per flop) for sensitivity studies.
  static MachineModel modern_cluster() {
    return MachineModel{5e9, 2e-6, 10e9, 8e9};
  }
};

/// One PE's share of a bulk-synchronous step, summed over the step's
/// exchange rounds: what it computed and what it moved. Messages are
/// pair-aggregated (one per (src, dst) pair per round), and the sender and
/// the receiver each count a message and its bytes.
struct PeLoad {
  std::uint64_t flops = 0;
  std::int64_t sent_messages = 0;
  std::int64_t recv_messages = 0;
  std::int64_t sent_bytes = 0;
  std::int64_t recv_bytes = 0;
  std::int64_t local_bytes = 0;  ///< on-PE ghost copies

  void add_sent(std::int64_t bytes) {
    ++sent_messages;
    sent_bytes += bytes;
  }
  void add_recv(std::int64_t bytes) {
    ++recv_messages;
    recv_bytes += bytes;
  }
};

/// A step priced on the machine model.
struct StepCost {
  std::vector<double> compute;  ///< per PE: flops / flop rate [s]
  std::vector<double> comm;     ///< per PE: messages, bytes, local copies [s]
  double t_step = 0.0;          ///< max over PEs of (compute + comm) [s]
  double t_serial = 0.0;        ///< one PE doing everything (incl. copies)
  double max_compute = 0.0;     ///< slowest PE's compute time [s]
  double max_comm = 0.0;        ///< slowest PE's communication time [s]
  double speedup = 0.0;         ///< t_serial / t_step
  double efficiency = 0.0;      ///< speedup / PE count
  double gflops = 0.0;          ///< total_flops / t_step / 1e9
  std::uint64_t total_flops = 0;
  std::int64_t remote_bytes = 0;  ///< bytes sent between PEs
  std::int64_t local_bytes = 0;   ///< bytes copied on a PE
  std::int64_t messages = 0;      ///< messages sent between PEs
};

/// Price a step from its per-PE record (one entry per PE; the PE count is
/// `pes.size()`). Each PE computes for flops / flop rate and communicates
/// for latency per message sent or received, plus its sent and received
/// bytes over the link bandwidth, plus its on-PE copies over the copy
/// bandwidth; the step takes as long as the slowest PE. The serial
/// reference is one PE doing all the flops, with every ghost byte a local
/// copy. The only code that reads MachineModel's rates.
StepCost price_pes(const std::vector<PeLoad>& pes, const MachineModel& m);

}  // namespace ab
