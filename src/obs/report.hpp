// StepReport: one machine-readable record per solver step, written as JSON
// Lines (one object per line) so runs stream to disk and tail/jq/pandas all
// read them directly.
//
// The record carries the per-step phase wall times the PhaseScope
// accumulator measured, the work done (cells updated, blocks, adaptation
// events, ghost ops by kind), and point-in-time snapshots of the metrics
// registry's gauges and counters (counters are cumulative over the run;
// tools/trace_summary.py diffs them per step). The rank-parallel solver
// appends per-rank traffic records.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace ab::obs {

/// One simulated rank's traffic during a step (sender/receiver sides of the
/// pair-aggregated messages).
struct RankTrafficRecord {
  int rank = 0;
  std::int64_t sent_messages = 0;
  std::int64_t recv_messages = 0;
  std::int64_t sent_bytes = 0;
  std::int64_t recv_bytes = 0;
};

struct StepReport {
  std::int64_t step = 0;   ///< 0-based step index within the run
  double t = 0.0;          ///< solver time after the step
  double dt = 0.0;
  double wall_s = 0.0;     ///< measured wall time of step() itself
  std::int64_t blocks = 0;
  std::int64_t cells_updated = 0;  ///< interior cells x kernel invocations
  /// Block-layout shorthand ("8x8x8", "12x12x12+pad1", "32x32x32/sub16").
  /// Serialized only when non-empty, so records from solvers that predate
  /// the field are byte-identical to before.
  std::string layout;
  int refined = 0;         ///< refine events since the previous record
  int coarsened = 0;
  std::int64_t ghost_copy_ops = 0;      ///< same-level copies this step
  std::int64_t ghost_restrict_ops = 0;  ///< fine-to-coarse averages
  std::int64_t ghost_prolong_ops = 0;   ///< coarse-to-fine interpolations
  /// Phase wall times [s], in first-seen order. In-step phases
  /// (ghost_exchange, stage_update, reflux, epilogue) sum to ~wall_s at
  /// every thread count; between-step phases (compute_dt, regrid) ride in
  /// the next step's record.
  std::vector<std::pair<std::string, double>> phase_s;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<RankTrafficRecord> per_rank;  ///< rank-parallel runs only
};

/// Serialize one report as a single JSON object line (no trailing newline).
/// Key order is fixed; doubles print with the shortest round-tripping
/// precision so records are stable across runs of equal inputs.
std::string json_line(const StepReport& r);

/// Append-only JSONL sink; each write() emits one line and flushes.
class ReportWriter {
 public:
  explicit ReportWriter(const std::string& path);
  ~ReportWriter();
  ReportWriter(const ReportWriter&) = delete;
  ReportWriter& operator=(const ReportWriter&) = delete;

  bool ok() const { return f_ != nullptr; }
  void write(const StepReport& r);

 private:
  std::FILE* f_ = nullptr;
};

}  // namespace ab::obs
