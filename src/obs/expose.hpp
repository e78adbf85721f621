// Pull-based metrics exposition: Prometheus-style text snapshots, either
// dumped to a file on demand or served over a loopback TCP socket.
//
// Long runs (and the roadmap's service layer) need to be scraped without
// touching the per-step JSONL path: prometheus_text() renders a
// MetricsSnapshot in the text exposition format (metric names sanitized —
// dots become underscores and an "ab_" prefix is applied, so
// "rank.ghost_bytes" exposes as ab_rank_ghost_bytes), dump_metrics()
// writes it atomically (tmp + rename, so a scraper never reads a torn
// file), and MetricsServer answers every HTTP GET on 127.0.0.1:<port>
// with a fresh snapshot from a background thread.
//
// Everything here is pull-only and allocation-at-snapshot: nothing hooks
// the solver hot path, so the zero-cost-off telemetry contract is
// untouched. No dependencies beyond POSIX sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace ab::obs {

/// Render a snapshot in the Prometheus text exposition format (v0.0.4):
/// HELP-less "# TYPE" headers, counters suffixed _total, histograms as
/// cumulative _bucket{le=...} series plus _sum and _count.
std::string prometheus_text(const MetricsSnapshot& snap);

/// Atomically write prometheus_text(registry.snapshot()) to `path`
/// (write_file_atomic). Returns false on I/O failure.
bool dump_metrics(MetricsRegistry& registry, const std::string& path);

/// Minimal loopback snapshot server: one background thread, one client at
/// a time, answers any request with 200 text/plain + prometheus_text of a
/// fresh snapshot. Intended for scrapes and `curl` spot checks, not as a
/// general HTTP server.
class MetricsServer {
 public:
  /// Serve `registry` snapshots on 127.0.0.1:`port` (0 = ephemeral; the
  /// bound port is available from port()). The registry must outlive the
  /// server.
  MetricsServer(MetricsRegistry& registry, std::uint16_t port = 0);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// False if the listening socket could not be bound.
  bool ok() const { return fd_ >= 0; }
  /// Why ok() is false: "bind 127.0.0.1:9090: Address already in use".
  /// Empty while ok(). Callers given an explicit port should treat a bind
  /// failure as a hard error and surface this text — a silently missing
  /// scrape endpoint looks exactly like a healthy run.
  const std::string& error() const { return error_; }
  /// The bound port (resolved when constructed with port 0).
  std::uint16_t port() const { return port_; }
  /// Stop the serving thread and close the socket (idempotent; the
  /// destructor calls it).
  void stop();

 private:
  void serve();

  MetricsRegistry& registry_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace ab::obs
