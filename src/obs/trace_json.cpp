// Chrome trace_event exporter for obs::Tracer.
//
// Emits the JSON array form: one "X" (complete) event per recorded span,
// timestamps/durations in microseconds. Untagged spans keep the original
// layout (pid 0, tid = thread slot); rank-tagged spans (msg_trace /
// critical-path instrumentation) render on pid = rank + 1, giving every
// simulated rank its own process lane, with one "M" process_name metadata
// record per lane. Causally-tagged spans carry their span id, parent, and
// step in "args" so the happens-before DAG survives the export
// (tools/critical_path.py reconstructs it from exactly these fields). All
// name/category strings — including metadata names — pass through the JSON
// escaper. The format is documented in the Chromium trace_event spec and
// is read by chrome://tracing and Perfetto verbatim.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/json_text.hpp"

namespace ab::obs {

std::string chrome_trace_json(const Tracer& tracer) {
  const std::vector<TraceEvent> events = tracer.events();
  std::string out;
  out.reserve(events.size() * 128 + 64);
  out += "[";
  char buf[192];
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ",";
    first = false;
  };
  // One process_name metadata record per rank lane. Only emitted when a
  // rank-tagged event exists, so purely-untagged traces export exactly as
  // they always have (same event count, same pids).
  std::vector<int> ranks;
  for (const TraceEvent& e : events)
    if (e.rank >= 0) ranks.push_back(e.rank);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  for (int r : ranks) {
    sep();
    out += "\n{\"name\":\"";
    append_escaped(out, "process_name");
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":"
                  "\"rank %d\"}}",
                  r + 1, r);
    out += buf;
  }
  for (const TraceEvent& e : events) {
    sep();
    out += "\n{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_escaped(out, e.cat);
    const int pid = e.rank >= 0 ? e.rank + 1 : 0;
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                  "\"tid\":%d",
                  static_cast<double>(e.t0_ns) / 1e3,
                  static_cast<double>(e.t1_ns - e.t0_ns) / 1e3, pid, e.tid);
    out += buf;
    if (e.id != 0) {
      std::snprintf(
          buf, sizeof buf,
          ",\"args\":{\"id\":%llu,\"parent\":%llu,\"step\":%lld}",
          static_cast<unsigned long long>(e.id),
          static_cast<unsigned long long>(e.parent),
          static_cast<long long>(e.step));
      out += buf;
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json(tracer);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ab::obs
