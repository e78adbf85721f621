// StepReport JSONL serialization.
#include "obs/report.hpp"

#include <cstring>

#include "util/json_text.hpp"

namespace ab::obs {

namespace {

template <class V, class AppendValue>
void append_object(std::string& out, const char* key,
                   const std::vector<std::pair<std::string, V>>& kv,
                   const AppendValue& append_value) {
  out += ",\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_escaped(out, k);
    out += "\":";
    append_value(out, v);
  }
  out += "}";
}

}  // namespace

std::string json_line(const StepReport& r) {
  std::string out;
  out.reserve(512);
  out += "{\"step\":";
  append_int(out, r.step);
  out += ",\"t\":";
  append_double(out, r.t);
  out += ",\"dt\":";
  append_double(out, r.dt);
  out += ",\"wall_s\":";
  append_double(out, r.wall_s);
  out += ",\"blocks\":";
  append_int(out, r.blocks);
  out += ",\"cells_updated\":";
  append_int(out, r.cells_updated);
  if (!r.layout.empty()) {
    out += ",\"layout\":\"";
    append_escaped(out, r.layout);
    out += "\"";
  }
  out += ",\"refined\":";
  append_int(out, r.refined);
  out += ",\"coarsened\":";
  append_int(out, r.coarsened);
  out += ",\"ghost_ops\":{\"copy\":";
  append_int(out, r.ghost_copy_ops);
  out += ",\"restrict\":";
  append_int(out, r.ghost_restrict_ops);
  out += ",\"prolong\":";
  append_int(out, r.ghost_prolong_ops);
  out += "}";
  append_object(out, "phases", r.phase_s, [](std::string& o, double v) {
    append_double(o, v);
  });
  append_object(out, "gauges", r.gauges, [](std::string& o, double v) {
    append_double(o, v);
  });
  append_object(out, "counters", r.counters,
                [](std::string& o, std::int64_t v) { append_int(o, v); });
  if (!r.per_rank.empty()) {
    out += ",\"per_rank\":[";
    bool first = true;
    for (const RankTrafficRecord& t : r.per_rank) {
      if (!first) out += ",";
      first = false;
      out += "{\"rank\":";
      append_int(out, t.rank);
      out += ",\"sent_messages\":";
      append_int(out, t.sent_messages);
      out += ",\"recv_messages\":";
      append_int(out, t.recv_messages);
      out += ",\"sent_bytes\":";
      append_int(out, t.sent_bytes);
      out += ",\"recv_bytes\":";
      append_int(out, t.recv_bytes);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

ReportWriter::ReportWriter(const std::string& path)
    : f_(std::fopen(path.c_str(), "w")) {}

ReportWriter::~ReportWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void ReportWriter::write(const StepReport& r) {
  if (f_ == nullptr) return;
  const std::string line = json_line(r);
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fputc('\n', f_);
  std::fflush(f_);
}

}  // namespace ab::obs
