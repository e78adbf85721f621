// Earliest-start reconstruction of the per-step happens-before DAG.
// See critical_path.hpp for the model.
#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

#include "util/json_text.hpp"

namespace ab::obs {

namespace {

struct Node {
  const TraceEvent* ev;
  double dur_s;
  double start = 0.0;
  double finish = 0.0;
  int prev = -1;    ///< previous node on the same rank (-1 = first)
  int parent = -1;  ///< cross-rank dependency (send node of a recv)
};

StepCriticalPath analyze_step(std::int64_t step,
                              std::vector<const TraceEvent*>& evs) {
  StepCriticalPath out;
  out.step = step;
  // Global t0 order is a topological order of the DAG: within a rank it is
  // program order, and a receive is always recorded after its send (the
  // ranks are simulated serially).
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->t0_ns < b->t0_ns;
                   });
  std::vector<Node> nodes;
  nodes.reserve(evs.size());
  std::unordered_map<std::uint64_t, int> by_id;  // span id -> node index
  std::unordered_map<int, int> last_on_rank;     // rank -> node index
  for (const TraceEvent* e : evs) {
    Node n;
    n.ev = e;
    n.dur_s = static_cast<double>(e->t1_ns - e->t0_ns) * 1e-9;
    const int idx = static_cast<int>(nodes.size());
    auto it = last_on_rank.find(e->rank);
    if (it != last_on_rank.end()) n.prev = it->second;
    last_on_rank[e->rank] = idx;
    if (std::strcmp(e->cat, "recv") == 0 && e->parent != 0) {
      auto pit = by_id.find(e->parent);
      if (pit != by_id.end()) n.parent = pit->second;
    }
    if (e->id != 0) by_id.emplace(e->id, idx);
    nodes.push_back(n);
  }
  // Earliest-start schedule (nodes are already topologically ordered).
  int sink = -1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node& n = nodes[i];
    double ready = 0.0;
    if (n.prev >= 0) ready = nodes[static_cast<std::size_t>(n.prev)].finish;
    if (n.parent >= 0)
      ready = std::max(ready, nodes[static_cast<std::size_t>(n.parent)].finish);
    n.start = ready;
    n.finish = ready + n.dur_s;
    if (sink < 0 || n.finish > nodes[static_cast<std::size_t>(sink)].finish)
      sink = static_cast<int>(i);
  }
  if (sink < 0) return out;
  out.makespan_s = nodes[static_cast<std::size_t>(sink)].finish;
  // Per-rank decomposition. busy = span durations; wait = gaps inside the
  // rank's schedule (blocked on cross-rank deps); idle = after its last
  // span until the makespan. The three sum to the makespan per rank.
  std::map<int, RankBreakdown> ranks;
  for (const Node& n : nodes) {
    RankBreakdown& r = ranks[n.ev->rank];
    r.rank = n.ev->rank;
    r.spans += 1;
    r.busy_s += n.dur_s;
  }
  for (const auto& [rank, idx] : last_on_rank) {
    RankBreakdown& r = ranks[rank];
    const double fin = nodes[static_cast<std::size_t>(idx)].finish;
    r.wait_s = fin - r.busy_s;
    r.idle_s = out.makespan_s - fin;
  }
  double busy_sum = 0.0, busy_max = 0.0;
  for (auto& [rank, r] : ranks) {
    if (out.makespan_s > 0.0) {
      r.busy_frac = r.busy_s / out.makespan_s;
      r.wait_frac = r.wait_s / out.makespan_s;
      r.idle_frac = r.idle_s / out.makespan_s;
    }
    busy_sum += r.busy_s;
    busy_max = std::max(busy_max, r.busy_s);
    out.ranks.push_back(r);
  }
  const double busy_mean = busy_sum / static_cast<double>(ranks.size());
  if (busy_mean > 0.0) out.straggler = busy_max / busy_mean;
  // Backtrack the bounding chain from the sink: at each node the binding
  // predecessor is the one that finished last (it set the start time).
  std::vector<int> chain;
  for (int i = sink; i >= 0;) {
    chain.push_back(i);
    const Node& n = nodes[static_cast<std::size_t>(i)];
    int next = -1;
    double best = -1.0;
    for (int p : {n.prev, n.parent}) {
      if (p < 0) continue;
      const double f = nodes[static_cast<std::size_t>(p)].finish;
      if (f > best) {
        best = f;
        next = p;
      }
    }
    // A predecessor that finished before this node became ready through
    // the other edge is not binding; but with start == max(pred finishes),
    // the max pred *is* the binding one unless start is 0 (chain root).
    if (next < 0 || n.start == 0.0) break;
    i = next;
  }
  std::reverse(chain.begin(), chain.end());
  for (int i : chain) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    out.chain.push_back(
        CriticalHop{n.ev->name, n.ev->cat, n.ev->rank, n.dur_s});
    out.critical_s += n.dur_s;
  }
  return out;
}

}  // namespace

CriticalPathReport analyze_critical_path(
    const std::vector<TraceEvent>& events) {
  // Participants: causally-tagged spans with a rank and step. Retransmit
  // spans (cat "fault") overlap their send's window — children, not
  // schedulable work of their own.
  std::map<std::int64_t, std::vector<const TraceEvent*>> by_step;
  for (const TraceEvent& e : events) {
    if (e.rank < 0 || e.step < 0 || e.id == 0) continue;
    if (std::strcmp(e.cat, "fault") == 0) continue;
    by_step[e.step].push_back(&e);
  }
  CriticalPathReport report;
  report.steps.reserve(by_step.size());
  for (auto& [step, evs] : by_step)
    report.steps.push_back(analyze_step(step, evs));
  return report;
}

std::string critical_path_json(const CriticalPathReport& report) {
  std::string out = "{\"schema\":\"ab.critical_path.v1\",\"steps\":[";
  char buf[256];
  bool first_step = true;
  for (const StepCriticalPath& s : report.steps) {
    if (!first_step) out += ",";
    first_step = false;
    std::snprintf(buf, sizeof buf,
                  "\n{\"step\":%lld,\"makespan_s\":%.9g,\"critical_s\":%.9g,"
                  "\"straggler\":%.9g,\"critical_path\":[",
                  static_cast<long long>(s.step), s.makespan_s, s.critical_s,
                  s.straggler);
    out += buf;
    bool first = true;
    for (const CriticalHop& h : s.chain) {
      if (!first) out += ",";
      first = false;
      out += "{\"rank\":";
      std::snprintf(buf, sizeof buf, "%d,\"name\":\"", h.rank);
      out += buf;
      append_escaped(out, h.name);
      out += "\",\"cat\":\"";
      append_escaped(out, h.cat);
      std::snprintf(buf, sizeof buf, "\",\"dur_s\":%.9g}", h.dur_s);
      out += buf;
    }
    out += "],\"ranks\":[";
    first = true;
    for (const RankBreakdown& r : s.ranks) {
      if (!first) out += ",";
      first = false;
      std::snprintf(buf, sizeof buf,
                    "{\"rank\":%d,\"spans\":%lld,\"busy_s\":%.9g,"
                    "\"wait_s\":%.9g,\"idle_s\":%.9g,\"busy_frac\":%.9g,"
                    "\"wait_frac\":%.9g,\"idle_frac\":%.9g}",
                    r.rank, static_cast<long long>(r.spans), r.busy_s,
                    r.wait_s, r.idle_s, r.busy_frac, r.wait_frac,
                    r.idle_frac);
      out += buf;
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

bool write_critical_path_json(const CriticalPathReport& report,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = critical_path_json(report);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ab::obs
