// Tuning-cache serialization: strict single-purpose JSON in, atomic
// shortest-round-trip JSON out.
#include "tune/cache.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "physics/lanes.hpp"
#include "util/json_text.hpp"

namespace ab::tune {

namespace {

/// Minimal strict parser for exactly the subset to_json emits: one object
/// of string/number members plus one array of flat objects. Any deviation
/// (trailing garbage, truncation, wrong types) fails the whole parse.
class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  bool parse(TuneCache& out) {
    if (!expect('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first && !expect(',')) return false;
      first = false;
      std::string key;
      if (!parse_string(key) || !expect(':')) return false;
      if (key == "format") {
        double v;
        if (!parse_number(v)) return false;
        out.format = static_cast<int>(v);
      } else if (key == "host_key") {
        if (!parse_string(out.host_key)) return false;
      } else if (key == "table") {
        if (!parse_table(out.table)) return false;
      } else {
        return false;  // unknown member: not our format
      }
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool parse_table(std::vector<ProbeResult>& table) {
    if (!expect('[')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      if (!first && !expect(',')) return false;
      first = false;
      ProbeResult r;
      if (!parse_entry(r)) return false;
      table.push_back(r);
    }
  }

  bool parse_entry(ProbeResult& r) {
    if (!expect('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      if (!first && !expect(',')) return false;
      first = false;
      std::string key;
      double v;
      if (!parse_string(key) || !expect(':') || !parse_number(v)) return false;
      if (key == "m") {
        r.cand.m = static_cast<int>(v);
      } else if (key == "pad0") {
        r.cand.pad0 = static_cast<int>(v);
      } else if (key == "sub_block") {
        r.cand.sub_block = static_cast<int>(v);
      } else if (key == "ns_per_cell") {
        r.ns_per_cell = v;
      } else if (key == "blocks") {
        r.blocks = static_cast<int>(v);
      } else if (key == "cells") {
        r.cells = static_cast<long long>(v);
      } else if (key == "reps") {
        r.reps = static_cast<int>(v);
      } else {
        return false;
      }
    }
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (peek() != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        if (e == '"' || e == '\\' || e == '/') {
          out.push_back(e);
        } else if (e == 'u') {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          if (code > 0x7f) return false;  // fingerprints are ASCII
          out.push_back(static_cast<char>(code));
        } else {
          return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parse_number(double& out) {
    skip_ws();
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool expect(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string host_fingerprint(int dim, int nvar, int ghost) {
  char host[256] = {0};
  if (::gethostname(host, sizeof host - 1) != 0)
    std::strcpy(host, "unknown-host");
  std::ostringstream os;
  os << host << "|cxx:" <<
#if defined(__VERSION__)
      __VERSION__
#else
      "unknown"
#endif
     // The ISA the probed kernel ran in (its run-time lane dispatch), not
     // the one this file was compiled for.
     << "|isa:" << lanes::isa() << "|d:" << dim << "|nvar:" << nvar
     << "|g:" << ghost;
  return os.str();
}

std::string to_json(const TuneCache& cache) {
  std::string out;
  out.reserve(256 + 96 * cache.table.size());
  out += "{\"format\":";
  append_int(out, cache.format);
  out += ",\"host_key\":\"";
  append_escaped(out, cache.host_key);
  out += "\",\"table\":[";
  bool first = true;
  for (const ProbeResult& r : cache.table) {
    if (!first) out += ",";
    first = false;
    out += "{\"m\":";
    append_int(out, r.cand.m);
    out += ",\"pad0\":";
    append_int(out, r.cand.pad0);
    out += ",\"sub_block\":";
    append_int(out, r.cand.sub_block);
    out += ",\"ns_per_cell\":";
    append_double(out, r.ns_per_cell);
    out += ",\"blocks\":";
    append_int(out, r.blocks);
    out += ",\"cells\":";
    append_int(out, r.cells);
    out += ",\"reps\":";
    append_int(out, r.reps);
    out += "}";
  }
  out += "]}";
  return out;
}

std::optional<TuneCache> parse_json(const std::string& text) {
  TuneCache cache;
  Parser p(text);
  if (!p.parse(cache)) return std::nullopt;
  if (cache.format != 1) return std::nullopt;
  for (const ProbeResult& r : cache.table)
    if (r.cand.m <= 0 || r.cand.pad0 < 0 || r.cand.sub_block < 0 ||
        !(r.ns_per_cell > 0.0))
      return std::nullopt;
  return cache;
}

bool save_cache(const std::string& path, const TuneCache& cache) {
  const std::string bytes = to_json(cache);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good()) return false;
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.put('\n');
    os.flush();
    if (!os.good()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<TuneCache> load_cache(const std::string& path,
                                    const std::string& expect_host_key) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  std::string text = ss.str();
  // Tolerate exactly the trailing newline save_cache writes.
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  std::optional<TuneCache> cache = parse_json(text);
  if (!cache) return std::nullopt;
  if (!expect_host_key.empty() && cache->host_key != expect_host_key)
    return std::nullopt;
  return cache;
}

}  // namespace ab::tune
