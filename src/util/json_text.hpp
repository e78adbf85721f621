// JSON text writing shared by every JSON file the library emits (StepReport
// lines, Chrome traces, critical-path reports, the tuning cache): one
// string-escaping rule and one number format, so they all spell strings and
// numbers the same way.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace ab {

/// Append `s` as the inside of a JSON string: `"` and `\` backslash-escaped,
/// control bytes (below 0x20) as \u00XX, every other byte verbatim.
inline void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

/// Shortest decimal form that parses back to the same double: %.15g,
/// falling back to %.17g. Deterministic for identical inputs, so writing
/// parsed values back reproduces a file byte for byte. JSON has no
/// non-finite numbers ("%g" would print nan/inf and invalidate the whole
/// document), so those emit null — gauges fed from conservation drift can
/// legitimately go non-finite on blow-up.
inline void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v)
    std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

inline void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace ab
