// The shared JSON text writer (src/util/json_text.hpp): string escaping and
// number formatting for every JSON file the library writes, pinned case by
// case.
#include "util/json_text.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace ab {
namespace {

TEST(JsonText, EscapesQuotesBackslashesAndControlBytes) {
  struct Case {
    std::string in;
    std::string out;
  };
  const Case cases[] = {
      {"", ""},
      {"plain_name", "plain_name"},
      {"say \"hi\"", "say \\\"hi\\\""},
      {"a\\b", "a\\\\b"},
      {"\\\"", "\\\\\\\""},
      {"line\nbreak", "line\\u000abreak"},
      {"tab\there", "tab\\u0009here"},
      {"\r", "\\u000d"},
      {std::string("nul\0byte", 8), "nul\\u0000byte"},
      {"\x01\x1f", "\\u0001\\u001f"},
      {" ~\x7f", " ~\x7f"},  // 0x20 and up pass through
      {"caf\xc3\xa9", "caf\xc3\xa9"},  // UTF-8 bytes verbatim
      {"/slash", "/slash"},
  };
  for (const Case& c : cases) {
    std::string out = "[";
    append_escaped(out, c.in);
    EXPECT_EQ(out, "[" + c.out) << "input " << ::testing::PrintToString(c.in);
  }
}

TEST(JsonText, DoublesRoundTripShortestAndNonFiniteIsNull) {
  struct Case {
    double in;
    const char* out;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Case cases[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {-2.5, "-2.5"},
      {0.1, "0.1"},  // 15 digits suffice
      {1.0 / 3.0, "0.33333333333333331"},  // needs 17
      {0.1 + 0.2, "0.30000000000000004"},
      {1e300, "1e+300"},
      {123456789012345.0, "123456789012345"},
      {9007199254740993.0, "9007199254740992"},  // 2^53 + 1 rounds
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
      {std::numeric_limits<double>::denorm_min(), "4.94065645841247e-324"},
      {std::nan(""), "null"},
      {inf, "null"},
      {-inf, "null"},
  };
  for (const Case& c : cases) {
    std::string out;
    append_double(out, c.in);
    EXPECT_EQ(out, c.out) << "value " << c.in;
    if (std::isfinite(c.in)) {
      const double back = std::strtod(out.c_str(), nullptr);
      EXPECT_EQ(back, c.in);
      EXPECT_EQ(std::signbit(back), std::signbit(c.in));
    }
  }
}

TEST(JsonText, IntegersPrintExactly) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  struct Case {
    std::int64_t in;
    const char* out;
  };
  const Case cases[] = {
      {0, "0"},
      {-1, "-1"},
      {42, "42"},
      {lo, "-9223372036854775808"},
      {hi, "9223372036854775807"},
  };
  for (const Case& c : cases) {
    std::string out = "x";
    append_int(out, c.in);
    EXPECT_EQ(out, std::string("x") + c.out);
  }
}

}  // namespace
}  // namespace ab
