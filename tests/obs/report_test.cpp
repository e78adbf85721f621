// StepReport JSONL: golden schema test (key order is part of the format),
// double round-tripping, escaping, and the file writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "support/mini_json.hpp"
#include "support/temp_path.hpp"

namespace ab::obs {
namespace {

StepReport sample_report() {
  StepReport r;
  r.step = 3;
  r.t = 0.125;
  r.dt = 0.0625;
  r.wall_s = 0.5;
  r.blocks = 7;
  r.cells_updated = 448;
  r.refined = 2;
  r.coarsened = 1;
  r.ghost_copy_ops = 10;
  r.ghost_restrict_ops = 4;
  r.ghost_prolong_ops = 5;
  r.phase_s = {{"ghost_exchange", 0.25}, {"stage_update", 0.25}};
  r.gauges = {{"solver.dt", 0.0625}};
  r.counters = {{"solver.steps", 4}};
  RankTrafficRecord t0;
  t0.rank = 0;
  t0.sent_messages = 1;
  t0.recv_messages = 2;
  t0.sent_bytes = 800;
  t0.recv_bytes = 1600;
  RankTrafficRecord t1;
  t1.rank = 1;
  t1.sent_messages = 2;
  t1.recv_messages = 1;
  t1.sent_bytes = 1600;
  t1.recv_bytes = 800;
  r.per_rank = {t0, t1};
  return r;
}

// The schema is an interface consumed by tools/trace_summary.py and any
// jq/pandas pipeline a user builds: byte-exact golden, fixed key order.
TEST(JsonLine, GoldenRecord) {
  const std::string expected =
      "{\"step\":3,\"t\":0.125,\"dt\":0.0625,\"wall_s\":0.5,\"blocks\":7,"
      "\"cells_updated\":448,\"refined\":2,\"coarsened\":1,"
      "\"ghost_ops\":{\"copy\":10,\"restrict\":4,\"prolong\":5},"
      "\"phases\":{\"ghost_exchange\":0.25,\"stage_update\":0.25},"
      "\"gauges\":{\"solver.dt\":0.0625},"
      "\"counters\":{\"solver.steps\":4},"
      "\"per_rank\":[{\"rank\":0,\"sent_messages\":1,\"recv_messages\":2,"
      "\"sent_bytes\":800,\"recv_bytes\":1600},"
      "{\"rank\":1,\"sent_messages\":2,\"recv_messages\":1,"
      "\"sent_bytes\":1600,\"recv_bytes\":800}]}";
  EXPECT_EQ(json_line(sample_report()), expected);
}

// The layout field is opt-in: empty (legacy producers) keeps records
// byte-identical to the pre-field format; non-empty slots in after
// cells_updated, escaped like every other string.
TEST(JsonLine, LayoutFieldOnlyWhenSet) {
  StepReport r = sample_report();
  ASSERT_EQ(json_line(r).find("\"layout\""), std::string::npos);
  r.layout = "12x12x12+pad1";
  const std::string line = json_line(r);
  EXPECT_NE(line.find("\"cells_updated\":448,\"layout\":\"12x12x12+pad1\","
                      "\"refined\":2"),
            std::string::npos)
      << line;
  testjson::Value doc;
  ASSERT_TRUE(testjson::parse(line, doc)) << line;
  EXPECT_EQ(doc.find("layout")->str, "12x12x12+pad1");
}

TEST(JsonLine, EmptyPerRankOmitsKey) {
  StepReport r = sample_report();
  r.per_rank.clear();
  const std::string line = json_line(r);
  EXPECT_EQ(line.find("per_rank"), std::string::npos);
  testjson::Value doc;
  ASSERT_TRUE(testjson::parse(line, doc)) << line;
}

TEST(JsonLine, ParsesBackWithFixedKeyOrder) {
  testjson::Value doc;
  ASSERT_TRUE(testjson::parse(json_line(sample_report()), doc));
  ASSERT_TRUE(doc.is_object());
  const std::vector<std::string> expected_keys = {
      "step",     "t",        "dt",        "wall_s",   "blocks",
      "cells_updated", "refined", "coarsened", "ghost_ops", "phases",
      "gauges",   "counters", "per_rank"};
  EXPECT_EQ(doc.keys(), expected_keys);
  EXPECT_EQ(doc.find("step")->number, 3.0);
  EXPECT_EQ(doc.find("ghost_ops")->find("restrict")->number, 4.0);
  ASSERT_EQ(doc.find("per_rank")->arr.size(), 2u);
  EXPECT_EQ(doc.find("per_rank")->arr[1].find("sent_bytes")->number, 1600.0);
}

TEST(JsonLine, DoublesRoundTripExactly) {
  StepReport r;
  // Values with no short exact decimal form: the emitter must print
  // enough digits that strtod recovers the same bits.
  r.t = 0.1 + 0.2;
  r.dt = 1.0 / 3.0;
  r.wall_s = 3.14159265358979323846;
  r.gauges = {{"tiny", 4.9406564584124654e-324}, {"neg", -0.0625}};
  testjson::Value doc;
  ASSERT_TRUE(testjson::parse(json_line(r), doc));
  EXPECT_EQ(doc.find("t")->number, r.t);
  EXPECT_EQ(doc.find("dt")->number, r.dt);
  EXPECT_EQ(doc.find("wall_s")->number, r.wall_s);
  EXPECT_EQ(doc.find("gauges")->find("tiny")->number, r.gauges[0].second);
  EXPECT_EQ(doc.find("gauges")->find("neg")->number, r.gauges[1].second);
}

TEST(JsonLine, NonFiniteDoublesEmitNull) {
  // JSON has no nan/inf; "%g" would print them bare and invalidate the
  // whole line for every downstream consumer. They must come out as null.
  StepReport r = sample_report();
  r.dt = std::numeric_limits<double>::quiet_NaN();
  r.gauges = {{"drift", std::numeric_limits<double>::infinity()},
              {"neg", -std::numeric_limits<double>::infinity()},
              {"fine", 0.5}};
  const std::string line = json_line(r);
  EXPECT_NE(line.find("\"dt\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"drift\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"neg\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"fine\":0.5"), std::string::npos) << line;
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  // The record must still be valid JSON end to end.
  testjson::Value doc;
  ASSERT_TRUE(testjson::parse(line, doc)) << line;
  EXPECT_EQ(doc.find("dt")->kind, testjson::Value::Kind::Null);
  EXPECT_EQ(doc.find("gauges")->find("drift")->kind,
            testjson::Value::Kind::Null);
  EXPECT_EQ(doc.find("gauges")->find("fine")->number, 0.5);
}

TEST(JsonLine, EscapesMetricNames) {
  StepReport r;
  r.gauges = {{"we\"ird\\name\nwith ctrl", 1.0}};
  const std::string line = json_line(r);
  testjson::Value doc;
  ASSERT_TRUE(testjson::parse(line, doc)) << line;
  ASSERT_EQ(doc.find("gauges")->obj.size(), 1u);
  EXPECT_EQ(doc.find("gauges")->obj[0].first, "we\"ird\\name\nwith ctrl");
}

TEST(ReportWriter, WritesOneLinePerRecord) {
  const std::string path = testing::temp_path("steps.jsonl");
  {
    ReportWriter w(path);
    ASSERT_TRUE(w.ok());
    StepReport r = sample_report();
    w.write(r);
    r.step = 4;
    r.per_rank.clear();
    w.write(r);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    testjson::Value doc;
    ASSERT_TRUE(testjson::parse(line, doc)) << line;
    EXPECT_EQ(doc.find("step")->number, 3.0 + n);
    ++n;
  }
  EXPECT_EQ(n, 2);
  std::remove(path.c_str());
}

TEST(ReportWriter, UnwritablePathReportsNotOk) {
  ReportWriter w("/nonexistent-dir-zz/steps.jsonl");
  EXPECT_FALSE(w.ok());
  w.write(sample_report());  // must be a safe no-op
}

}  // namespace
}  // namespace ab::obs
