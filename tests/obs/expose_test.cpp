// Prometheus-style exposition: text rendering (name sanitization, counter
// _total suffix, cumulative histogram buckets), atomic file dumps, and the
// loopback snapshot server scraped over a real socket.
#include "obs/expose.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "support/temp_path.hpp"

namespace ab::obs {
namespace {

TEST(PrometheusText, RendersAllMetricKindsSanitized) {
  MetricsRegistry reg;
  reg.counter("rank.steps")->add(3);
  reg.gauge("diag.max divb(dx)")->set(2.5);  // hostile name -> underscores
  Histogram* h = reg.histogram("step.wall_s", {1.0, 10.0});
  h->record(0.5);
  h->record(5.0);
  h->record(100.0);  // overflow bucket

  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE ab_rank_steps_total counter\n"
                      "ab_rank_steps_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ab_diag_max_divb_dx_ gauge\n"
                      "ab_diag_max_divb_dx_ 2.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE ab_step_wall_s histogram"), std::string::npos);
  EXPECT_NE(text.find("ab_step_wall_s_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  // Buckets are cumulative.
  EXPECT_NE(text.find("ab_step_wall_s_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ab_step_wall_s_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ab_step_wall_s_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("ab_step_wall_s_count 3\n"), std::string::npos);
}

TEST(PrometheusText, EmptySnapshotIsEmpty) {
  MetricsRegistry reg;
  EXPECT_TRUE(prometheus_text(reg.snapshot()).empty());
}

TEST(DumpMetrics, WritesAtomicallyAndLeavesNoTmpFile) {
  MetricsRegistry reg;
  reg.counter("dump.events")->add(7);
  const std::string path = testing::temp_path("dump.prom");
  ASSERT_TRUE(dump_metrics(reg, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("ab_dump_events_total 7"), std::string::npos);
  // No tmp sibling is left after the rename.
  EXPECT_TRUE(testing::stray_tmps(path).empty());
  std::remove(path.c_str());
}

/// One blocking HTTP GET against 127.0.0.1:`port`; returns the raw reply.
std::string scrape(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const char req[] = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, req, sizeof req - 1, 0);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return reply;
}

TEST(MetricsServer, ServesFreshSnapshotsOnAnEphemeralPort) {
  MetricsRegistry reg;
  Counter* scrapes = reg.counter("serve.scrapes");
  scrapes->add(1);
  MetricsServer server(reg, 0);
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.port(), 0);

  const std::string r1 = scrape(server.port());
  EXPECT_NE(r1.find("HTTP/1.1 200 OK"), std::string::npos) << r1;
  EXPECT_NE(r1.find("text/plain"), std::string::npos);
  EXPECT_NE(r1.find("ab_serve_scrapes_total 1"), std::string::npos) << r1;

  // Snapshots are taken per request, not cached.
  scrapes->add(41);
  const std::string r2 = scrape(server.port());
  EXPECT_NE(r2.find("ab_serve_scrapes_total 42"), std::string::npos) << r2;

  server.stop();  // idempotent; the destructor stops again harmlessly
  server.stop();
}

TEST(MetricsServer, BindFailureReportsPortAndReason) {
  // Occupy a loopback port, then ask a MetricsServer for exactly that
  // port: construction must fail with ok() == false and error() naming
  // the port and the errno text. Callers who were GIVEN the port (e.g.
  // --metrics-port) must treat this as a hard error — a silently missing
  // scrape endpoint looks exactly like a healthy run.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-chosen: guaranteed free until we close it
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t taken = ntohs(addr.sin_port);

  MetricsRegistry reg;
  MetricsServer server(reg, taken);
  EXPECT_FALSE(server.ok());
  EXPECT_FALSE(server.error().empty());
  EXPECT_NE(server.error().find(std::to_string(taken)), std::string::npos)
      << server.error();
  EXPECT_NE(server.error().find("bind"), std::string::npos)
      << server.error();
  ::close(fd);

  // A healthy server reports no error.
  MetricsServer ok_server(reg, 0);
  EXPECT_TRUE(ok_server.ok());
  EXPECT_TRUE(ok_server.error().empty());
}

}  // namespace
}  // namespace ab::obs
