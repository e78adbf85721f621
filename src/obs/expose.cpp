// Prometheus-style text exposition + loopback snapshot server.
// See expose.hpp for the contract.
#include "obs/expose.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace ab::obs {

namespace {

/// "rank.ghost_bytes" -> "ab_rank_ghost_bytes": the exposition grammar
/// allows [a-zA-Z0-9_:]; everything else becomes '_'.
std::string expo_name(const std::string& name) {
  std::string out = "ab_";
  out.reserve(name.size() + 3);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(256 + 64 * (snap.counters.size() + snap.gauges.size()));
  for (const auto& [name, v] : snap.counters) {
    const std::string n = expo_name(name) + "_total";
    out += "# TYPE " + n + " counter\n" + n + " ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
    out += "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string n = expo_name(name);
    out += "# TYPE " + n + " gauge\n" + n + " ";
    append_num(out, v);
    out += "\n";
  }
  for (const MetricsSnapshot::Hist& h : snap.histograms) {
    const std::string n = expo_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.counts[i];
      out += n + "_bucket{le=\"";
      append_num(out, h.bounds[i]);
      out += "\"} ";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(cum));
      out += buf;
      out += "\n";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(h.total));
    out += n + "_bucket{le=\"+Inf\"} " + buf + "\n";
    out += n + "_sum ";
    append_num(out, h.sum);
    out += "\n" + n + "_count " + buf + "\n";
  }
  return out;
}

bool dump_metrics(MetricsRegistry& registry, const std::string& path) {
  const std::string text = prometheus_text(registry.snapshot());
  try {
    write_file_atomic(path, text.data(), text.size());
  } catch (const Error&) {
    return false;
  }
  return true;
}

MetricsServer::MetricsServer(MetricsRegistry& registry, std::uint16_t port)
    : registry_(registry) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, 4) != 0) {
    error_ = "bind 127.0.0.1:" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve(); });
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MetricsServer::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    // A short poll timeout bounds how long stop() waits for the thread.
    const int n = ::poll(&pfd, 1, 100);
    if (n <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Drain whatever request line arrived; the reply is the same either
    // way. A scraper that sends nothing still gets the snapshot.
    char req[1024];
    (void)::recv(client, req, sizeof req, MSG_DONTWAIT);
    const std::string body = prometheus_text(registry_.snapshot());
    char header[128];
    std::snprintf(header, sizeof header,
                  "HTTP/1.1 200 OK\r\n"
                  "Content-Type: text/plain; version=0.0.4\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  body.size());
    (void)::send(client, header, std::strlen(header), 0);
    (void)::send(client, body.data(), body.size(), 0);
    ::close(client);
  }
}

}  // namespace ab::obs
