#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dt::obs {

namespace {

std::atomic<int> g_active_servers{0};

std::string http_response(int code, const char* reason,
                          const char* content_type, const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << code << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return std::move(os).str();
}

std::string status_json() {
  const HealthSnapshot health = HealthRegistry::global().snapshot();

  // Span duration quantiles from the log10-domain histograms recorded by
  // ScopedSpan (see obs/trace.cpp): p = 10^value_at_quantile.
  std::string spans = "[";
  bool first_span = true;
  MetricsRegistry::global().for_each_histogram(
      [&](const std::string& name, const FixedHistogram& h) {
        constexpr const char* kPrefix = "trace.span_log10_s.";
        if (name.rfind(kPrefix, 0) != 0 || h.total() == 0) return;
        if (!first_span) spans += ',';
        first_span = false;
        JsonWriter span;
        span.field("name", name.substr(std::strlen(kPrefix)))
            .field("count", h.total())
            .field("p50_s", std::pow(10.0, h.value_at_quantile(0.5)))
            .field("p99_s", std::pow(10.0, h.value_at_quantile(0.99)));
        spans += span.str();
      });
  spans += ']';

  // Cross-walker decode plane coalescing summary, straight from the
  // plane's registry metrics (zeros when the plane is off or idle).
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t plane_batches =
      reg.counter("decode_plane.batches").value();
  const std::uint64_t plane_rows = reg.counter("decode_plane.rows").value();
  JsonWriter plane;
  plane.field("attached", reg.gauge("decode_plane.attached").value())
      .field("requests", reg.counter("decode_plane.requests").value())
      .field("batches", plane_batches)
      .field("rows", plane_rows)
      .field("coalesced_requests",
             reg.counter("decode_plane.coalesced").value())
      .field("rows_per_batch",
             plane_batches == 0 ? 0.0
                                : static_cast<double>(plane_rows) /
                                      static_cast<double>(plane_batches))
      .field("last_fill_fraction",
             reg.gauge("decode_plane.fill_fraction_x1000").value() / 1000.0);

  JsonWriter status;
  status.field("phase", health.phase.empty() ? "idle" : health.phase)
      .field("active", health.active)
      .field("uptime_s", health.uptime_s)
      .field("checkpoint_generation", health.checkpoint_generation)
      .field("n_windows", static_cast<std::int64_t>(health.n_windows))
      .field("walkers_per_window",
             static_cast<std::int64_t>(health.walkers_per_window))
      .field("watchdog_stall_seconds", health.stall_seconds)
      .field("stalled_walkers",
             static_cast<std::int64_t>(health.stalled_walkers))
      .raw("walkers", walkers_json(health))
      .raw("exchange_pairs", exchange_pairs_json(health))
      .raw("decode_plane", plane.str())
      .raw("spans", spans);
  return status.str();
}

std::string healthz_json() {
  HealthRegistry& health = HealthRegistry::global();
  const int stalled = health.evaluate();
  const HealthSnapshot snap = health.snapshot();
  std::string ranks = "[";
  bool first = true;
  for (const auto& w : snap.walkers) {
    if (!w.stalled) continue;
    if (!first) ranks += ',';
    first = false;
    ranks += std::to_string(w.rank);
  }
  ranks += ']';
  JsonWriter body;
  body.field("status", stalled > 0 ? "stalled" : "ok")
      .field("phase", snap.phase.empty() ? "idle" : snap.phase)
      .field("uptime_s", snap.uptime_s)
      .field("watchdog_stall_seconds", snap.stall_seconds)
      .field("stalled_walkers", static_cast<std::int64_t>(stalled))
      .raw("stalled_ranks", ranks);
  return body.str();
}

/// Chrome tracing "trace event" array (chrome://tracing, Perfetto):
/// complete events ("ph":"X") with microsecond timestamps.
std::string trace_json() {
  std::string out = "[";
  bool first = true;
  for (const SpanRecord& span : TraceRecorder::global().drain()) {
    if (!first) out += ',';
    first = false;
    JsonWriter event;
    event.field("name", span.name)
        .field("cat", "deepthermo")
        .field("ph", "X")
        .field("pid", static_cast<std::int64_t>(0))
        .field("tid", span.thread_id)
        .field("ts", span.start_s * 1e6)
        .field("dur", span.duration_s * 1e6);
    out += event.str();
  }
  out += ']';
  return out;
}

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

int HttpServer::active_count() {
  return g_active_servers.load(std::memory_order_relaxed);
}

void HttpServer::start() {
  DT_CHECK_MSG(!running(), "HttpServer::start called twice");
  DT_CHECK(options_.port >= 0 && options_.port <= 65535);
  MutexLock lock(lifecycle_mutex_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw Error(std::string("obs http: socket() failed: ") +
                std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("obs http: invalid bind address '" + options_.bind + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("obs http: cannot listen on " + options_.bind + ":" +
                std::to_string(options_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(std::string("obs http: pipe() failed: ") +
                std::strerror(errno));
  }

  running_.store(true, std::memory_order_relaxed);
  g_active_servers.fetch_add(1, std::memory_order_relaxed);
  // Spans feed /trace and the /status quantiles even without a sink.
  instrumentation_retain();
  thread_ = std::thread([this] { accept_loop(); });
  DT_LOG_INFO << "obs http: serving /metrics /status /healthz /trace on "
              << options_.bind << ":" << port_;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  MutexLock lock(lifecycle_mutex_);
  const char wake = 'x';
  [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &wake, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  instrumentation_release();
  g_active_servers.fetch_sub(1, std::memory_order_relaxed);
}

void HttpServer::accept_loop() {
  while (running()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || !running()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  timeval timeout{2, 0};  // a stuck client must not wedge the scrape loop
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[2048];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const auto n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const auto line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // not HTTP; drop silently

  std::istringstream line(request.substr(0, line_end));
  std::string method, target;
  line >> method >> target;
  const auto query = target.find('?');
  if (query != std::string::npos) target.resize(query);

  const std::string response = handle(method, target);
  std::size_t sent = 0;
  while (sent < response.size()) {
    const auto n =
        ::send(fd, response.data() + sent, response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

std::string HttpServer::handle(const std::string& method,
                               const std::string& path) {
  if (method != "GET")
    return http_response(405, "Method Not Allowed", "text/plain",
                         "only GET is supported\n");
  try {
    if (path == "/metrics") {
      return http_response(
          200, "OK", "text/plain; version=0.0.4; charset=utf-8",
          render_prometheus(MetricsRegistry::global().snapshot(),
                            HealthRegistry::global().snapshot()));
    }
    if (path == "/status")
      return http_response(200, "OK", "application/json", status_json());
    if (path == "/healthz")
      return http_response(200, "OK", "application/json", healthz_json());
    if (path == "/trace")
      return http_response(200, "OK", "application/json", trace_json());
    if (path == "/")
      return http_response(200, "OK", "text/plain",
                           "deepthermo observability: /metrics /status "
                           "/healthz /trace\n");
  } catch (const std::exception& e) {
    return http_response(500, "Internal Server Error", "text/plain",
                         std::string(e.what()) + "\n");
  }
  return http_response(404, "Not Found", "text/plain",
                       "unknown path: " + path + "\n");
}

}  // namespace dt::obs
