// Embedded observability HTTP server: dependency-free (POSIX sockets
// only), one blocking accept loop on its own thread, connections served
// serially -- sized for scrapes and curls, not traffic.
//
// Endpoints (GET only):
//   /metrics  Prometheus text exposition of the global metrics registry
//             plus per-walker / per-window-pair health series.
//   /status   JSON run status: phase, uptime, checkpoint generation,
//             walker table (flatness trajectory included) and span
//             duration p50/p99.
//   /healthz  Liveness + watchdog stall verdict (always 200; the body
//             carries "ok" / "stalled").
//   /trace    Drains recorded spans as a Chrome tracing JSON array
//             (load in chrome://tracing or Perfetto). Draining is
//             destructive and shared with Telemetry::flush_spans.
//
// Starting a server retains the instrumentation switch (see
// obs::instrumentation_active), which also turns span recording on, so
// a run scraped over HTTP needs no telemetry sink.
#pragma once

#include <atomic>
#include <string>
#include <thread>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::obs {

struct HttpServerOptions {
  std::string bind = "127.0.0.1";
  int port = 0;  ///< 0: kernel-assigned ephemeral port (see port())
};

class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + listen + spawn the accept thread. Throws dt::Error when the
  /// address cannot be bound.
  void start();

  /// Stop the accept loop and join the thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

  /// The bound port (resolves the ephemeral case); 0 before start().
  [[nodiscard]] int port() const { return port_; }

  /// Live servers in the process (feeds the instrumentation gate).
  static int active_count();

  /// Dispatch one request and return the full HTTP response (status
  /// line, headers, body). Exposed so tests can cover routing without
  /// sockets.
  [[nodiscard]] static std::string handle(const std::string& method,
                                          const std::string& path);

 private:
  // The accept thread reads listen_fd_/wake_pipe_ without the lifecycle
  // lock: both are written only while no accept thread is live (start()
  // before the spawn, stop() after the join), so the loop's reads cannot
  // race. The analysis cannot see that protocol, hence the opt-out.
  void accept_loop() DT_NO_THREAD_SAFETY_ANALYSIS;
  void serve_connection(int fd);

  HttpServerOptions options_;
  std::atomic<bool> running_{false};
  /// Serialises start()/stop() lifecycle transitions.
  Mutex lifecycle_mutex_;
  int listen_fd_ DT_GUARDED_BY(lifecycle_mutex_) = -1;
  int wake_pipe_[2] DT_GUARDED_BY(lifecycle_mutex_) = {-1, -1};
  /// Written in start() before the accept thread exists; read-only after.
  int port_ = 0;
  std::thread thread_;
};

}  // namespace dt::obs
