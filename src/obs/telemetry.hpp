// Process-wide telemetry facade tying the pieces together.
//
//   obs::Telemetry::instance().enable("run.jsonl");
//   ... instrumented code emits events / bumps metrics / opens spans ...
//   obs::Telemetry::instance().finish();              // spans+snapshot+flush
//
// enabled() only says whether a sink is open, i.e. whether to build an
// Event at all; registry updates and span recording follow
// obs::instrumentation_active(), which an open sink retains. Disabled
// (the default) every entry point is a relaxed atomic load and an early
// return. All methods are thread-safe; REWL walker threads emit
// concurrently.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace dt::obs {

class Telemetry {
 public:
  static Telemetry& instance();

  /// Open a JSONL sink at `path`, then turn on event emission and retain
  /// the instrumentation switch. Repeated calls add sinks. A ".csv" path
  /// throws dt::Error: there is no CSV sink.
  void enable(const std::string& path);
  void add_sink(std::unique_ptr<Sink> sink);

  /// Flush and drop all sinks and release the instrumentation switch
  /// (spans keep recording while an HTTP server holds it).
  void disable();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Stamp the event with a "ts" field and write it to every sink.
  /// No-op when disabled.
  void emit(Event event);

  /// Drain the span recorder and emit one "span" event per record.
  void flush_spans();

  /// Emit the metrics registry as "metric" events (one per instrument),
  /// all sharing one "seq" snapshot sequence number.
  void snapshot_metrics();

  /// Flush sinks to disk.
  void flush();

  /// flush_spans + snapshot_metrics + flush: the end-of-run call.
  void finish();

 private:
  Telemetry() = default;

  std::atomic<bool> enabled_{false};
  Mutex mutex_;
  std::vector<std::unique_ptr<Sink>> sinks_ DT_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> snapshot_seq_{0};
};

}  // namespace dt::obs
