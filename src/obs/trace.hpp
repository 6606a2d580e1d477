// Lightweight scoped trace spans.
//
//   DT_SPAN("rewl");            // records on scope exit
//   { DT_SPAN("exchange"); ...} // nests: depth = 1 under "rewl"
//
// Spans land in per-thread buffers (one mutex acquisition per completed
// span, never contended in steady state) and are collected with
// TraceRecorder::drain(), which merges all threads' buffers sorted by
// start time. Spans record while obs::instrumentation_active() (a
// telemetry sink or an HTTP server is live); otherwise ScopedSpan costs
// one relaxed atomic load. Timebase: seconds on the steady clock since
// the recorder's construction (epoch_offset_s lets sinks reconstruct the
// wall-clock start).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::obs {

struct SpanRecord {
  std::string name;
  int depth = 0;              ///< nesting level on its thread; 0 = outermost
  std::uint64_t thread_id = 0;  ///< sequential id per recording thread
  double start_s = 0.0;       ///< steady-clock seconds since recorder epoch
  double duration_s = 0.0;
};

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Append a completed span to the calling thread's buffer. Buffers are
  /// bounded (kMaxSpansPerThread); excess spans are counted as dropped.
  void record(SpanRecord record);

  /// Move out every buffered span from every thread, sorted by start_s.
  std::vector<SpanRecord> drain();

  /// Spans discarded because a thread buffer was full.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Steady-clock seconds since this recorder's construction.
  [[nodiscard]] double now_s() const;

  static constexpr std::size_t kMaxSpansPerThread = 1 << 16;

  /// Process-wide recorder used by DT_SPAN.
  static TraceRecorder& global();

 private:
  struct ThreadBuffer {
    Mutex mutex;
    /// Assigned once, before the buffer is published in buffers_; read
    /// by the owning thread only afterwards -- no guard needed.
    std::uint64_t thread_id = 0;
    std::vector<SpanRecord> spans DT_GUARDED_BY(mutex);
  };

  ThreadBuffer& local_buffer();

  std::atomic<std::uint64_t> dropped_{0};
  std::int64_t epoch_ns_;  ///< steady-clock time at construction
  Mutex buffers_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      DT_GUARDED_BY(buffers_mutex_);
  std::uint64_t next_thread_id_ DT_GUARDED_BY(buffers_mutex_) = 0;
};

/// RAII span: samples the clock on entry, records on exit. Inert (and
/// nearly free) when instrumentation is inactive at entry.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Record the span now instead of at scope exit (for phases that end
  /// mid-scope); the destructor then becomes a no-op.
  void end();

 private:
  bool active_;
  int depth_ = 0;
  double start_s_ = 0.0;
  std::string name_;
};

}  // namespace dt::obs

#define DT_SPAN_CONCAT2(a, b) a##b
#define DT_SPAN_CONCAT(a, b) DT_SPAN_CONCAT2(a, b)
#define DT_SPAN(name) \
  ::dt::obs::ScopedSpan DT_SPAN_CONCAT(dt_span_, __LINE__)(name)
