#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "obs/metrics.hpp"

namespace dt::obs {

namespace {
// Span nesting is a per-thread property independent of which recorder
// captures the spans, so one depth counter per thread suffices.
thread_local int t_span_depth = 0;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(steady_ns()) {}

double TraceRecorder::now_s() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  // Keyed by recorder so tests with private recorders stay isolated from
  // the global one. The shared_ptr keeps records of exited threads alive
  // in buffers_ until drained.
  thread_local std::map<TraceRecorder*, std::shared_ptr<ThreadBuffer>> t_bufs;
  auto& slot = t_bufs[this];
  if (!slot) {
    slot = std::make_shared<ThreadBuffer>();
    MutexLock lock(buffers_mutex_);
    slot->thread_id = next_thread_id_++;
    buffers_.push_back(slot);
  }
  return *slot;
}

void TraceRecorder::record(SpanRecord record) {
  ThreadBuffer& buf = local_buffer();
  MutexLock lock(buf.mutex);
  if (buf.spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  record.thread_id = buf.thread_id;
  buf.spans.push_back(std::move(record));
}

std::vector<SpanRecord> TraceRecorder::drain() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(buffers_mutex_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> all;
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mutex);
    std::move(buf->spans.begin(), buf->spans.end(), std::back_inserter(all));
    buf->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_s < b.start_s;
            });
  return all;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

ScopedSpan::ScopedSpan(std::string name)
    : active_(instrumentation_active()) {
  if (!active_) return;
  name_ = std::move(name);
  depth_ = t_span_depth++;
  start_s_ = TraceRecorder::global().now_s();
}

void ScopedSpan::end() {
  if (!active_) return;
  active_ = false;
  --t_span_depth;
  TraceRecorder& rec = TraceRecorder::global();
  SpanRecord record;
  record.depth = depth_;
  record.start_s = start_s_;
  record.duration_s = rec.now_s() - start_s_;
  // Span durations straddle eight orders of magnitude (micro spans to
  // whole-phase spans), so the per-name duration histogram lives in
  // log10 space; /status inverts it for p50/p99 (see obs/http_server).
  MetricsRegistry::global()
      .histogram("trace.span_log10_s." + name_, -8.0, 3.0, 110)
      .observe(std::log10(std::max(record.duration_s, 1e-8)));
  record.name = std::move(name_);
  rec.record(std::move(record));
}

}  // namespace dt::obs
