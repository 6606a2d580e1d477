#include "obs/telemetry.hpp"

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace dt::obs {

Telemetry& Telemetry::instance() {
  static Telemetry telemetry;
  return telemetry;
}

void Telemetry::enable(const std::string& path) {
  if (path.ends_with(".csv"))
    throw Error("telemetry path '" + path +
                "': there is no CSV sink; telemetry is written as JSONL "
                "(one JSON object per line), e.g. run.jsonl");
  add_sink(std::make_unique<JsonlSink>(path));
  DT_LOG_INFO << "telemetry enabled -> " << path << " (jsonl)";
}

void Telemetry::add_sink(std::unique_ptr<Sink> sink) {
  {
    MutexLock lock(mutex_);
    sinks_.push_back(std::move(sink));
  }
  // One retain per off->on transition: instrumentation_active() (spans,
  // registry updates) stays on while a sink or an HTTP server is live.
  if (!enabled_.exchange(true, std::memory_order_relaxed))
    instrumentation_retain();
}

void Telemetry::disable() {
  if (enabled_.exchange(false, std::memory_order_relaxed))
    instrumentation_release();
  MutexLock lock(mutex_);
  for (auto& sink : sinks_) sink->flush();
  sinks_.clear();
}

void Telemetry::emit(Event event) {
  if (!enabled()) return;
  event.fields.emplace(event.fields.begin(),
                       std::make_pair(std::string("ts"),
                                      FieldValue(iso8601_timestamp())));
  MutexLock lock(mutex_);
  for (auto& sink : sinks_) sink->write(event);
}

void Telemetry::flush_spans() {
  if (!enabled()) return;
  for (SpanRecord& span : TraceRecorder::global().drain()) {
    Event event("span");
    event.with("name", std::move(span.name))
        .with("depth", static_cast<std::int64_t>(span.depth))
        .with("thread", span.thread_id)
        .with("start_s", span.start_s)
        .with("dur_s", span.duration_s);
    emit(std::move(event));
  }
  const std::uint64_t dropped = TraceRecorder::global().dropped();
  if (dropped > 0)
    DT_LOG_WARN << "trace: " << dropped << " spans dropped (buffer full)";
}

void Telemetry::snapshot_metrics() {
  if (!enabled()) return;
  const std::uint64_t seq =
      snapshot_seq_.fetch_add(1, std::memory_order_relaxed);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    emit(Event("metric")
             .with("seq", seq)
             .with("kind", "counter")
             .with("name", name)
             .with("value", value));
  }
  for (const auto& [name, value] : snap.gauges) {
    emit(Event("metric")
             .with("seq", seq)
             .with("kind", "gauge")
             .with("name", name)
             .with("value", value));
  }
  for (const auto& hist : snap.histograms) {
    std::string buckets;
    for (const auto b : hist.buckets) {
      if (!buckets.empty()) buckets += ';';
      buckets += std::to_string(b);
    }
    emit(Event("metric")
             .with("seq", seq)
             .with("kind", "histogram")
             .with("name", hist.name)
             .with("lo", hist.lo)
             .with("hi", hist.hi)
             .with("underflow", hist.underflow)
             .with("overflow", hist.overflow)
             .with("buckets", std::move(buckets)));
  }
}

void Telemetry::flush() {
  MutexLock lock(mutex_);
  for (auto& sink : sinks_) sink->flush();
}

void Telemetry::finish() {
  flush_spans();
  snapshot_metrics();
  flush();
}

}  // namespace dt::obs
