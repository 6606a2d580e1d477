// Thread-safe runtime metrics: named counters, gauges and fixed-bucket
// histograms behind a registry with a deterministic snapshot() view.
//
// Hot-path cost is one relaxed atomic op per update. Instrument handles
// returned by the registry are stable for the registry's lifetime, so
// call sites resolve the name once (registry lookup takes a mutex) and
// update lock-free afterwards:
//
//   auto& accepts = obs::MetricsRegistry::global().counter("mc.accepts");
//   ...
//   accepts.add();
//
// snapshot() iterates name-sorted maps, so two snapshots of the same
// state serialise identically (tested in test_metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::obs {

/// The process-wide "someone is watching" switch: true while a
/// telemetry sink or at least one observability HTTP server is live
/// (each retains it once). Registry updates outside the walker record,
/// span recording and the REWL heartbeat gate on it, so a dark run
/// costs one relaxed load per instrumented site.
[[nodiscard]] bool instrumentation_active();
void instrumentation_retain();
void instrumentation_release();

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over [lo, hi) with n_buckets equal-width buckets; samples
/// outside the range land in dedicated underflow/overflow buckets, so
/// total() always equals the number of observe() calls.
class FixedHistogram {
 public:
  FixedHistogram(double lo, double hi, std::int32_t n_buckets);
  FixedHistogram(const FixedHistogram&) = delete;
  FixedHistogram& operator=(const FixedHistogram&) = delete;

  void observe(double x);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::int32_t n_buckets() const {
    return static_cast<std::int32_t>(buckets_.size());
  }
  [[nodiscard]] std::uint64_t bucket(std::int32_t i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const;
  /// Sum of every finite observed value (NaN observations are counted
  /// in underflow but excluded here); the Prometheus `_sum` sample.
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Quantile estimate by linear interpolation within the bucket that
  /// holds rank q * total(). q is clamped to [0, 1]. Out-of-range
  /// samples clamp to the histogram edges (underflow -> lo, overflow ->
  /// hi); an empty histogram returns NaN.
  [[nodiscard]] double value_at_quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double inv_width_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered instrument, name-sorted.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    double lo = 0.0;
    double hi = 0.0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    double sum = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramData> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Re-requesting a histogram with different
  /// bounds is an error (DT_CHECK).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  FixedHistogram& histogram(const std::string& name, double lo, double hi,
                            std::int32_t n_buckets);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Visit every histogram (name-sorted) under the registry lock --
  /// concurrent observe() calls are safe (pure atomics). Lets readers
  /// use FixedHistogram accessors that have no snapshot counterpart
  /// (value_at_quantile) without holding instrument handles.
  void for_each_histogram(
      const std::function<void(const std::string&, const FixedHistogram&)>&
          fn) const;

  /// Drop every instrument. Invalidates outstanding handles -- intended
  /// for test isolation only.
  void reset();

  /// Process-wide registry used by the built-in instrumentation.
  static MetricsRegistry& global();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DT_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      DT_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_
      DT_GUARDED_BY(mutex_);
};

}  // namespace dt::obs
