#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace dt::obs {

namespace {
std::atomic<int> g_instrumentation_depth{0};
}  // namespace

bool instrumentation_active() {
  return g_instrumentation_depth.load(std::memory_order_relaxed) > 0;
}

void instrumentation_retain() {
  g_instrumentation_depth.fetch_add(1, std::memory_order_relaxed);
}

void instrumentation_release() {
  g_instrumentation_depth.fetch_sub(1, std::memory_order_relaxed);
}

FixedHistogram::FixedHistogram(double lo, double hi, std::int32_t n_buckets)
    : lo_(lo),
      hi_(hi),
      inv_width_(static_cast<double>(n_buckets) / (hi - lo)),
      buckets_(static_cast<std::size_t>(n_buckets)) {
  DT_CHECK_MSG(n_buckets >= 1, "histogram needs at least one bucket");
  DT_CHECK_MSG(hi > lo, "histogram range must be non-empty");
}

void FixedHistogram::observe(double x) {
  if (std::isnan(x) || x < lo_) {
    if (!std::isnan(x)) sum_.fetch_add(x, std::memory_order_relaxed);
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sum_.fetch_add(x, std::memory_order_relaxed);
  if (x >= hi_) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto i = static_cast<std::size_t>((x - lo_) * inv_width_);
  if (i >= buckets_.size()) i = buckets_.size() - 1;  // fp edge rounding
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FixedHistogram::total() const {
  std::uint64_t n = underflow() + overflow();
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double FixedHistogram::value_at_quantile(double q) const {
  const std::uint64_t n = total();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cumulative = static_cast<double>(underflow());
  // Everything below lo clamps to lo: with the target rank inside the
  // underflow mass (or q == 0) the best available estimate is the edge.
  if (target <= cumulative) return lo_;
  const double width = (hi_ - lo_) / static_cast<double>(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double count =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (count > 0.0 && target <= cumulative + count) {
      const double fraction = (target - cumulative) / count;
      return lo_ + (static_cast<double>(i) + fraction) * width;
    }
    cumulative += count;
  }
  return hi_;  // rank landed in the overflow mass
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                           double hi, std::int32_t n_buckets) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<FixedHistogram>(lo, hi, n_buckets);
  } else {
    DT_CHECK_MSG(slot->lo() == lo && slot->hi() == hi &&
                     slot->n_buckets() == n_buckets,
                 "histogram '" << name << "' re-registered with different "
                                          "bounds");
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.lo = h->lo();
    data.hi = h->hi();
    data.buckets.resize(static_cast<std::size_t>(h->n_buckets()));
    for (std::int32_t i = 0; i < h->n_buckets(); ++i)
      data.buckets[static_cast<std::size_t>(i)] = h->bucket(i);
    data.underflow = h->underflow();
    data.overflow = h->overflow();
    data.sum = h->sum();
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const std::string&, const FixedHistogram&)>& fn)
    const {
  MutexLock lock(mutex_);
  for (const auto& [name, h] : histograms_) fn(name, *h);
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dt::obs
