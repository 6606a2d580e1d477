// Prometheus text exposition (version 0.0.4) for the metrics registry
// and the sampling-health plane.
//
// Instrument names use dots internally ("mc.accepts"); Prometheus allows
// [a-zA-Z_:][a-zA-Z0-9_:]* only, so the renderer sanitizes every name
// ("mc.accepts" -> "mc_accepts") and refuses to emit a snapshot in which
// two distinct instruments collide after sanitization ("mc.accepts" vs
// "mc_accepts") -- silently merging different series would corrupt every
// downstream dashboard.
#pragma once

#include <string>
#include <string_view>

#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace dt::obs {

/// Map an instrument name onto the Prometheus metric-name alphabet:
/// invalid characters become '_', a leading digit gains a '_' prefix,
/// an empty name becomes "_".
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Render a registry snapshot as Prometheus text exposition. Counters
/// and gauges become one sample each; FixedHistograms become the
/// standard cumulative `_bucket{le=...}` / `_sum` / `_count` triple
/// (underflow counts in every bucket, overflow only in `+Inf`). Throws
/// dt::Error when two instruments collide after sanitization.
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snap);

/// Same, plus the health plane: one gauge per walker field
/// (HealthSnapshot::Walker::for_each_field) labelled
/// {rank=...,window=...} and per-window-pair exchange series labelled
/// {pair=...}.
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snap,
                                            const HealthSnapshot& health);

}  // namespace dt::obs
