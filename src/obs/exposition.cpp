#include "obs/exposition.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace dt::obs {

namespace {

bool valid_first(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool valid_rest(char c) { return valid_first(c) || (c >= '0' && c <= '9'); }

/// Prometheus sample values are floats; json_number gives shortest
/// round-trip formatting and "null" for non-finite values, which
/// Prometheus rejects -- map those to NaN.
std::string sample_value(double v) {
  if (!std::isfinite(v)) return "NaN";
  return json_number(v);
}

/// Registers `original` under its sanitized name, failing loudly on a
/// post-sanitization collision between distinct instruments.
const std::string& claim(std::map<std::string, std::string>& taken,
                         const std::string& original) {
  auto [it, inserted] =
      taken.emplace(sanitize_metric_name(original), original);
  if (!inserted && it->second != original) {
    throw Error("metric name collision after sanitization: '" + original +
                "' and '" + it->second + "' both map to '" + it->first +
                "'");
  }
  return it->first;
}

/// Prometheus name of a walker field: `health_walker_<field>` with the
/// `_s` unit suffix spelled out (sweeps_per_s -> sweeps_per_second).
std::string walker_series_name(std::string_view field) {
  std::string name(field);
  if (name.ends_with("_per_s"))
    name.replace(name.size() - 2, 2, "_second");
  else if (name.ends_with("_s"))
    name.replace(name.size() - 2, 2, "_seconds");
  return "health_walker_" + name;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  if (!valid_first(name.front())) {
    // A digit is a legal *interior* character: keep it, prefixed.
    if (name.front() >= '0' && name.front() <= '9') {
      out.push_back('_');
      out.push_back(name.front());
    } else {
      out.push_back('_');
    }
  } else {
    out.push_back(name.front());
  }
  for (std::size_t i = 1; i < name.size(); ++i)
    out.push_back(valid_rest(name[i]) ? name[i] : '_');
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::map<std::string, std::string> taken;
  std::ostringstream os;
  for (const auto& [name, value] : snap.counters) {
    const std::string& metric = claim(taken, name);
    os << "# TYPE " << metric << " counter\n"
       << metric << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string& metric = claim(taken, name);
    os << "# TYPE " << metric << " gauge\n"
       << metric << ' ' << sample_value(value) << '\n';
  }
  for (const auto& hist : snap.histograms) {
    const std::string& metric = claim(taken, hist.name);
    os << "# TYPE " << metric << " histogram\n";
    const double width =
        (hist.hi - hist.lo) / static_cast<double>(hist.buckets.size());
    // Prometheus buckets are cumulative from -inf: underflow is below
    // every finite edge, overflow appears only at +Inf.
    std::uint64_t cumulative = hist.underflow;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      cumulative += hist.buckets[i];
      const double le = hist.lo + static_cast<double>(i + 1) * width;
      os << metric << "_bucket{le=\"" << sample_value(le) << "\"} "
         << cumulative << '\n';
    }
    cumulative += hist.overflow;
    os << metric << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
       << metric << "_sum " << sample_value(hist.sum) << '\n'
       << metric << "_count " << cumulative << '\n';
  }
  return std::move(os).str();
}

std::string render_prometheus(const MetricsSnapshot& snap,
                              const HealthSnapshot& health) {
  std::string out = render_prometheus(snap);
  if (!health.active) return out;

  std::ostringstream os;
  os << "# TYPE health_uptime_seconds gauge\n"
     << "health_uptime_seconds " << sample_value(health.uptime_s) << '\n'
     << "# TYPE health_checkpoint_generation gauge\n"
     << "health_checkpoint_generation " << health.checkpoint_generation
     << '\n';

  // One gauge family per walker field, one sample per walker; the
  // field table fixes the order, so family i collects every walker's
  // i-th field.
  std::vector<std::pair<std::string, std::string>> families;
  for (const auto& w : health.walkers) {
    const std::string labels = "{rank=\"" + std::to_string(w.rank) +
                               "\",window=\"" + std::to_string(w.window) +
                               "\"} ";
    std::size_t i = 0;
    w.for_each_field([&](std::string_view name, auto value) {
      if (i == families.size())
        families.emplace_back(walker_series_name(name), std::string());
      auto& [series, samples] = families[i++];
      samples += series + labels +
                 sample_value(static_cast<double>(value)) + '\n';
    });
  }
  for (const auto& [series, samples] : families)
    os << "# TYPE " << series << " gauge\n" << samples;

  os << "# TYPE health_exchange_attempted counter\n";
  for (std::size_t i = 0; i < health.pairs.size(); ++i)
    os << "health_exchange_attempted{pair=\"" << i << "\"} "
       << health.pairs[i].attempted << '\n';
  os << "# TYPE health_exchange_accepted counter\n";
  for (std::size_t i = 0; i < health.pairs.size(); ++i)
    os << "health_exchange_accepted{pair=\"" << i << "\"} "
       << health.pairs[i].accepted << '\n';
  os << "# TYPE health_exchange_acceptance_ewma gauge\n";
  for (std::size_t i = 0; i < health.pairs.size(); ++i)
    os << "health_exchange_acceptance_ewma{pair=\"" << i << "\"} "
       << sample_value(health.pairs[i].ewma < 0.0 ? 0.0
                                                  : health.pairs[i].ewma)
       << '\n';

  os << "# TYPE health_stalled_walkers gauge\n"
     << "health_stalled_walkers " << health.stalled_walkers << '\n';
  return out + std::move(os).str();
}

}  // namespace dt::obs
