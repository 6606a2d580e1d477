#include "common/config.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace dt {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Typo distance: the longer of the two middles left once the common
/// prefix and suffix are stripped ("decode_plan" vs "decode_plane" -> 1,
/// "globla" vs "global" -> 2). An upper bound on the edit distance,
/// equal to it for one inserted, deleted or substituted character.
std::ptrdiff_t typo_distance(std::string_view a, std::string_view b) {
  const auto [a_mid, b_mid] =
      std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  const auto [a_end, b_end] =
      std::mismatch(a.rbegin(), std::make_reverse_iterator(a_mid), b.rbegin(),
                    std::make_reverse_iterator(b_mid));
  return std::max(a_end.base() - a_mid, b_end.base() - b_mid);
}

}  // namespace

Config Config::from_text(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    DT_CHECK_MSG(eq != std::string::npos, "config line without '=': " << line);
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::update_from_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        set(arg, "true");
      } else {
        set(arg.substr(0, eq), arg.substr(eq + 1));
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

void Config::set(const std::string& key, std::string value) {
  DT_CHECK_MSG(!key.empty(), "empty config key");
  values_[key] = std::move(value);
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return find(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  DT_CHECK_MSG(end && *end == '\0',
               "config key '" << key << "' is not an integer: " << *v);
  DT_CHECK_MSG(errno != ERANGE,
               "config key '" << key << "' is out of range: " << *v);
  return parsed;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  DT_CHECK_MSG(end && *end == '\0',
               "config key '" << key << "' is not a number: " << *v);
  DT_CHECK_MSG(errno != ERANGE && std::isfinite(parsed),
               "config key '" << key << "' is out of range: " << *v);
  return parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  DT_CHECK_MSG(false, "config key '" << key << "' is not a boolean: " << *v);
  return fallback;  // unreachable
}

std::vector<std::pair<std::string, std::string>> Config::items() const {
  return {values_.begin(), values_.end()};
}

void Config::require_all_read() const {
  std::ostringstream unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) != 0) continue;
    unread << "\n  '" << key << "'";
    if (read_.empty()) continue;
    const auto nearest = std::min_element(
        read_.begin(), read_.end(), [&](const auto& a, const auto& b) {
          return typo_distance(key, a) < typo_distance(key, b);
        });
    unread << " -- did you mean '" << *nearest << "'?";
  }
  if (!unread.str().empty())
    throw Error("unknown config key(s), never read by this program:" +
                unread.str());
}

}  // namespace dt
