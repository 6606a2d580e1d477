// Minimal configuration store used by examples and benches.
//
// Values are stored as strings and converted on access; sources are
// key=value text (files or inline) and --key=value / --flag command lines.
// Later sources override earlier ones, so a typical driver does:
//
//   Config cfg = Config::from_text(kDefaults);
//   cfg.update_from_args(argc, argv);
//   ... build options with cfg.get_*() ...
//   cfg.require_all_read();  // a mistyped key fails instead of being ignored
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dt {

class Config {
 public:
  Config() = default;

  /// Parse "key = value" lines; '#' starts a comment; blank lines ignored.
  static Config from_text(const std::string& text);

  /// Merge --key=value and bare --flag (stored as "true") arguments.
  /// Non-option arguments are collected and retrievable via positional().
  void update_from_args(int argc, const char* const* argv);

  void set(const std::string& key, std::string value);
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// The numeric getters throw dt::Error naming the key when the value
  /// is not a number, does not fit the return type, or is not finite.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// get_int narrowed to T; also throws when the value does not fit T
  /// (a negative value into an unsigned T, say).
  template <std::integral T>
  [[nodiscard]] T get_int_as(const std::string& key, T fallback) const {
    const std::int64_t v = get_int(key, static_cast<std::int64_t>(fallback));
    DT_CHECK_MSG(std::in_range<T>(v),
                 "config key '" << key << "' is out of range: " << v);
    return static_cast<T>(v);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// All key=value pairs, sorted by key (for logging run parameters).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> items() const;

  /// Throw dt::Error naming every set key that no get_*() call has read,
  /// each with the nearest key that was read. A program calls it once
  /// all its options are built.
  void require_all_read() const;

 private:
  [[nodiscard]] std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  /// Keys asked for through get_*(), set or not. Recording them makes
  /// get_*() a write: one Config must not be read from two threads.
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace dt
