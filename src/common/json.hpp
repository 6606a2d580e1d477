// Minimal JSON writing helpers shared by the logger, the telemetry
// sinks, the /status endpoint and the bench summary writer: string
// escaping, number formatting and an incremental object writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dt {

/// Escape a string for use inside a JSON string literal (no surrounding
/// quotes). Control characters become \u00XX.
std::string json_escape(std::string_view s);

/// Format a double as a JSON number: finite values via shortest
/// round-trip %.17g-style formatting, non-finite values as null (JSON has
/// no NaN/Inf).
std::string json_number(double v);

/// Incremental single-line JSON object writer:
///
///   JsonWriter w;
///   w.field("type", "span").field("dur_s", 0.25);
///   line = w.str();   // {"type":"span","dur_s":0.25}
///
/// raw() splices pre-serialised JSON (arrays, nested objects) under a key.
class JsonWriter {
 public:
  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::int32_t value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonWriter& field(std::string_view key, bool value);
  JsonWriter& raw(std::string_view key, std::string_view json);

  /// The complete object, braces included.
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

}  // namespace dt
