#include "common/json.hpp"

#include <cmath>
#include <cstdio>

namespace dt {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shorter representation when it round-trips.
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.9g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  return back == v ? shorter : buf;
}

void JsonWriter::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace dt
