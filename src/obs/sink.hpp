// Telemetry events and pluggable output sinks.
//
// An Event is a typed, ordered bag of scalar fields ("rewl_walker" with
// rank/sweeps/flatness/...). A Sink serialises events; JsonlSink writes
// one JSON object per line (schema-free, jq-friendly) under a mutex. The
// Telemetry facade fans one event out to every registered sink.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace dt::obs {

using FieldValue =
    std::variant<bool, std::int64_t, std::uint64_t, double, std::string>;

struct Event {
  explicit Event(std::string event_type) : type(std::move(event_type)) {}

  // Exact-type overloads: with an implicit FieldValue parameter, a
  // narrowing standard conversion (double -> int) would outrank the
  // variant's converting constructor and silently truncate.
  Event& with(std::string name, bool value) {
    return push(std::move(name), value);
  }
  Event& with(std::string name, std::int32_t value) {
    return push(std::move(name), static_cast<std::int64_t>(value));
  }
  Event& with(std::string name, std::int64_t value) {
    return push(std::move(name), value);
  }
  Event& with(std::string name, std::uint64_t value) {
    return push(std::move(name), value);
  }
  Event& with(std::string name, double value) {
    return push(std::move(name), value);
  }
  Event& with(std::string name, std::string value) {
    return push(std::move(name), FieldValue(std::move(value)));
  }
  Event& with(std::string name, const char* value) {
    return push(std::move(name), FieldValue(std::string(value)));
  }

  Event& push(std::string name, FieldValue value) {
    fields.emplace_back(std::move(name), std::move(value));
    return *this;
  }

  std::string type;
  std::vector<std::pair<std::string, FieldValue>> fields;
};

/// Serialise one event as a single-line JSON object ("type" first, then
/// the fields in insertion order). Exposed for tests.
std::string event_to_json(const Event& event);

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const Event& event) = 0;
  virtual void flush() = 0;
};

class JsonlSink final : public Sink {
 public:
  /// Truncates `path` and streams one JSON line per event.
  explicit JsonlSink(const std::string& path);
  /// Stream-backed variant (tests, in-memory capture).
  explicit JsonlSink(std::unique_ptr<std::ostream> os);

  void write(const Event& event) override;
  void flush() override;

 private:
  Mutex mutex_;
  std::unique_ptr<std::ostream> os_ DT_GUARDED_BY(mutex_)
      DT_PT_GUARDED_BY(mutex_);
};

}  // namespace dt::obs
