#include "obs/sink.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace dt::obs {

std::string event_to_json(const Event& event) {
  JsonWriter w;
  w.field("type", event.type);
  for (const auto& [name, value] : event.fields) {
    std::visit([&w, &name](const auto& v) { w.field(name, v); }, value);
  }
  return w.str();
}

JsonlSink::JsonlSink(const std::string& path)
    : os_(std::make_unique<std::ofstream>(path, std::ios::trunc)) {
  DT_CHECK_MSG(os_->good(), "cannot open telemetry sink: " << path);
}

JsonlSink::JsonlSink(std::unique_ptr<std::ostream> os) : os_(std::move(os)) {}

void JsonlSink::write(const Event& event) {
  const std::string line = event_to_json(event);
  MutexLock lock(mutex_);
  *os_ << line << '\n';
}

void JsonlSink::flush() {
  MutexLock lock(mutex_);
  os_->flush();
}

}  // namespace dt::obs
