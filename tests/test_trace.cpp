#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace dt::obs {
namespace {

// Spans go through the global recorder (that is what DT_SPAN compiles
// against); each test drains it and holds the instrumentation switch
// for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().drain();  // discard leftovers
    instrumentation_retain();
  }
  void TearDown() override {
    instrumentation_release();
    TraceRecorder::global().drain();
  }
};

TEST_F(TraceTest, RecordsNameAndDuration) {
  {
    DT_SPAN("outer");
  }
  const auto spans = TraceRecorder::global().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_GE(spans[0].duration_s, 0.0);
  EXPECT_GE(spans[0].start_s, 0.0);
}

TEST_F(TraceTest, NestedSpansTrackDepthAndOrder) {
  {
    DT_SPAN("a");
    {
      DT_SPAN("b");
      { DT_SPAN("c"); }
    }
    { DT_SPAN("d"); }
  }
  auto spans = TraceRecorder::global().drain();
  ASSERT_EQ(spans.size(), 4u);
  // drain() sorts by start time: a, b, c, d.
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "b");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "c");
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[3].name, "d");
  EXPECT_EQ(spans[3].depth, 1);
  // Children are contained in their parent's interval.
  EXPECT_GE(spans[1].start_s, spans[0].start_s);
  EXPECT_LE(spans[1].start_s + spans[1].duration_s,
            spans[0].start_s + spans[0].duration_s + 1e-6);
}

TEST_F(TraceTest, ExplicitEndStopsTheClockEarly) {
  ScopedSpan span("phase");
  span.end();
  span.end();  // idempotent
  const auto spans = TraceRecorder::global().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "phase");
}

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  instrumentation_release();
  ASSERT_FALSE(instrumentation_active());
  { DT_SPAN("invisible"); }
  instrumentation_retain();
  EXPECT_TRUE(TraceRecorder::global().drain().empty());
}

TEST_F(TraceTest, ThreadsGetDistinctIdsAndAllSpansSurvive) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) { DT_SPAN("worker"); }
    });
  }
  for (auto& th : threads) th.join();
  const auto spans = TraceRecorder::global().drain();
  EXPECT_EQ(spans.size(), 200u);
  // Spans of one thread share an id; at least two distinct ids exist.
  std::set<std::uint64_t> ids;
  for (const auto& s : spans) ids.insert(s.thread_id);
  EXPECT_GE(ids.size(), 2u);
}

// ---- JSONL round trip ----

/// Pull `"key":<raw token>` out of a single-line JSON object. Good
/// enough for the flat objects the sinks emit.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  auto start = pos + needle.size();
  auto end = start;
  if (line[start] == '"') {
    ++start;
    end = line.find('"', start);
    while (end != std::string::npos && line[end - 1] == '\\')
      end = line.find('"', end + 1);
  } else {
    end = line.find_first_of(",}", start);
  }
  return line.substr(start, end - start);
}

TEST_F(TraceTest, SpansRoundTripThroughJsonl) {
  {
    DT_SPAN("alpha");
    { DT_SPAN("beta \"quoted\""); }
  }

  auto buffer = std::make_unique<std::ostringstream>();
  std::ostringstream& out = *buffer;
  JsonlSink sink(std::move(buffer));
  for (auto& span : TraceRecorder::global().drain()) {
    Event event("span");
    event.with("name", std::move(span.name))
        .with("depth", static_cast<std::int64_t>(span.depth))
        .with("start_s", span.start_s)
        .with("dur_s", span.duration_s);
    sink.write(event);
  }
  sink.flush();

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> parsed;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(json_field(line, "type"), "span");
    parsed.push_back(json_field(line, "name"));
    // Numeric fields parse back as doubles.
    const std::string dur = json_field(line, "dur_s");
    ASSERT_FALSE(dur.empty());
    EXPECT_GE(std::stod(dur), 0.0);
    const std::string depth = json_field(line, "depth");
    EXPECT_TRUE(depth == "0" || depth == "1");
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], "alpha");
  EXPECT_EQ(parsed[1], "beta \\\"quoted\\\"");  // escaped on the wire
}

TEST(EventJson, SerialisesAllFieldTypes) {
  Event event("t");
  event.with("b", true)
      .with("i", static_cast<std::int64_t>(-3))
      .with("u", static_cast<std::uint64_t>(7))
      .with("d", 0.5)
      .with("s", "x\ny");
  EXPECT_EQ(event_to_json(event),
            "{\"type\":\"t\",\"b\":true,\"i\":-3,\"u\":7,\"d\":0.5,"
            "\"s\":\"x\\ny\"}");
}

}  // namespace
}  // namespace dt::obs
