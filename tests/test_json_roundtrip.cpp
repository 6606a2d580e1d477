// Round-trip property tests for the JSON writer helpers and the config
// store. Run under the ASan/UBSan gate (scripts/check.sh).
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "validate/stats.hpp"

namespace dt {
namespace {

using validate::effective_test_seed;
using validate::seed_trace;

TEST(JsonRoundTrip, NumbersParseBackAndControlsEscape) {
  const std::uint64_t seed = effective_test_seed(4242);
  SCOPED_TRACE(seed_trace(seed));
  Philox4x32 rng(seed, 0);
  // json_number: every finite double parses back with strtod bit for
  // bit, whichever of its two precisions it picked.
  std::vector<double> numbers = {0.0,     -0.0,    1.0,     -1000.0, 0.1,
                                 1e-300,  1.7e308, 5e-324,  2.5e-8,  -3e17};
  for (int i = 0; i < 2000; ++i) {
    const double x = (uniform01(rng) - 0.5) *
                     std::pow(10.0, static_cast<double>(
                                        uniform_index(rng, 40)) - 20.0);
    numbers.push_back(x);
  }
  for (const double x : numbers) {
    const std::string text = json_number(x);
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    EXPECT_EQ(*end, '\0') << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(x))
        << text;
  }
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(-HUGE_VAL), "null");

  // json_escape: quotes, backslashes and every control character are
  // escaped, so no raw byte below 0x20 reaches the output; other bytes
  // (UTF-8 included) pass through.
  std::string all;
  for (int c = 1; c < 0x20; ++c) all += static_cast<char>(c);
  const std::string escaped = json_escape(all + "\"\\\xc3\xa9");
  for (const char c : escaped)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << escaped;
  EXPECT_EQ(json_escape("\n\r\t\x01\x1f"), "\\n\\r\\t\\u0001\\u001f");
  EXPECT_EQ(json_escape("a\"b\\c\xc3\xa9"), "a\\\"b\\\\c\xc3\xa9");
}

// ---- config round trips ---------------------------------------------------

std::string config_text(const Config& cfg) {
  std::string out;
  for (const auto& [k, v] : cfg.items()) out += k + " = " + v + "\n";
  return out;
}

TEST(ConfigRoundTrip, RandomConfigsSurviveEmitParse) {
  const std::uint64_t seed = effective_test_seed(4244);
  SCOPED_TRACE(seed_trace(seed));
  Philox4x32 rng(seed, 2);
  static const std::string_view key_chars =
      "abcdefghijklmnopqrstuvwxyz_.-0123456789";
  static const std::string_view val_chars =
      "abcXYZ 019_-./:+=!?[]{}";  // no '#', no newline: the text format's
                                  // comment/line structure is the limit
  for (int trial = 0; trial < 200; ++trial) {
    Config cfg;
    const auto n = 1 + uniform_index(rng, 8);
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      const auto klen = 1 + uniform_index(rng, 10);
      for (std::size_t j = 0; j < klen; ++j)
        key += key_chars[uniform_index(rng, key_chars.size())];
      std::string value;
      const auto vlen = 1 + uniform_index(rng, 14);
      for (std::size_t j = 0; j < vlen; ++j)
        value += val_chars[uniform_index(rng, val_chars.size())];
      // The "key = value" format trims surrounding whitespace.
      if (value.front() == ' ') value.front() = 'x';
      if (value.back() == ' ') value.back() = 'x';
      cfg.set(key, value);
    }
    const std::string text = config_text(cfg);
    const Config back = Config::from_text(text);
    EXPECT_EQ(back.items(), cfg.items()) << text;
    // Emit -> parse -> emit is a fixed point.
    EXPECT_EQ(config_text(back), text);
  }
}

TEST(ConfigRoundTrip, CommentsAndBlanksAreStructural) {
  const auto cfg = Config::from_text(
      "# header\n\n a = 1 \nb = two # not a comment?\n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_TRUE(cfg.has("b"));
}

}  // namespace
}  // namespace dt
