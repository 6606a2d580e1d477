#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"

namespace dt {
namespace {

TEST(Config, ParsesKeyValueText) {
  const auto cfg = Config::from_text(
      "alpha = 1\n"
      "name= hea  \n"
      "# a comment\n"
      "\n"
      "rate = 0.5 # trailing comment\n");
  EXPECT_EQ(cfg.get_int("alpha", 0), 1);
  EXPECT_EQ(cfg.get_string("name", ""), "hea");
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 0.5);
}

TEST(Config, MissingKeysFallBack) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("nope", 7), 7);
  EXPECT_EQ(cfg.get_string("nope", "x"), "x");
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 1.5), 1.5);
  EXPECT_TRUE(cfg.get_bool("nope", true));
  EXPECT_FALSE(cfg.has("nope"));
}

TEST(Config, CommandLineOverrides) {
  Config cfg = Config::from_text("n = 4\n");
  const char* argv[] = {"prog", "--n=8", "--verbose", "input.txt"};
  cfg.update_from_args(4, argv);
  EXPECT_EQ(cfg.get_int("n", 0), 8);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "input.txt");
}

TEST(Config, BooleanSpellings) {
  Config cfg;
  cfg.set("a", "true");
  cfg.set("b", "0");
  cfg.set("c", "yes");
  cfg.set("d", "off");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, TypeErrorsThrow) {
  Config cfg;
  cfg.set("n", "abc");
  EXPECT_THROW((void)cfg.get_int("n", 0), Error);
  EXPECT_THROW((void)cfg.get_double("n", 0.0), Error);
  EXPECT_THROW((void)cfg.get_bool("n", false), Error);
  // Out of range: no saturating to INT64_MAX / INT64_MIN, no inf or nan.
  cfg.set("big", "99999999999999999999");
  EXPECT_THROW((void)cfg.get_int("big", 0), Error);
  cfg.set("big", "-99999999999999999999");
  EXPECT_THROW((void)cfg.get_int("big", 0), Error);
  cfg.set("huge", "1e999");
  EXPECT_THROW((void)cfg.get_double("huge", 0.0), Error);
  cfg.set("huge", "-1e999");
  EXPECT_THROW((void)cfg.get_double("huge", 0.0), Error);
  cfg.set("huge", "inf");
  EXPECT_THROW((void)cfg.get_double("huge", 0.0), Error);
  cfg.set("huge", "nan");
  EXPECT_THROW((void)cfg.get_double("huge", 0.0), Error);
  // The edges themselves still parse.
  cfg.set("edge", "9223372036854775807");
  EXPECT_EQ(cfg.get_int("edge", 0), INT64_MAX);
  cfg.set("edge", "1.7976931348623157e308");
  EXPECT_EQ(cfg.get_double("edge", 0.0), 1.7976931348623157e308);
}

// get_int_as rejects what the target type cannot hold instead of wrapping:
// 2^32 + 2 into an int would otherwise run 2 cells, -1 into a seed 2^64-1.
TEST(Config, NarrowingGetterRejectsWhatTheTypeCannotHold) {
  Config cfg;
  EXPECT_EQ(cfg.get_int_as("unset", 7), 7);
  cfg.set("cells", "4294967298");
  EXPECT_THROW((void)cfg.get_int_as<int>("cells", 3), Error);
  EXPECT_EQ(cfg.get_int_as<std::int64_t>("cells", 3), 4294967298);
  cfg.set("cells", "-2147483649");
  EXPECT_THROW((void)cfg.get_int_as<std::int32_t>("cells", 3), Error);
  cfg.set("seed", "-1");
  EXPECT_THROW((void)cfg.get_int_as<std::uint64_t>("seed", 1), Error);
  EXPECT_THROW((void)cfg.get_int_as<std::size_t>("seed", 1), Error);
  EXPECT_EQ(cfg.get_int_as<int>("seed", 1), -1);
  // The edges of the target type still parse.
  cfg.set("edge", "2147483647");
  EXPECT_EQ(cfg.get_int_as<std::int32_t>("edge", 0), INT32_MAX);
  cfg.set("edge", "-2147483648");
  EXPECT_EQ(cfg.get_int_as<std::int32_t>("edge", 0), INT32_MIN);
  cfg.set("edge", "0");
  EXPECT_EQ(cfg.get_int_as<std::uint64_t>("edge", 1), 0U);
  cfg.set("edge", "9223372036854775807");
  EXPECT_EQ(cfg.get_int_as<std::uint64_t>("edge", 1),
            std::uint64_t{INT64_MAX});
  // The message names the key.
  cfg.set("seed", "-1");
  try {
    (void)cfg.get_int_as<std::uint64_t>("seed", 1);
    FAIL() << "no throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos)
        << e.what();
  }
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW((void)Config::from_text("just a line without equals\n"), Error);
}

TEST(Config, ItemsAreSorted) {
  Config cfg;
  cfg.set("zeta", "1");
  cfg.set("alpha", "2");
  const auto items = cfg.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "alpha");
  EXPECT_EQ(items[1].first, "zeta");
}

TEST(Config, LaterSetWins) {
  Config cfg;
  cfg.set("k", "1");
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}


TEST(Config, UnreadKeysFailNamingTheNearestReadKey) {
  Config cfg = Config::from_text("decode_plane = true\n");
  const char* argv[] = {"prog", "--decode_plan=true", "--global_fracton=0.2"};
  cfg.update_from_args(3, argv);
  EXPECT_TRUE(cfg.get_bool("decode_plane", false));
  EXPECT_DOUBLE_EQ(cfg.get_double("global_fraction", 0.05), 0.05);
  EXPECT_EQ(cfg.get_int("seed", 1), 1);  // read but unset: a known key
  try {
    cfg.require_all_read();
    FAIL() << "unread keys were accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'decode_plan' -- did you mean 'decode_plane'?"),
              std::string::npos)
        << what;
    EXPECT_NE(
        what.find("'global_fracton' -- did you mean 'global_fraction'?"),
        std::string::npos)
        << what;
    EXPECT_EQ(what.find("'seed'"), std::string::npos) << what;
  }
}

TEST(Config, EveryKeyReadPasses) {
  Config cfg = Config::from_text("seed = 3\nname = hea\n");
  EXPECT_EQ(cfg.get_int("seed", 1), 3);
  EXPECT_THROW(cfg.require_all_read(), Error);  // name is still unread
  EXPECT_EQ(cfg.get_string("name", ""), "hea");
  EXPECT_NO_THROW(cfg.require_all_read());
}

}  // namespace
}  // namespace dt
