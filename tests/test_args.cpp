#include <gtest/gtest.h>

#include "util/args.hpp"
#include "util/error.hpp"

namespace ddnn {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args};
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser p("prog", "test");
  p.add_option("epochs", "epochs", "40").add_flag("verbose", "verbosity");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("epochs"), 40);
  EXPECT_FALSE(p.has_flag("verbose"));
}

TEST(ArgParser, SpaceAndEqualsForms) {
  ArgParser p("prog", "test");
  p.add_option("epochs", "", "1").add_option("lr", "", "0.1");
  const auto argv = argv_of({"prog", "--epochs", "7", "--lr=0.5"});
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("epochs"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("lr"), 0.5);
}

TEST(ArgParser, FlagsAndPositionals) {
  ArgParser p("prog", "test");
  p.add_flag("verbose", "");
  const auto argv = argv_of({"prog", "input.bin", "--verbose", "more"});
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(p.has_flag("verbose"));
  ASSERT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "input.bin");
  EXPECT_EQ(p.positionals()[1], "more");
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p("prog", "test");
  p.add_option("x", "", "1");
  const auto argv = argv_of({"prog", "--help"});
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  ArgParser p("prog", "test");
  p.add_option("epochs", "", "1").add_flag("verbose", "");
  {
    const auto argv = argv_of({"prog", "--nope"});
    EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()), Error);
  }
  {
    ArgParser q("prog", "test");
    q.add_option("epochs", "", "1");
    const auto argv = argv_of({"prog", "--epochs"});
    EXPECT_THROW(q.parse(static_cast<int>(argv.size()), argv.data()), Error);
  }
  {
    ArgParser q("prog", "test");
    q.add_flag("verbose", "");
    const auto argv = argv_of({"prog", "--verbose=yes"});
    EXPECT_THROW(q.parse(static_cast<int>(argv.size()), argv.data()), Error);
  }
}

TEST(ArgParser, TypedGettersValidate) {
  ArgParser p("prog", "test");
  p.add_option("epochs", "", "x");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(p.get_int("epochs"), Error);
  EXPECT_THROW(p.get("missing"), Error);
  EXPECT_THROW(p.has_flag("epochs"), Error);  // option, not a flag
}

TEST(ArgParser, RangeValidatedGettersRejectOutOfRangeNamingTheFlag) {
  ArgParser p("prog", "test");
  p.add_option("mem-budget", "", "0")
      .add_option("fleet-devices", "", "0")
      .add_option("fleet-edges", "", "4")
      .add_option("fleet-arrival-hz", "", "200")
      .add_option("fleet-batch-growth", "", "0.25");
  const auto argv = argv_of({"prog", "--mem-budget", "-5", "--fleet-edges",
                             "0", "--fleet-arrival-hz=0",
                             "--fleet-batch-growth=-0.1"});
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));

  // In-range values pass through.
  EXPECT_EQ(p.get_int_at_least("fleet-devices", 0), 0);

  // Out-of-range values fail loudly, naming the offending flag.
  try {
    p.get_int_at_least("mem-budget", 0);
    FAIL() << "negative --mem-budget must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--mem-budget"), std::string::npos);
  }
  EXPECT_THROW(p.get_int_at_least("fleet-edges", 1), Error);
  EXPECT_THROW(p.get_double_greater_than("fleet-arrival-hz", 0.0), Error);
  EXPECT_THROW(p.get_double_at_least("fleet-batch-growth", 0.0), Error);
}

TEST(ArgParser, RangeValidatedGettersStillRejectNonNumericInput) {
  ArgParser p("prog", "test");
  p.add_option("mem-budget", "", "0").add_option("fleet-arrival-hz", "", "1");
  const auto argv =
      argv_of({"prog", "--mem-budget=lots", "--fleet-arrival-hz=fast"});
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(p.get_int_at_least("mem-budget", 0), Error);
  EXPECT_THROW(p.get_double_greater_than("fleet-arrival-hz", 0.0), Error);
}

TEST(ArgParser, UsageListsOptionsAndDefaults) {
  ArgParser p("prog", "The test tool.");
  p.add_option("epochs", "training epochs", "40").add_flag("verbose", "talk");
  const std::string u = p.usage();
  EXPECT_NE(u.find("--epochs"), std::string::npos);
  EXPECT_NE(u.find("(default: 40)"), std::string::npos);
  EXPECT_NE(u.find("--verbose"), std::string::npos);
  EXPECT_NE(u.find("The test tool."), std::string::npos);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser p("prog", "test");
  p.add_option("x", "", "1");
  EXPECT_THROW(p.add_flag("x", ""), Error);
}

TEST(ParseIntList, SplitsAndValidates) {
  EXPECT_EQ(parse_int_list("1,2,3"), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(parse_int_list(""), (std::vector<int>{}));
  EXPECT_EQ(parse_int_list("7"), (std::vector<int>{7}));
  EXPECT_EQ(parse_int_list("-1,0"), (std::vector<int>{-1, 0}));
  EXPECT_THROW(parse_int_list("1,x"), Error);
}

TEST(ParseInt, WholeStringInt64OrNothing) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_int(""), std::nullopt);
  EXPECT_EQ(parse_int("abc"), std::nullopt);
  EXPECT_EQ(parse_int("5x"), std::nullopt);
  EXPECT_EQ(parse_int("1.5"), std::nullopt);
  // Past 64 bits is an error, not a clamp to INT64_MAX.
  EXPECT_EQ(parse_int("9223372036854775808"), std::nullopt);
  EXPECT_EQ(parse_int("-99999999999999999999"), std::nullopt);
}

}  // namespace
}  // namespace ddnn
