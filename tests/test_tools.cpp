// ArgParser (tools/): flag parsing, typed accessors and their error
// reporting.  A malformed numeric flag must surface as invalid_argument
// naming the flag, not as a bare std::stod exception (which the tools
// print as the useless "stod").
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arg_parser.hpp"

namespace {

using mcnet::tools::ArgParser;

/// Build an ArgParser from a brace list (argv[0] included).
ArgParser make_parser(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& a : storage) argv.push_back(a.data());
  return {static_cast<int>(argv.size()), argv.data()};
}

TEST(ArgParser, ParsesKeyValueAndEqualsForms) {
  ArgParser p = make_parser({"prog", "--alpha", "1.5", "--beta=2", "--flag"});
  EXPECT_DOUBLE_EQ(p.get_double("alpha", 0.0, ""), 1.5);
  EXPECT_EQ(p.get_int("beta", 0, ""), 2);
  EXPECT_TRUE(p.get_flag("flag", ""));
  EXPECT_FALSE(p.get_flag("absent", ""));
  p.reject_unknown();
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  ArgParser p = make_parser({"prog"});
  EXPECT_DOUBLE_EQ(p.get_double("x", 3.25, ""), 3.25);
  EXPECT_EQ(p.get_int("n", -7, ""), -7);
}

TEST(ArgParser, MalformedDoubleNamesTheFlag) {
  ArgParser p = make_parser({"prog", "--interarrival-us", "fast"});
  try {
    (void)p.get_double("interarrival-us", 300.0, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--interarrival-us"), std::string::npos) << what;
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
  }
}

TEST(ArgParser, TrailingGarbageInNumberIsRejected) {
  ArgParser p = make_parser({"prog", "--x", "12abc", "--n", "7q"});
  EXPECT_THROW((void)p.get_double("x", 0.0, ""), std::invalid_argument);
  EXPECT_THROW((void)p.get_int("n", 0, ""), std::invalid_argument);
}

TEST(ArgParser, MalformedIntNamesTheFlag) {
  ArgParser p = make_parser({"prog", "--dests=many"});
  try {
    (void)p.get_int("dests", 10, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--dests"), std::string::npos) << e.what();
  }
}

TEST(ArgParser, OutOfRangeIntIsRejectedWithFlagName) {
  ArgParser p = make_parser({"prog", "--n", "999999999999999999999999"});
  try {
    (void)p.get_int("n", 0, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
  }
}

TEST(ArgParser, RejectsUnknownAndPositionalArguments) {
  EXPECT_THROW(make_parser({"prog", "positional"}), std::invalid_argument);
  ArgParser p = make_parser({"prog", "--known", "1", "--typo", "2"});
  EXPECT_EQ(p.get_int("known", 0, ""), 1);
  EXPECT_THROW(p.reject_unknown(), std::invalid_argument);
}

TEST(ArgParser, NegativeNumbersStillParse) {
  ArgParser p = make_parser({"prog", "--x=-2.5", "--n=-42"});
  EXPECT_DOUBLE_EQ(p.get_double("x", 0.0, ""), -2.5);
  EXPECT_EQ(p.get_int("n", 0, ""), -42);
}

// Integer flags narrowed into unsigned or 8-bit fields must be range-checked
// first: a bare cast runs --copies 257 with 1 copy and --runs -1 with
// 2^32 - 1 runs.
TEST(ArgParser, RangeCheckedIntNamesTheFlagAndRange) {
  ArgParser p = make_parser(
      {"prog", "--copies", "257", "--runs", "-1", "--dests", "12", "--lo", "1", "--hi=255"});
  const auto expect_range_error = [](const std::function<void()>& get, const char* flag,
                                     const char* range) {
    try {
      get();
      ADD_FAILURE() << "expected invalid_argument for " << flag;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(flag), std::string::npos) << what;
      EXPECT_NE(what.find(range), std::string::npos) << what;
    }
  };
  expect_range_error([&] { (void)p.get_int_in<std::uint8_t>("copies", 1, 1, 255, ""); },
                     "--copies", "[1, 255]");
  expect_range_error(
      [&] {
        (void)p.get_int_in<std::uint32_t>("runs", 1000, 1,
                                          std::numeric_limits<std::uint32_t>::max(), "");
      },
      "--runs", "[1, 4294967295]");
  EXPECT_EQ(p.get_int_in<std::uint32_t>("dests", 10, 1, 100, ""), 12u);
  EXPECT_EQ(p.get_int_in<std::uint8_t>("lo", 9, 1, 255, ""), 1u);    // bounds inclusive
  EXPECT_EQ(p.get_int_in<std::uint8_t>("hi", 9, 1, 255, ""), 255u);
  EXPECT_EQ(p.get_int_in<std::uint32_t>("flits", 128, 1, 1000, ""), 128u);  // default
  // A range the target type cannot hold is a programming error.
  EXPECT_THROW((void)p.get_int_in<std::uint8_t>("dests", 1, 0, 256, ""), std::logic_error);
}

}  // namespace
