// Tests for the tool command-line parser (tools/cli.h).

#include "tools/cli.h"

#include <gtest/gtest.h>

namespace cs2p::cli {
namespace {

ArgParser make_parser() {
  ArgParser parser("tool", "test parser");
  parser.add_option("name", "a string option", "default");
  parser.add_option("count", "an integer option", "3");
  parser.add_option("rate", "a double option", "0.5");
  parser.add_option("empty", "an option without default");
  return parser;
}

bool parse(ArgParser& parser, std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  argv_strings.insert(argv_strings.begin(), "tool");
  for (auto& s : argv_strings) argv.push_back(s.data());
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApply) {
  ArgParser parser = make_parser();
  ASSERT_TRUE(parse(parser, {}));
  EXPECT_EQ(parser.get("name"), "default");
  EXPECT_EQ(parser.get_int<long>("count"), 3);
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.5);
  EXPECT_FALSE(parser.has("empty"));
}

TEST(Cli, SpaceSeparatedValues) {
  ArgParser parser = make_parser();
  ASSERT_TRUE(parse(parser, {"--name", "custom", "--count", "7"}));
  EXPECT_EQ(parser.get("name"), "custom");
  EXPECT_EQ(parser.get_int<long>("count"), 7);
}

TEST(Cli, EqualsForm) {
  ArgParser parser = make_parser();
  ASSERT_TRUE(parse(parser, {"--rate=1.25", "--empty=x"}));
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 1.25);
  EXPECT_TRUE(parser.has("empty"));
  EXPECT_EQ(parser.get("empty"), "x");
}

TEST(Cli, UnknownFlagRejected) {
  ArgParser parser = make_parser();
  EXPECT_FALSE(parse(parser, {"--nope", "1"}));
}

TEST(Cli, MissingValueRejected) {
  ArgParser parser = make_parser();
  EXPECT_FALSE(parse(parser, {"--name"}));
}

TEST(Cli, PositionalRejected) {
  ArgParser parser = make_parser();
  EXPECT_FALSE(parse(parser, {"stray"}));
}

TEST(Cli, HelpShortCircuits) {
  ArgParser parser = make_parser();
  EXPECT_FALSE(parse(parser, {"--help"}));
}

// A numeric flag must parse whole: std::stol("1e4") alone reads 1, and
// std::stod("0.5x") reads 0.5. A double flag must also be finite: std::stod
// reads "nan" and "inf", and a NaN bound switches off every check against it.
TEST(Cli, PartialNumbersRejected) {
  ArgParser parser = make_parser();
  ASSERT_TRUE(parse(parser, {"--count", "1e4", "--rate", "0.5x"}));
  try {
    parser.get_int<long>("count");
    ADD_FAILURE() << "--count 1e4 read as a number";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parser.get_double("rate"), std::invalid_argument);
  for (const std::string bad : {"", "x", "7 ", "3.5", "99999999999999999999"}) {
    ASSERT_TRUE(parse(parser, {"--count", bad}));
    EXPECT_THROW(parser.get_int<long>("count"), std::invalid_argument)
        << "'" << bad << "'";
  }
  for (const std::string bad : {"nan", "inf", "-inf", "1e999"}) {
    ASSERT_TRUE(parse(parser, {"--rate", bad}));
    try {
      parser.get_double("rate");
      ADD_FAILURE() << "--rate " << bad << " read as a number";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos) << e.what();
    }
  }
  ASSERT_TRUE(parse(parser, {"--count", "-12", "--rate", "1e4"}));
  EXPECT_EQ(parser.get_int<long>("count"), -12);
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 1e4);
}

// Integer flags read into their target type: a value outside the type is an
// error naming the flag, not a wrapped cast (-1 as size_t is SIZE_MAX).
TEST(Cli, IntegersMustFitTheirType) {
  ArgParser parser = make_parser();
  ASSERT_TRUE(parse(parser, {"--count", "16"}));
  EXPECT_EQ(parser.get_int<std::size_t>("count"), 16u);
  EXPECT_EQ(parser.get_int<int>("count"), 16);
  ASSERT_TRUE(parse(parser, {"--count", "-1"}));
  EXPECT_EQ(parser.get_int<int>("count"), -1);
  EXPECT_EQ(parser.get_int<long>("count"), -1);
  for (const std::string bad : {"-1", "-9223372036854775808"}) {
    ASSERT_TRUE(parse(parser, {"--count", bad}));
    try {
      parser.get_int<std::size_t>("count");
      ADD_FAILURE() << "'" << bad << "' read as a size_t";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos) << e.what();
    }
    EXPECT_THROW(parser.get_int<std::uint64_t>("count"), std::invalid_argument);
  }
  ASSERT_TRUE(parse(parser, {"--count", "2147483648"}));  // INT_MAX + 1
  EXPECT_THROW(parser.get_int<int>("count"), std::invalid_argument);
  EXPECT_EQ(parser.get_int<std::size_t>("count"), 2147483648u);
  ASSERT_TRUE(parse(parser, {"--count", "9223372036854775807"}));
  EXPECT_EQ(parser.get_int<std::uint64_t>("count"), 9223372036854775807u);
  ASSERT_TRUE(parse(parser, {"--count", "1"}));
  EXPECT_TRUE(parser.get_int<bool>("count"));
  ASSERT_TRUE(parse(parser, {"--count", "2"}));
  EXPECT_THROW(parser.get_int<bool>("count"), std::invalid_argument);
  ASSERT_TRUE(parse(parser, {"--count", "1e4"}));  // still whole-value parsing
  EXPECT_THROW(parser.get_int<std::size_t>("count"), std::invalid_argument);
}

TEST(Cli, PortListsParseStrictly) {
  EXPECT_EQ(parse_ports("peers", "9001,9002"),
            (std::vector<std::uint16_t>{9001, 9002}));
  EXPECT_EQ(parse_ports("peers", "1,,65535,"),
            (std::vector<std::uint16_t>{1, 65535}));
  EXPECT_TRUE(parse_ports("peers", "").empty());
  // std::stol alone reads "9o02" as 9 and "1e4" as 1: each would push
  // snapshots to the wrong port.
  for (const std::string bad : {"9001,9o02", "1e4", "9001,x", "0", "65536",
                                "-9001", "9001,70000", "9001;9002"}) {
    try {
      parse_ports("peers", bad);
      ADD_FAILURE() << "'" << bad << "' parsed as a port list";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--peers"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, SinglePortsParseStrictly) {
  EXPECT_EQ(parse_port("port", "0"), 0u);  // ephemeral, or "off" for --sync-from
  EXPECT_EQ(parse_port("port", "9471"), 9471u);
  EXPECT_EQ(parse_port("sync-from", "65535"), 65535u);
  // A narrowing cast served --port 70000 on 4464.
  for (const std::string bad : {"70000", "65536", "-1", "1e4", "90x", "", "9001,9002"}) {
    for (const std::string flag : {"port", "sync-from"}) {
      try {
        parse_port(flag, bad);
        ADD_FAILURE() << "'" << bad << "' parsed as a port for --" << flag;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Cli, UnregisteredAccessThrows) {
  const ArgParser parser = make_parser();
  EXPECT_THROW(parser.get("never-registered"), std::logic_error);
}

TEST(Cli, UsageMentionsOptions) {
  ArgParser parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("default: 3"), std::string::npos);
}

}  // namespace
}  // namespace cs2p::cli
