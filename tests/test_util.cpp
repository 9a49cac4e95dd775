#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace dasm {
namespace {

// ------------------------------------------------------------------ checks

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(DASM_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(DASM_CHECK_MSG(true, "never shown"));
}

TEST(Check, FailureThrowsWithContext) {
  try {
    DASM_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

// ------------------------------------------------------------------- table

TEST(TableTest, AlignsColumnsAndPrintsHeaderRule) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "23456"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TableTest, NumberFormattingTrimsZeros) {
  EXPECT_EQ(Table::num(1.5), "1.5");
  EXPECT_EQ(Table::num(2.0), "2");
  EXPECT_EQ(Table::num(0.12345, 3), "0.123");
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
}

// --------------------------------------------------------------------- cli

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  // Note: "--flag value" consumes the next token, so bare boolean flags
  // must come last or use the --flag=true form.
  const char* argv[] = {"prog", "--n=10", "--eps", "0.5", "pos", "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 10);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(CliTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_FALSE(cli.has("n"));
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
  EXPECT_FALSE(cli.get_bool("b", false));
}

TEST(CliTest, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(CliTest, MalformedValuesThrow) {
  const char* argv[] = {"prog",       "--n=abc",  "--x=1.2.3", "--b=maybe",
                        "--m=12abc", "--e=0.5x", "--s=+3",    "--f=1e999"};
  Cli cli(8, argv);
  EXPECT_THROW(cli.get_int("n", 0), CheckError);
  EXPECT_THROW(cli.get_bool("b", false), CheckError);
  // A number is the whole token: a prefix parse would read 1.2, 12 and
  // 0.5 here.
  EXPECT_THROW(cli.get_double("x", 0.0), CheckError);
  EXPECT_THROW(cli.get_int("m", 0), CheckError);
  EXPECT_THROW(cli.get_double("e", 0.0), CheckError);
  EXPECT_THROW(cli.get_int("s", 0), CheckError);
  EXPECT_THROW(cli.get_double("f", 0.0), CheckError);
}

// ------------------------------------------------------------------- parse

TEST(ParseDouble, AcceptsWholeFiniteDecimalTokensOnly) {
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double("-1.5"), -1.5);
  EXPECT_EQ(parse_double("5e-1"), 0.5);
  EXPECT_EQ(parse_double("1"), 1.0);
  for (const char* bad : {"", "+0.5", " 0.5", "0.5 ", "0.5x", "1.2.3", "nan",
                          "inf", "-inf", "1e999", "0x1p-1", "."}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << '"' << bad << '"';
  }
}

}  // namespace
}  // namespace dasm
