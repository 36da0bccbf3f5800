// Unit tests for the report table and the flag parser.
#include <gtest/gtest.h>

#include <sstream>

#include "dsrt/stats/report.hpp"
#include "dsrt/util/flags.hpp"

namespace {

using dsrt::stats::Table;
using dsrt::util::Flags;

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "value"});
  t.add_row({"x", "1.0"});
  t.add_row({"longer", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"h1", "h2"});
  t.add_row({"a", "b"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "h1,h2\na,b\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(1.23456, 2), "1.23");
  EXPECT_EQ(Table::percent(0.403, 1), "40.3");
  EXPECT_EQ(Table::with_ci(0.5, 0.01, 2), "0.50 +- 0.01");
}

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesEqualsForm) {
  const auto f = make_flags({"--load=0.5", "--name=EQF"});
  EXPECT_DOUBLE_EQ(f.get("load", 0.0), 0.5);
  EXPECT_EQ(f.get("name", std::string("x")), "EQF");
}

TEST(Flags, BareFlagLeavesTheNextArgumentPositional) {
  // `sweep_cli run --resume abl_scale_quick`: the manifest stays a
  // positional argument, not the value of --resume.
  const auto f = make_flags({"--resume", "abl_scale_quick", "--reps", "4"});
  EXPECT_TRUE(f.get("resume", false));
  EXPECT_EQ(f.get("resume", std::string("x")), "");
  EXPECT_EQ(f.get("reps", std::string("x")), "");
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"abl_scale_quick", "4"}));
}

TEST(Flags, BareBooleanFlag) {
  const auto f = make_flags({"--quick"});
  EXPECT_TRUE(f.has("quick"));
  EXPECT_TRUE(f.get("quick", false));
  EXPECT_FALSE(f.get("absent", false));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make_flags({"--x=true"}).get("x", false));
  EXPECT_TRUE(make_flags({"--x=1"}).get("x", false));
  EXPECT_FALSE(make_flags({"--x=off"}).get("x", true));
  EXPECT_FALSE(make_flags({"--x=no"}).get("x", true));
}

TEST(Flags, FallbacksWhenAbsent) {
  const auto f = make_flags({});
  EXPECT_DOUBLE_EQ(f.get("horizon", 1e6), 1e6);
  EXPECT_EQ(f.get("s", std::string("d")), "d");
}

TEST(Flags, PositionalArguments) {
  const auto f = make_flags({"pos1", "--k=1", "pos2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(Flags, ThrowsOnUnparsableNumber) {
  const auto f = make_flags({"--load=abc"});
  EXPECT_THROW(f.get("load", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get("load", 0L), std::invalid_argument);
  EXPECT_THROW(f.get("load", false), std::invalid_argument);
}

}  // namespace
