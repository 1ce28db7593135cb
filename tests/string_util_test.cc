#include "common/string_util.h"

#include <gtest/gtest.h>

namespace nomsky {
namespace {

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a<b<c", '<'), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a<<c", '<'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("<", '<'), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitSinglePiece) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "<"), "a<b<c");
  EXPECT_EQ(Join({}, "<"), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringUtilTest, ParseU64ConsumesEverythingOrFails) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "abc", "4x", " 4", "4 ", "-1", "+1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "'";
  }
}

TEST(StringUtilTest, ParseDoubleConsumesEverythingOrFails) {
  double v = 7.0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  v = 7.0;
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "0.5 ", "nan", "inf",
                          "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7.0) << "'" << bad << "'";
  }
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(5 * 1024 * 1024), "5.0 MB");
}

}  // namespace
}  // namespace nomsky
