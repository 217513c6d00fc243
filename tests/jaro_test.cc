#include "tglink/similarity/jaro.h"

#include <gtest/gtest.h>

namespace tglink {
namespace {

TEST(JaroTest, KnownValues) {
  // Classic textbook examples.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_NEAR(JaroSimilarity("jellyfish", "smellyfish"), 0.8963, 1e-3);
}

TEST(JaroTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", "a"), 1.0);
}

TEST(JaroWinklerTest, PrefixBoostsButNeverExceedsOne) {
  const double jaro = JaroSimilarity("ashworth", "ashword");
  const double jw = JaroWinklerSimilarity("ashworth", "ashword");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
}

TEST(JaroWinklerTest, KnownValue) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
}

TEST(JaroWinklerTest, NoCommonPrefixEqualsJaro) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("xanthe", "anthex"),
                   JaroSimilarity("xanthe", "anthex"));
}

class JaroPropertyTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(JaroPropertyTest, SymmetricBoundedAndReflexive) {
  const auto& [a, b] = GetParam();
  const double ab = JaroSimilarity(a, b);
  EXPECT_DOUBLE_EQ(ab, JaroSimilarity(b, a));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity(a, a), 1.0);
  const double jw = JaroWinklerSimilarity(a, b);
  EXPECT_DOUBLE_EQ(jw, JaroWinklerSimilarity(b, a));
  EXPECT_GE(jw + 1e-12, ab);
  EXPECT_LE(jw, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    NamePairs, JaroPropertyTest,
    ::testing::Values(std::make_pair("ashworth", "ashword"),
                      std::make_pair("elizabeth", "elisabeth"),
                      std::make_pair("john", "jhon"),
                      std::make_pair("steve", "stephen"),
                      std::make_pair("", "x"),
                      std::make_pair("riley", "reilly"),
                      std::make_pair("ab", "ba"),
                      std::make_pair("smith", "smyth")));

}  // namespace
}  // namespace tglink
