// The published configuration presets must match the paper's Table 2 and
// Section 5.2 settings exactly — they are part of the reproduction surface.

#include "tglink/linkage/config.h"

#include <utility>

#include <gtest/gtest.h>

namespace tglink {
namespace {

TEST(ConfigTest, Omega1MatchesTable2) {
  const SimilarityFunction f = configs::Omega1();
  ASSERT_EQ(f.specs().size(), 5u);
  const AttributeSpec expected[] = {
      {Field::kFirstName, Measure::kQGramDice, 0.2},
      {Field::kSex, Measure::kExact, 0.2},
      {Field::kSurname, Measure::kQGramDice, 0.2},
      {Field::kAddress, Measure::kQGramDice, 0.2},
      {Field::kOccupation, Measure::kQGramDice, 0.2},
  };
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(f.specs()[i].field, expected[i].field) << i;
    EXPECT_EQ(f.specs()[i].measure, expected[i].measure) << i;
    EXPECT_DOUBLE_EQ(f.specs()[i].weight, expected[i].weight) << i;
  }
}

TEST(ConfigTest, Omega2MatchesTable2) {
  const SimilarityFunction f = configs::Omega2();
  ASSERT_EQ(f.specs().size(), 5u);
  EXPECT_DOUBLE_EQ(f.specs()[0].weight, 0.4);  // first name boosted
  EXPECT_DOUBLE_EQ(f.specs()[1].weight, 0.2);  // sex
  EXPECT_DOUBLE_EQ(f.specs()[2].weight, 0.2);  // surname
  EXPECT_DOUBLE_EQ(f.specs()[3].weight, 0.1);  // address reduced
  EXPECT_DOUBLE_EQ(f.specs()[4].weight, 0.1);  // occupation reduced
  double total = 0;
  for (const AttributeSpec& spec : f.specs()) total += spec.weight;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(ConfigTest, DefaultConfigMatchesSection5Settings) {
  const LinkageConfig config = configs::DefaultConfig();
  // δ_high = 0.7, Δ = 0.05, δ_low = 0.5 (Section 5.2.1).
  EXPECT_DOUBLE_EQ(config.delta_high, 0.70);
  EXPECT_DOUBLE_EQ(config.delta_step, 0.05);
  EXPECT_DOUBLE_EQ(config.delta_low, 0.50);
  // (α, β) = (0.2, 0.7), uniqueness weight 0.1 (Section 5.2.2).
  EXPECT_DOUBLE_EQ(config.group_weights.alpha, 0.2);
  EXPECT_DOUBLE_EQ(config.group_weights.beta, 0.7);
  EXPECT_NEAR(config.group_weights.uniqueness_weight(), 0.1, 1e-12);
  // Structural defaults.
  EXPECT_TRUE(config.enrich_groups);
  EXPECT_TRUE(config.context_residual);
  EXPECT_GT(config.edge_age_tolerance, 0);
}

TEST(ConfigTest, GroupScoreWeightsArithmetic) {
  const GroupScoreWeights w{0.33, 0.33};
  EXPECT_NEAR(w.uniqueness_weight(), 0.34, 1e-12);
  const GroupScoreWeights all_record{1.0, 0.0};
  EXPECT_DOUBLE_EQ(all_record.uniqueness_weight(), 0.0);
}

TEST(ConfigTest, ResidualSimFuncIncludesTemporalAge) {
  const SimilarityFunction f = configs::ResidualSimFunc();
  bool has_age = false;
  double total = 0;
  for (const AttributeSpec& spec : f.specs()) {
    has_age |= spec.field == Field::kAge;
    total += spec.weight;
  }
  EXPECT_TRUE(has_age);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(f.threshold(), configs::DefaultConfig().delta_high);
}

// SimBatch has a batched path only for bigram Dice, exact agreement and
// the age field; every other measure runs its scalar implementation. The
// shipped functions must stay within those, or the new measure needs its
// kernel back.
TEST(ConfigTest, ShippedFunctionsUseOnlyBatchedMeasures) {
  const LinkageConfig config = configs::DefaultConfig();
  const std::pair<const char*, SimilarityFunction> functions[] = {
      {"Omega1", configs::Omega1()},
      {"Omega2", configs::Omega2()},
      {"ResidualSimFunc", configs::ResidualSimFunc()},
      {"DefaultConfig().sim_func", config.sim_func},
      {"DefaultConfig().sim_func_rem", config.sim_func_rem},
  };
  for (const auto& [name, fn] : functions) {
    for (const AttributeSpec& spec : fn.specs()) {
      EXPECT_TRUE(spec.field == Field::kAge ||
                  spec.measure == Measure::kQGramDice ||
                  spec.measure == Measure::kExact)
          << name << " compares " << FieldName(spec.field) << " with "
          << MeasureName(spec.measure)
          << ", which SimBatch runs unbatched. ROADMAP rule: a kernel comes "
             "back only when a config uses its measure and a profile shows "
             "its fallback cost.";
    }
  }
}

TEST(ConfigTest, ThresholdParameterPropagates) {
  EXPECT_DOUBLE_EQ(configs::Omega1(0.42).threshold(), 0.42);
  EXPECT_DOUBLE_EQ(configs::Omega2(0.9).threshold(), 0.9);
  EXPECT_DOUBLE_EQ(configs::ResidualSimFunc(0.6).threshold(), 0.6);
}

}  // namespace
}  // namespace tglink
