#include "tglink/census/profile.h"

#include <gtest/gtest.h>

#include "tglink/synth/generator.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

TEST(ProfileTest, AttributeFillRates) {
  const DatasetProfile profile = ProfileDataset(MakeCensus1871());
  ASSERT_EQ(profile.attributes.size(), 6u);
  for (const AttributeProfile& ap : profile.attributes) {
    EXPECT_EQ(ap.present + ap.missing, 8u);
    if (ap.field == Field::kFirstName) {
      EXPECT_DOUBLE_EQ(ap.fill_rate(), 1.0);
      EXPECT_EQ(ap.distinct, 5u);  // john, elizabeth, alice, william, steve
    }
  }
}

TEST(ProfileTest, Histograms) {
  const DatasetProfile profile = ProfileDataset(MakeCensus1871());
  EXPECT_EQ(profile.household_size_histogram[5], 1u);  // g_a
  EXPECT_EQ(profile.household_size_histogram[3], 1u);  // g_b
  // Ages: 39,37,8,2,62,41,40,17 -> decades 3:39,37 0:8,2 6:62 4:41,40 1:17.
  EXPECT_EQ(profile.age_histogram[0], 2u);
  EXPECT_EQ(profile.age_histogram[3], 2u);
  EXPECT_EQ(profile.age_histogram[6], 1u);
}

TEST(ProfileTest, CleanExampleHasNoWarnings) {
  const DatasetProfile profile = ProfileDataset(MakeCensus1871());
  EXPECT_TRUE(profile.warnings.empty())
      << profile.warnings.front().detail;
}

TEST(ProfileTest, DetectsNoHead) {
  CensusDataset d(1871);
  d.AddHousehold("h", {MakeRecord("r1", "a", "x", Sex::kMale, 30,
                                  Role::kLodger, "", "")});
  const DatasetProfile profile = ProfileDataset(d);
  ASSERT_EQ(profile.warnings.size(), 1u);
  EXPECT_EQ(profile.warnings[0].kind, ConsistencyWarning::Kind::kNoHead);
}

TEST(ProfileTest, DetectsMultipleHeadsAndMaleWife) {
  CensusDataset d(1871);
  d.AddHousehold(
      "h", {MakeRecord("r1", "a", "x", Sex::kMale, 30, Role::kHead, "", ""),
            MakeRecord("r2", "b", "x", Sex::kMale, 31, Role::kHead, "", ""),
            MakeRecord("r3", "c", "x", Sex::kMale, 29, Role::kWife, "", "")});
  const DatasetProfile profile = ProfileDataset(d);
  bool multiple = false, male_wife = false;
  for (const ConsistencyWarning& w : profile.warnings) {
    multiple |= w.kind == ConsistencyWarning::Kind::kMultipleHeads;
    male_wife |= w.kind == ConsistencyWarning::Kind::kMaleWife;
  }
  EXPECT_TRUE(multiple);
  EXPECT_TRUE(male_wife);
}

TEST(ProfileTest, DetectsImplausibleParentAndAges) {
  CensusDataset d(1871);
  d.AddHousehold(
      "h", {MakeRecord("r1", "a", "x", Sex::kMale, 30, Role::kHead, "", ""),
            MakeRecord("r2", "b", "x", Sex::kMale, 25, Role::kSon, "", ""),
            MakeRecord("r3", "c", "x", Sex::kFemale, 110, Role::kMother, "",
                       "")});
  const DatasetProfile profile = ProfileDataset(d);
  bool parent = false, implausible_age = false;
  for (const ConsistencyWarning& w : profile.warnings) {
    parent |= w.kind == ConsistencyWarning::Kind::kImplausibleParent;
    implausible_age |= w.kind == ConsistencyWarning::Kind::kImplausibleAge;
  }
  EXPECT_TRUE(parent) << "5-year parent-child gap must warn";
  EXPECT_TRUE(implausible_age);
}

TEST(ProfileTest, WarningCapRespected) {
  CensusDataset d(1871);
  for (int i = 0; i < 10; ++i) {
    d.AddHousehold(NumberedId("h", i),
                   {MakeRecord(NumberedId("r", i), "a", "x", Sex::kMale,
                               30, Role::kLodger, "", "")});
  }
  EXPECT_EQ(ProfileDataset(d, 3).warnings.size(), 3u);
  EXPECT_EQ(ProfileDataset(d, 0).warnings.size(), 10u);
}

TEST(ProfileTest, SyntheticDataIsLargelyConsistent) {
  GeneratorConfig gen;
  gen.seed = 9;
  gen.scale = 0.05;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  const DatasetProfile profile = ProfileDataset(pair.old_dataset, 0);
  // Corruption produces a few warnings (age misstatement, missing heads
  // from missing-value corruption is impossible — roles are never blanked —
  // but implausible parent gaps can appear); they must stay rare.
  EXPECT_LT(profile.warnings.size(), pair.old_dataset.num_households() / 5);
  EXPECT_FALSE(profile.ToString().empty());
}

}  // namespace
}  // namespace tglink
