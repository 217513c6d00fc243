// Edge-case and robustness suite: degenerate datasets, extreme
// configurations, and parser behaviour on adversarial input.

#include <gtest/gtest.h>

#include "tglink/census/io.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/iterative.h"
#include "tglink/util/csv.h"
#include "tglink/util/random.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

TEST(EdgeCaseTest, LinkingEmptyDatasets) {
  const CensusDataset empty_old(1871);
  const CensusDataset empty_new(1881);
  const LinkageResult result =
      LinkCensusPair(empty_old, empty_new, configs::DefaultConfig());
  EXPECT_EQ(result.record_mapping.size(), 0u);
  EXPECT_EQ(result.group_mapping.size(), 0u);
}

TEST(EdgeCaseTest, LinkingEmptyAgainstNonEmpty) {
  const CensusDataset empty_old(1871);
  const CensusDataset new_d = MakeCensus1881();
  const LinkageResult result =
      LinkCensusPair(empty_old, new_d, configs::DefaultConfig());
  EXPECT_EQ(result.record_mapping.size(), 0u);
}

TEST(EdgeCaseTest, SingleHouseholdEachSide) {
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "h", {MakeRecord("o1", "john", "holt", Sex::kMale, 30, Role::kHead,
                       "mill street", "weaver"),
            MakeRecord("o2", "mary", "holt", Sex::kFemale, 28, Role::kWife,
                       "mill street", "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h", {MakeRecord("n1", "john", "holt", Sex::kMale, 40, Role::kHead,
                       "mill street", "weaver"),
            MakeRecord("n2", "mary", "holt", Sex::kFemale, 38, Role::kWife,
                       "mill street", "")});
  const LinkageResult result =
      LinkCensusPair(old_d, new_d, configs::DefaultConfig());
  EXPECT_EQ(result.record_mapping.size(), 2u);
  EXPECT_TRUE(result.group_mapping.Contains(0, 0));
}

TEST(EdgeCaseTest, AllRecordsIdenticallyNamed) {
  // Pathological ambiguity: every person is "john smith". The algorithm
  // must stay 1:1 and not crash; edge structure is the only signal.
  CensusDataset old_d(1871);
  CensusDataset new_d(1881);
  for (int h = 0; h < 4; ++h) {
    std::vector<PersonRecord> old_members, new_members;
    for (int m = 0; m < 3; ++m) {
      const int age = 20 + 10 * h + m;
      old_members.push_back(MakeRecord(
          NumberedId(NumberedId("o", h) + "_", m), "john", "smith",
          Sex::kMale, age, m == 0 ? Role::kHead : Role::kSon, "x", ""));
      new_members.push_back(MakeRecord(
          NumberedId(NumberedId("n", h) + "_", m), "john", "smith",
          Sex::kMale, age + 10, m == 0 ? Role::kHead : Role::kSon, "x", ""));
    }
    old_d.AddHousehold("oh" + std::to_string(h), std::move(old_members));
    new_d.AddHousehold("nh" + std::to_string(h), std::move(new_members));
  }
  LinkageConfig config = configs::DefaultConfig();
  config.blocking = BlockingConfig::MakeExhaustive();
  const LinkageResult result = LinkCensusPair(old_d, new_d, config);
  std::set<RecordId> olds, news;
  for (const RecordLink& link : result.record_mapping.links()) {
    EXPECT_TRUE(olds.insert(link.first).second);
    EXPECT_TRUE(news.insert(link.second).second);
  }
  // The distinct household age structures disambiguate: with the vertex
  // age gate, each household can only match its true counterpart.
  for (const RecordLink& link : result.record_mapping.links()) {
    EXPECT_EQ(old_d.record(link.first).group,
              new_d.record(link.second).group);
  }
}

TEST(EdgeCaseTest, DegenerateDeltaSchedules) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  // Single-iteration schedule.
  LinkageConfig one = configs::DefaultConfig();
  one.delta_high = one.delta_low = 0.6;
  EXPECT_EQ(LinkCensusPair(old_d, new_d, one).iterations.size(), 1u);
  // Step larger than the window: one iteration, then δ drops below δ_low.
  LinkageConfig big_step = configs::DefaultConfig();
  big_step.delta_step = 0.5;
  const LinkageResult result = LinkCensusPair(old_d, new_d, big_step);
  EXPECT_LE(result.iterations.size(), 2u);
  // Threshold above every similarity: no subgraph links, residual may still
  // operate.
  LinkageConfig unreachable = configs::DefaultConfig();
  unreachable.delta_high = unreachable.delta_low = 1.01;
  const LinkageResult none = LinkCensusPair(old_d, new_d, unreachable);
  for (const IterationStats& it : none.iterations) {
    EXPECT_EQ(it.accepted_subgraphs, 0u);
  }
}

TEST(EdgeCaseTest, MissingEverythingRecordsDoNotExplode) {
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "h", {MakeRecord("o1", "", "", Sex::kUnknown, -1, Role::kUnknown, "",
                       ""),
            MakeRecord("o2", "john", "holt", Sex::kMale, 30, Role::kHead, "",
                       "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h", {MakeRecord("n1", "", "", Sex::kUnknown, -1, Role::kUnknown, "",
                       ""),
            MakeRecord("n2", "john", "holt", Sex::kMale, 40, Role::kHead, "",
                       "")});
  const LinkageResult result =
      LinkCensusPair(old_d, new_d, configs::DefaultConfig());
  // The empty records must never be linked (coverage floor).
  EXPECT_FALSE(result.record_mapping.IsOldLinked(0));
}

TEST(EdgeCaseTest, CsvParserSurvivesRandomGarbage) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const size_t length = rng.NextBounded(200);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    // Must not crash; any Status outcome is acceptable.
    const auto result = ParseCsv(garbage);
    if (result.ok()) {
      for (const CsvRow& row : result.value()) {
        EXPECT_GE(row.size(), 1u);
      }
    }
  }
}

TEST(EdgeCaseTest, DatasetParserSurvivesQuasiValidGarbage) {
  Rng rng(2025);
  const std::string header =
      "record_id,household_id,first_name,surname,sex,age,role,address,"
      "occupation\n";
  for (int trial = 0; trial < 100; ++trial) {
    std::string body = header;
    const int rows = static_cast<int>(rng.NextBounded(5));
    for (int r = 0; r < rows; ++r) {
      const int cols = static_cast<int>(rng.NextBounded(12));
      for (int c = 0; c < cols; ++c) {
        if (c > 0) body.push_back(',');
        body.push_back(static_cast<char>('a' + rng.NextBounded(26)));
      }
      body.push_back('\n');
    }
    (void)DatasetFromCsv(body, 1871);  // must not crash
  }
}

TEST(EdgeCaseTest, ExtremeAgesSurviveThePipeline) {
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "h", {MakeRecord("o1", "john", "holt", Sex::kMale, 0, Role::kHead, "",
                       ""),
            MakeRecord("o2", "mary", "holt", Sex::kFemale, 104, Role::kMother,
                       "", "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h", {MakeRecord("n1", "john", "holt", Sex::kMale, 10, Role::kHead, "",
                       "")});
  const LinkageResult result =
      LinkCensusPair(old_d, new_d, configs::DefaultConfig());
  EXPECT_LE(result.record_mapping.size(), 1u);
}

}  // namespace
}  // namespace tglink
