#include "tglink/blocking/blocking.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "tglink/blocking/block_key.h"

#include "tglink/linkage/config.h"
#include "tglink/synth/generator.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using testing_example::MakeCensus1871;
using testing_example::MakeCensus1881;

TEST(BlockKeyTest, SoundexKeysStableUnderSpellingNoise) {
  PersonRecord a = testing_example::MakeRecord("1", "john", "ashworth",
                                               Sex::kMale, 30, Role::kHead,
                                               "", "");
  PersonRecord b = a;
  b.surname = "ashwerth";  // vowel-level noise
  EXPECT_EQ(SoundexSurnameFirstInitial()(a), SoundexSurnameFirstInitial()(b));
}

TEST(BlockKeyTest, EmptyNameYieldsEmptyKey) {
  PersonRecord a = testing_example::MakeRecord("1", "", "", Sex::kMale, 30,
                                               Role::kHead, "", "");
  EXPECT_EQ(SoundexSurnameFirstInitial()(a), "");
  EXPECT_EQ(SoundexFirstNameSurnameInitial()(a), "");
  EXPECT_EQ(SurnamePrefix(3)(a), "");
}

TEST(BlockingTest, ExhaustiveProducesCrossProduct) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const auto pairs = GenerateCandidatePairs(old_d, new_d,
                                            BlockingConfig::MakeExhaustive());
  EXPECT_EQ(pairs.size(), old_d.num_records() * new_d.num_records());
}

TEST(BlockingTest, PairsAreSortedAndUnique) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const auto pairs = GenerateCandidatePairs(old_d, new_d,
                                            BlockingConfig::MakeDefault());
  for (size_t i = 1; i < pairs.size(); ++i) {
    const auto prev = std::make_pair(pairs[i - 1].old_id, pairs[i - 1].new_id);
    const auto cur = std::make_pair(pairs[i].old_id, pairs[i].new_id);
    EXPECT_LT(prev, cur);
  }
}

TEST(BlockingTest, DefaultBlockingKeepsSameNamePairs) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const auto pairs = GenerateCandidatePairs(old_d, new_d,
                                            BlockingConfig::MakeDefault());
  std::set<std::pair<RecordId, RecordId>> set;
  for (const auto& p : pairs) set.emplace(p.old_id, p.new_id);
  // John Ashworth 1871_1 (record 0) vs 1881_1 (record 0) must be a candidate.
  EXPECT_TRUE(set.count({0, 0}));
  // Alice Ashworth (2) vs Alice Smith (6): caught by the first-name pass.
  EXPECT_TRUE(set.count({2, 6}));
}

TEST(BlockingTest, MaxPostingLenPrunesOversizedBlocks) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  BlockingConfig tiny = BlockingConfig::MakeDefault();
  tiny.max_posting_len = 1;  // every shared key is oversized
  tiny.fallback_window = 0;  // and the sorted-neighborhood net is off
  EXPECT_TRUE(GenerateCandidatePairs(old_d, new_d, tiny).empty());
}

// The load-bearing property: on realistic noisy data, multi-pass blocking
// must retain nearly all true matches (pair completeness) while generating
// far fewer candidates than the cross product.
TEST(BlockingTest, PairCompletenessOnSyntheticData) {
  GeneratorConfig config;
  config.seed = 7;
  config.scale = 0.05;  // ~165 households
  config.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(config, 0);

  auto resolved = ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset);
  ASSERT_TRUE(resolved.ok());

  const auto candidates = GenerateCandidatePairs(
      pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
  std::set<std::pair<RecordId, RecordId>> candidate_set;
  for (const auto& c : candidates) candidate_set.emplace(c.old_id, c.new_id);

  size_t found = 0;
  for (const RecordLink& link : resolved.value().record_links) {
    if (candidate_set.count(link)) ++found;
  }
  const double completeness =
      static_cast<double>(found) / resolved.value().record_links.size();
  EXPECT_GT(completeness, 0.93)
      << "blocking lost too many true matches: " << found << "/"
      << resolved.value().record_links.size();

  // Reduction ratio: candidates must be well below the cross product.
  const double cross = static_cast<double>(pair.old_dataset.num_records()) *
                       pair.new_dataset.num_records();
  EXPECT_LT(candidates.size(), cross * 0.25);
}

}  // namespace
}  // namespace tglink
