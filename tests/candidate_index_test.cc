// Edge-case and invariant tests for the inverted candidate index: the list
// primitives (galloping intersection, k-way union), empty posting lists,
// single-record blocks, duplicate keys per record, the all-keys-pruned
// regime, the sorted-neighborhood fallback window boundary, and the debug
// DCHECK contracts on the primitives.

#include "tglink/blocking/candidate_index.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/util/random.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using testing_example::MakeRecord;

std::set<std::pair<RecordId, RecordId>> PairSet(
    const std::vector<CandidatePair>& pairs) {
  std::set<std::pair<RecordId, RecordId>> set;
  for (const CandidatePair& p : pairs) set.emplace(p.old_id, p.new_id);
  return set;
}

/// One household per record keeps group structure out of the way.
CensusDataset SingleRecordCensus(
    int year, const std::vector<std::pair<std::string, std::string>>& names) {
  CensusDataset d(year);
  int i = 0;
  for (const auto& [first, last] : names) {
    const std::string id = std::to_string(year) + "_" + std::to_string(++i);
    d.AddHousehold("g" + id, {MakeRecord(id, first, last, Sex::kMale, 30,
                                         Role::kHead, "", "")});
  }
  return d;
}

TEST(GallopingIntersectTest, EmptyAndDisjointLists) {
  EXPECT_TRUE(GallopingIntersect({}, {}).empty());
  EXPECT_TRUE(GallopingIntersect({}, {1, 2, 3}).empty());
  EXPECT_TRUE(GallopingIntersect({1, 2, 3}, {}).empty());
  EXPECT_TRUE(GallopingIntersect({1, 3, 5}, {0, 2, 4}).empty());
}

TEST(GallopingIntersectTest, SubsetAndBoundaryElements) {
  const std::vector<RecordId> a = {2, 5, 9};
  const std::vector<RecordId> b = {0, 2, 3, 5, 7, 9, 11};
  EXPECT_EQ(GallopingIntersect(a, b), a);
  EXPECT_EQ(GallopingIntersect(b, a), a);  // order of arguments is immaterial
  EXPECT_EQ(GallopingIntersect({0}, {0}), std::vector<RecordId>{0});
  EXPECT_EQ(GallopingIntersect({11}, b), std::vector<RecordId>{11});
}

TEST(GallopingIntersectTest, AgreesWithSetIntersectionOnRandomLists) {
  Rng rng(2026);
  for (int round = 0; round < 50; ++round) {
    std::vector<RecordId> a, b;
    for (RecordId v = 0; v < 400; ++v) {
      if (rng.NextBounded(10) == 0) a.push_back(v);
      if (rng.NextBounded(3) == 0) b.push_back(v);  // skewed sizes on purpose
    }
    std::vector<RecordId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(GallopingIntersect(a, b), expected) << "round " << round;
  }
}

TEST(UnionSortedPostingsTest, DedupsAcrossLists) {
  EXPECT_TRUE(UnionSortedPostings({}).empty());
  const std::vector<RecordId> a = {1, 4, 7};
  const std::vector<RecordId> empty;
  const std::vector<RecordId> b = {2, 4, 9};
  const std::vector<RecordId> expected = {1, 2, 4, 7, 9};
  EXPECT_EQ(UnionSortedPostings({&a, &empty, &b}), expected);
  EXPECT_EQ(UnionSortedPostings({&a, &a, &a}), a);
}

TEST(CandidateIndexTest, EmptyDatasetsProduceNoPairs) {
  const CensusDataset empty_old(1871);
  const CensusDataset empty_new(1881);
  const CensusDataset some = SingleRecordCensus(1881, {{"john", "ashworth"}});
  const BlockingConfig config = BlockingConfig::MakeDefault();
  EXPECT_TRUE(
      CandidateIndex(empty_old, empty_new, config).GeneratePairs().empty());
  EXPECT_TRUE(CandidateIndex(empty_old, some, config).GeneratePairs().empty());
  EXPECT_EQ(CandidateIndex(empty_old, some, config).num_shards(), 0u);
}

// Records whose names produce only empty blocking keys never enter any
// posting list: they can't pair with anything, including each other.
TEST(CandidateIndexTest, EmptyKeysMeanEmptyPostingLists) {
  const CensusDataset old_d = SingleRecordCensus(1871, {{"", ""}});
  const CensusDataset new_d =
      SingleRecordCensus(1881, {{"", ""}, {"john", "ashworth"}});
  const CandidateIndex index(old_d, new_d,
                             BlockingConfig::MakeDefault());
  EXPECT_EQ(index.num_tokens(), 3u);  // john ashworth's three passes only
  EXPECT_TRUE(index.GeneratePairs().empty());
}

TEST(CandidateIndexTest, SingleRecordBlockEmitsExactlyOnePair) {
  const CensusDataset old_d = SingleRecordCensus(1871, {{"john", "ashworth"}});
  const CensusDataset new_d = SingleRecordCensus(
      1881, {{"john", "ashworth"}, {"peter", "greenwood"}});
  const std::vector<CandidatePair> pairs =
      CandidateIndex(old_d, new_d, BlockingConfig::MakeDefault())
          .GeneratePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].old_id, 0u);
  EXPECT_EQ(pairs[0].new_id, 0u);
}

// A record whose first name equals its surname produces the same key string
// from two passes; those are distinct tokens (per-pass key spaces, exactly
// like hash blocking), and the pair is still emitted exactly once.
TEST(CandidateIndexTest, DuplicateKeysPerRecordEmitOnce) {
  const CensusDataset old_d = SingleRecordCensus(1871, {{"smith", "smith"}});
  const CensusDataset new_d = SingleRecordCensus(1881, {{"smith", "smith"}});
  const CandidateIndex index(old_d, new_d,
                             BlockingConfig::MakeDefault());
  const std::vector<CandidatePair> pairs = index.GeneratePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].old_id, 0u);
  EXPECT_EQ(pairs[0].new_id, 0u);
  // "smith|smith" from pass 1 and pass 2 plus the first-name+sex pass.
  EXPECT_EQ(index.num_tokens(), 3u);
}

TEST(CandidateIndexTest, AllKeysPrunedWithoutFallbackEmitsNothing) {
  const CensusDataset old_d = testing_example::MakeCensus1871();
  const CensusDataset new_d = testing_example::MakeCensus1881();
  BlockingConfig config = BlockingConfig::MakeDefault();
  config.max_posting_len = 1;  // every shared token is oversized
  config.fallback_window = 0;  // and the recall net is off
  const CandidateIndex index(old_d, new_d, config);
  EXPECT_GT(index.num_pruned_tokens(), 0u);
  // Tokens carried by a single record survive (posting length 1) but have an
  // empty opposite side, so nothing is emitted.
  EXPECT_TRUE(index.GeneratePairs().empty());
}

TEST(CandidateIndexTest, AllKeysPrunedFallbackRecoversNamesakes) {
  const CensusDataset old_d = testing_example::MakeCensus1871();
  const CensusDataset new_d = testing_example::MakeCensus1881();
  BlockingConfig config = BlockingConfig::MakeDefault();
  config.max_posting_len = 1;
  config.fallback_window = 8;
  const std::vector<CandidatePair> pairs =
      CandidateIndex(old_d, new_d, config).GeneratePairs();
  ASSERT_FALSE(pairs.empty());
  // John Ashworth 1871 (record 0) sorts next to John Ashworth 1881
  // (record 0) under the surname+first-name roster key.
  EXPECT_TRUE(PairSet(pairs).count({0, 0}));
  for (size_t i = 1; i < pairs.size(); ++i) {
    const auto prev = std::make_pair(pairs[i - 1].old_id, pairs[i - 1].new_id);
    const auto cur = std::make_pair(pairs[i].old_id, pairs[i].new_id);
    EXPECT_LT(prev, cur) << "fallback merge broke (old,new) ordering";
  }
}

// Window boundary of the sorted-neighborhood fallback: with a constant
// custom pass (one giant pruned token), the fallback sees all records
// sorted "surname first_name"; a window of w pairs each entry with the
// w-1 entries after it and no more.
TEST(CandidateIndexTest, FallbackWindowBoundaryIsExclusive) {
  const CensusDataset old_d = SingleRecordCensus(1871, {{"x", "aaa"}});
  const CensusDataset new_d = SingleRecordCensus(
      1881, {{"x", "aab"}, {"x", "aac"}, {"x", "aad"}});
  BlockingConfig config;
  config.passes = {[](const PersonRecord&) { return std::string("k"); }};
  config.max_posting_len = 1;  // the constant token (length 4) is pruned

  config.fallback_window = 2;  // only the immediate sorted neighbor
  auto narrow = PairSet(
      CandidateIndex(old_d, new_d, config).GeneratePairs());
  EXPECT_EQ(narrow, (std::set<std::pair<RecordId, RecordId>>{{0, 0}}));

  config.fallback_window = 3;  // reaches "aac", still not "aad"
  auto wider = PairSet(CandidateIndex(old_d, new_d, config).GeneratePairs());
  EXPECT_EQ(wider, (std::set<std::pair<RecordId, RecordId>>{{0, 0}, {0, 1}}));

  config.fallback_window = 4;  // the whole roster
  auto widest = PairSet(CandidateIndex(old_d, new_d, config).GeneratePairs());
  EXPECT_EQ(widest, (std::set<std::pair<RecordId, RecordId>>{
                        {0, 0}, {0, 1}, {0, 2}}));
}

TEST(CandidateIndexTest, CountersReflectPaperExample) {
  const CensusDataset old_d = testing_example::MakeCensus1871();
  const CensusDataset new_d = testing_example::MakeCensus1881();
  const CandidateIndex index(old_d, new_d,
                             BlockingConfig::MakeDefault());
  EXPECT_GT(index.num_tokens(), 0u);
  // Every record contributes one posting per pass (all names non-empty).
  EXPECT_EQ(index.num_postings(),
            3 * (old_d.num_records() + new_d.num_records()));
  EXPECT_EQ(index.num_pruned_tokens(), 0u);
}

TEST(CandidateIndexDeathTest, PrimitivesRejectUnsortedInputInDebug) {
#ifndef NDEBUG
  EXPECT_DEATH(GallopingIntersect({3, 1}, {1, 2}), "not ascending");
  EXPECT_DEATH(GallopingIntersect({1, 2}, {5, 4}), "not ascending");
  const std::vector<RecordId> unsorted = {9, 1};
  EXPECT_DEATH(UnionSortedPostings({&unsorted}), "not ascending");
  EXPECT_DEATH(UnionSortedPostings({nullptr}), "null list");
#else
  GTEST_SKIP() << "DCHECK contracts compile out under NDEBUG";
#endif
}

}  // namespace
}  // namespace tglink
