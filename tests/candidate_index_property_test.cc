// Differential verification of the inverted candidate index against
// brute-force multi-pass hash blocking (tests/hash_blocking.h; see
// DESIGN.md §9):
//
//   * equivalence: with pruning disabled, GenerateCandidatePairs emits
//     EXACTLY hash blocking's candidate-pair set, across >= 50 seeded
//     synthetic datasets covering every corruption preset AND every
//     scenario-registry profile (the adversarial regimes produce token
//     distributions — duplicated records, dissolved households, mass
//     renames — the friendly presets never do), plus the golden census
//     pair of golden_regression_test;
//   * batching: the shards, emitted on the pool at 1 and 4 threads and
//     concatenated in order, are the list GeneratePairs() returns, for
//     random shard sizes with pruning on and off;
//   * cross product: MakeExhaustive() emits exactly old x new, records with
//     no name at all included, and its shards concatenate to that list;
//   * pruning: a token is pruned under exactly the condition hash blocking
//     skips an oversized block (old + new > cap), so at an equal cap the
//     pruned index plus its sorted-neighborhood fallback emits a superset
//     of the capped hash baseline — gold-pair recall is never worse, and
//     the set stays below the uncapped candidate count.
//
// Runs serially by default; TGLINK_TEST_THREADS=0 (a second ctest entry)
// reruns everything on one worker per hardware thread — outputs must be
// bit-identical, so every property holds under both.

#include "tglink/blocking/candidate_index.h"

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/blocking/blocking.h"
#include "tglink/eval/gold.h"
#include "tglink/util/parallel.h"
#include "tests/hash_blocking.h"
#include "tests/proptest.h"

namespace tglink {
namespace {

class CandidateIndexPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* threads = std::getenv("TGLINK_TEST_THREADS");
    SetParallelThreadCount(threads != nullptr ? std::atoi(threads) : 1);
  }
  void TearDown() override { SetParallelThreadCount(1); }
};

std::string DescribePair(const SyntheticPair& pair) {
  return std::to_string(pair.old_dataset.num_records()) + "x" +
         std::to_string(pair.new_dataset.num_records()) + " records";
}

/// Every corruption regime the generator can produce: the five classic
/// presets plus every scenario-registry profile, labelled for reports.
std::vector<proptest::NamedScenarioConfig> AllRegimes() {
  std::vector<proptest::NamedScenarioConfig> regimes;
  const std::vector<GeneratorConfig> presets = proptest::AllPresets();
  for (size_t i = 0; i < presets.size(); ++i) {
    regimes.push_back({"preset" + std::to_string(i), presets[i]});
  }
  for (proptest::NamedScenarioConfig& sc : proptest::AllScenarioConfigs()) {
    regimes.push_back(std::move(sc));
  }
  return regimes;
}

bool SamePairs(const std::vector<CandidatePair>& a,
               const std::vector<CandidatePair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].old_id != b[i].old_id || a[i].new_id != b[i].new_id) {
      return false;
    }
  }
  return true;
}

/// Share of resolved gold record links contained in the candidate set.
double GoldRecall(const std::vector<CandidatePair>& candidates,
                  const ResolvedGold& gold) {
  if (gold.record_links.empty()) return 1.0;
  std::set<std::pair<RecordId, RecordId>> set;
  for (const CandidatePair& c : candidates) set.emplace(c.old_id, c.new_id);
  size_t found = 0;
  for (const auto& link : gold.record_links) {
    if (set.count(link) > 0) ++found;
  }
  return static_cast<double>(found) / gold.record_links.size();
}

/// Empty when the default index emits exactly hash blocking's pairs over
/// the default passes; otherwise what differs.
std::string IndexVsHashMismatch(const SyntheticPair& pair) {
  const BlockingConfig blocking = BlockingConfig::MakeDefault();
  const std::vector<CandidatePair> expected =
      testing_oracle::HashBlockingPairs(pair.old_dataset, pair.new_dataset,
                                        blocking.passes);
  const std::vector<CandidatePair> actual =
      GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, blocking);
  if (SamePairs(expected, actual)) return "";
  return "index pairs != hash pairs (" + DescribePair(pair) + ": hash " +
         std::to_string(expected.size()) + ", index " +
         std::to_string(actual.size()) + ")";
}

// Pruning-disabled index output == hash blocking output, exactly, for 60
// datasets: every corruption regime — classic presets and scenario
// profiles — x 5 seeds (regime coverage is deterministic, not sampled),
// plus the golden census pair (default generator, scale 0.125, seed 42).
TEST_F(CandidateIndexPropertyTest, ExactEquivalenceWithHashBlocking) {
  for (const proptest::NamedScenarioConfig& regime : AllRegimes()) {
    proptest::Runner runner("candidate_index.equivalence." + regime.name,
                            /*iterations=*/5);
    runner.Run([&regime](proptest::Case& c) {
      GeneratorConfig gen = regime.config;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const std::string mismatch =
          IndexVsHashMismatch(GenerateCensusPair(gen, 0));
      c.ExpectTrue(mismatch.empty(), mismatch);
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
    EXPECT_GE(runner.iterations_ran(), 5);
  }

  GeneratorConfig golden;
  golden.seed = 42;
  golden.scale = 0.125;
  golden.num_censuses = 2;
  EXPECT_EQ(IndexVsHashMismatch(GenerateCensusPair(golden, 0)), "")
      << "golden census pair";
}

/// True when every pair of `shard` has an old id in [begin, end).
bool WithinOldRange(const std::vector<CandidatePair>& shard, size_t begin,
                    size_t end) {
  for (const CandidatePair& p : shard) {
    if (p.old_id < begin || p.old_id >= end) return false;
  }
  return true;
}

// The shards, each emitted by its own pool task and concatenated in shard
// order, are exactly GeneratePairs — with and without pruning (the
// fallback pairs must fold into the shard of their old record), for odd
// shard sizes, at 1 and 4 threads. Each shard holds only its own old ids.
TEST_F(CandidateIndexPropertyTest, PooledShardsConcatenateToGeneratePairs) {
  proptest::Runner runner("candidate_index.batching", /*iterations=*/15);
  runner.Run([](proptest::Case& c) {
    const SyntheticPair pair = proptest::RandomCensusPair(&c);
    const size_t num_old = pair.old_dataset.num_records();
    for (const size_t max_posting_len : {size_t{0}, size_t{48}}) {
      BlockingConfig config = BlockingConfig::MakeDefault();
      config.max_posting_len = max_posting_len;
      // Odd shard sizes probe shard-boundary handling.
      config.batch_records = 1 + c.rng().NextBounded(257);
      const CandidateIndex index(pair.old_dataset, pair.new_dataset, config);
      SetParallelThreadCount(1);
      const std::vector<CandidatePair> whole = index.GeneratePairs();
      for (const int threads : {1, 4}) {
        SetParallelThreadCount(threads);
        const std::vector<std::vector<CandidatePair>> shards =
            ParallelMap<std::vector<CandidatePair>>(
                index.num_shards(), "test.shard",
                [&index](size_t s) { return index.ShardPairs(s); });
        std::vector<CandidatePair> streamed;
        bool in_range = true;
        for (size_t s = 0; s < shards.size(); ++s) {
          in_range = in_range &&
                     WithinOldRange(shards[s], s * config.batch_records,
                                    (s + 1) * config.batch_records);
          streamed.insert(streamed.end(), shards[s].begin(), shards[s].end());
        }
        const std::string where =
            "(max_posting_len=" + std::to_string(max_posting_len) +
            ", batch=" + std::to_string(config.batch_records) +
            ", threads=" + std::to_string(threads) + ")";
        c.ExpectTrue(index.num_shards() ==
                         (num_old + config.batch_records - 1) /
                             config.batch_records,
                     "shard count " + where);
        c.ExpectTrue(in_range, "a shard holds a foreign old id " + where);
        c.ExpectTrue(SamePairs(whole, streamed),
                     "pooled shards != GeneratePairs " + where);
        c.ExpectTrue(SamePairs(whole, index.GeneratePairs()),
                     "GeneratePairs differs across thread counts " + where);
      }
    }
  });
  SetParallelThreadCount(1);
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

// The cross product is one more key: MakeExhaustive() emits exactly
// old x new in (old, new) order, records whose name fields are all missing
// included (the name passes leave those out), and its shards, taken on the
// pool, concatenate to that list at random shard sizes.
TEST_F(CandidateIndexPropertyTest, ExhaustiveEmitsTheCrossProduct) {
  proptest::Runner runner("candidate_index.exhaustive", /*iterations=*/10);
  runner.Run([](proptest::Case& c) {
    SyntheticPair pair = proptest::RandomCensusPair(&c);
    for (CensusDataset* dataset : {&pair.old_dataset, &pair.new_dataset}) {
      for (RecordId r = 0; r < dataset->num_records(); ++r) {
        if (c.rng().NextBounded(4) != 0) continue;
        dataset->mutable_record(r)->first_name.clear();
        dataset->mutable_record(r)->surname.clear();
      }
    }
    const size_t num_old = pair.old_dataset.num_records();
    const size_t num_new = pair.new_dataset.num_records();
    std::vector<CandidatePair> cross;
    cross.reserve(num_old * num_new);
    for (RecordId o = 0; o < num_old; ++o) {
      for (RecordId n = 0; n < num_new; ++n) cross.push_back({o, n});
    }

    BlockingConfig exhaustive = BlockingConfig::MakeExhaustive();
    exhaustive.batch_records = 1 + c.rng().NextBounded(257);
    c.ExpectTrue(SamePairs(cross, GenerateCandidatePairs(pair.old_dataset,
                                                         pair.new_dataset,
                                                         exhaustive)),
                 "exhaustive pairs != old x new (" + DescribePair(pair) + ")");

    const CandidateIndex index(pair.old_dataset, pair.new_dataset,
                               exhaustive);
    const std::vector<std::vector<CandidatePair>> shards =
        ParallelMap<std::vector<CandidatePair>>(
            index.num_shards(), "test.shard",
            [&index](size_t s) { return index.ShardPairs(s); });
    std::vector<CandidatePair> joined;
    for (const std::vector<CandidatePair>& shard : shards) {
      joined.insert(joined.end(), shard.begin(), shard.end());
    }
    c.ExpectTrue(SamePairs(cross, joined),
                 "exhaustive shards != old x new (batch " +
                     std::to_string(exhaustive.batch_records) + ")");
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

// Frequency pruning + sorted-neighborhood fallback vs hash blocking at the
// SAME oversize cap (the apples-to-apples baseline: both drop blocks with
// old + new > cap): the index's candidate set is a superset — the fallback
// only adds pairs back — so gold recall is never worse, for every
// corruption regime (classic presets and scenario profiles alike).
TEST_F(CandidateIndexPropertyTest, PrunedRecallNoWorseThanBaseline) {
  constexpr size_t kCap = 96;
  for (const proptest::NamedScenarioConfig& regime : AllRegimes()) {
    proptest::Runner runner("candidate_index.pruned_recall." + regime.name,
                            /*iterations=*/5);
    runner.Run([&regime](proptest::Case& c) {
      GeneratorConfig gen = regime.config;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const SyntheticPair pair = GenerateCensusPair(gen, 0);
      auto resolved =
          ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset);
      ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();

      BlockingConfig pruned = BlockingConfig::MakeDefault();
      const std::vector<CandidatePair> baseline =
          testing_oracle::HashBlockingPairs(pair.old_dataset,
                                            pair.new_dataset, pruned.passes,
                                            kCap);

      pruned.max_posting_len = kCap;
      pruned.fallback_window = 12;
      const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, pruned);

      std::set<std::pair<RecordId, RecordId>> candidate_set;
      for (const CandidatePair& p : candidates) {
        candidate_set.emplace(p.old_id, p.new_id);
      }
      bool superset = true;
      for (const CandidatePair& p : baseline) {
        superset = superset && candidate_set.count({p.old_id, p.new_id}) > 0;
      }
      c.ExpectTrue(superset,
                   "pruned index lost a capped-hash pair (" +
                       DescribePair(pair) + ")");

      const double base_recall = GoldRecall(baseline, resolved.value());
      const double pruned_recall = GoldRecall(candidates, resolved.value());
      c.ExpectTrue(pruned_recall >= base_recall,
                   "pruned recall " + std::to_string(pruned_recall) +
                       " < baseline " + std::to_string(base_recall) + " (" +
                       DescribePair(pair) + ")");

      // Pruning must still be a reduction relative to no cap at all.
      const std::vector<CandidatePair> uncapped = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
      c.ExpectTrue(candidates.size() <= uncapped.size(),
                   "pruning + fallback grew the candidate set: " +
                       std::to_string(candidates.size()) + " > " +
                       std::to_string(uncapped.size()));
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  }
}

// The conjunctive >=2-shared-keys mode is a strict subset of the union mode
// and agrees with a set-based reference intersection.
TEST_F(CandidateIndexPropertyTest, ConjunctiveModeIsSubsetOfUnion) {
  proptest::Runner runner("candidate_index.conjunctive", /*iterations=*/15);
  runner.Run([](proptest::Case& c) {
    const SyntheticPair pair = proptest::RandomCensusPair(&c);
    const std::vector<CandidatePair> unioned = GenerateCandidatePairs(
        pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
    BlockingConfig conj = BlockingConfig::MakeDefault();
    conj.min_shared_passes = 2;
    const std::vector<CandidatePair> intersected =
        GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, conj);
    std::set<std::pair<RecordId, RecordId>> union_set;
    for (const CandidatePair& p : unioned) {
      union_set.emplace(p.old_id, p.new_id);
    }
    bool subset = intersected.size() <= unioned.size();
    for (const CandidatePair& p : intersected) {
      subset = subset && union_set.count({p.old_id, p.new_id}) > 0;
    }
    c.ExpectTrue(subset, "conjunctive pairs not a subset of union pairs");
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

}  // namespace
}  // namespace tglink
