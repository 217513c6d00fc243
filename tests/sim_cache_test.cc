// SimCache correctness: both kernel modes (batched default, scalar
// reference) must be bit-identical to the direct SimilarityFunction path
// (they share the AggregateWith arithmetic), hits/misses must reflect the
// skew of the value pools in scalar mode, missing-value handling must
// mirror ComponentSimilarity exactly, and threshold-aware scoring must
// never prune a pair at or above the cutoff.

#include "tglink/similarity/sim_cache.h"

#include <vector>

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tglink/similarity/sim_batch.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

SimilarityFunction PaperSimFunc() {
  SimilarityFunction fn = configs::DefaultConfig().sim_func;
  fn.set_year_gap(10);
  return fn;
}

TEST(SimCacheTest, BitIdenticalToDirectAggregationOverFullCrossProduct) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  for (const bool batched : {true, false}) {
    ScopedBatchKernels mode(batched);
    const SimCache cache(fn, old_d, new_d);
    ASSERT_EQ(cache.batched(), batched);
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        const double direct =
            fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
        // EXPECT_EQ, not NEAR: both modes must reproduce the exact bits,
        // both on first computation and on replay.
        EXPECT_EQ(cache.Aggregate(o, n), direct)
            << "batched=" << batched << " pair (" << o << "," << n
            << ") first pass";
        EXPECT_EQ(cache.Aggregate(o, n), direct)
            << "batched=" << batched << " pair (" << o << "," << n
            << ") cached pass";
      }
    }
  }
}

TEST(SimCacheTest, RepeatedValuePairsHitTheMemo) {
  // Memo traffic is a scalar-mode property: the batched kernels evaluate
  // q-gram/Jaro components directly from precomputed profiles and only
  // memoize the heavyweight fallback measures (none in the default config).
  ScopedBatchKernels scalar_mode(false);
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimCache cache(fn, old_d, new_d);

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      (void)cache.Aggregate(o, n);
    }
  }
  const uint64_t first_pass_misses = cache.misses();
  // The census fixture reuses names heavily (three johns, three
  // elizabeths, two smith households...), so even the first full pass must
  // find repeated (value, value) component pairs.
  EXPECT_GT(first_pass_misses, 0u);
  EXPECT_GT(cache.hits(), 0u);

  // A second pass over the same pairs computes nothing new.
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      (void)cache.Aggregate(o, n);
    }
  }
  EXPECT_EQ(cache.misses(), first_pass_misses);
}

TEST(SimCacheTest, BatchedModeGeneratesNoMemoTrafficForOwnedMeasures) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  ScopedBatchKernels batched_mode(true);
  const SimCache cache(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      (void)cache.Aggregate(o, n);
    }
  }
  // Every default-config measure has a batched kernel, so the memo (and
  // its locks) must stay completely cold.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(SimCacheTest, MissingValuesFollowTheDirectPath) {
  // Records with empty occupation / age exercise every missing-value branch;
  // the cache must agree with the direct path on all of them, under every
  // missing policy, in both kernel modes.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (const bool batched : {true, false}) {
    ScopedBatchKernels mode(batched);
    for (MissingPolicy policy :
         {MissingPolicy::kRedistribute, MissingPolicy::kZero,
          MissingPolicy::kNeutral}) {
      SimilarityFunction fn = PaperSimFunc();
      fn.set_missing_policy(policy);
      const SimCache cache(fn, old_d, new_d);
      for (RecordId o = 0; o < old_d.num_records(); ++o) {
        for (RecordId n = 0; n < new_d.num_records(); ++n) {
          EXPECT_EQ(cache.Aggregate(o, n),
                    fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
              << "batched=" << batched << " policy "
              << static_cast<int>(policy) << " pair (" << o << "," << n << ")";
        }
      }
    }
  }
}

TEST(SimCacheTest, WorksForOmega1Too) {
  // The ablation similarity function (different specs/weights) must be
  // cacheable through the same layer, in both modes.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction fn = configs::Omega1();
  fn.set_year_gap(10);
  for (const bool batched : {true, false}) {
    ScopedBatchKernels mode(batched);
    const SimCache cache(fn, old_d, new_d);
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        EXPECT_EQ(cache.Aggregate(o, n),
                  fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
            << "batched=" << batched;
      }
    }
  }
}

TEST(SimCacheTest, ThresholdScoringNeverPrunesAKeptPair) {
  // The pruning contract over the full fixture cross-product, at every
  // plausible cutoff: a pruned pair's exact aggregate is strictly below
  // min_sim, and a non-pruned pair's value is bit-identical to the exact
  // one — so keep-sets are identical to the scalar path at every
  // threshold.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  ScopedBatchKernels batched_mode(true);
  const SimCache cache(fn, old_d, new_d);
  for (const double min_sim : {0.1, 0.5, 0.7, 0.85, 0.95, 1.0}) {
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        const double exact =
            fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
        const double got = cache.AggregateWithThreshold(o, n, min_sim);
        if (got == SimCache::kPruned) {
          EXPECT_LT(exact, min_sim)
              << "pruned a kept pair (" << o << "," << n << ") at "
              << min_sim;
        } else {
          EXPECT_EQ(got, exact)
              << "threshold path drifted for (" << o << "," << n << ") at "
              << min_sim;
        }
      }
    }
  }
}

// The row scorer follows the same rules over the full cross product in
// (old, new) order: it equals the single-pair call in both modes.
TEST(SimCacheTest, ThresholdScoringIsExactInScalarModeAndAtZero) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  std::vector<CandidatePair> pairs;
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) pairs.push_back({o, n});
  }
  for (const bool batched : {true, false}) {
    ScopedBatchKernels mode(batched);
    const SimCache cache(fn, old_d, new_d);
    std::vector<double> rows_at_zero(pairs.size());
    std::vector<double> rows_at_high(pairs.size());
    cache.AggregateRowsWithThreshold(pairs, 0.0, rows_at_zero);
    cache.AggregateRowsWithThreshold(pairs, 0.9, rows_at_high);
    for (size_t k = 0; k < pairs.size(); ++k) {
      const RecordId o = pairs[k].old_id;
      const RecordId n = pairs[k].new_id;
      const double exact =
          fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
      // min_sim <= 0 disables pruning in batched mode; scalar mode never
      // prunes at any threshold.
      EXPECT_EQ(cache.AggregateWithThreshold(o, n, 0.0), exact);
      EXPECT_EQ(rows_at_zero[k], exact);
      EXPECT_EQ(rows_at_high[k], cache.AggregateWithThreshold(o, n, 0.9));
      if (!batched) {
        EXPECT_EQ(cache.AggregateWithThreshold(o, n, 0.9), exact);
      }
    }
  }
}

}  // namespace
}  // namespace tglink
