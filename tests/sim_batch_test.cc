// SimBatch correctness: every entry point must be bit-identical to the
// direct SimilarityFunction path (they share the AggregateWith arithmetic),
// missing-value handling must mirror ComponentSimilarity exactly, the
// measures without a batched kernel must return ComputeMeasure's bits, and
// threshold scoring must answer kPruned exactly below the cutoff.

#include "tglink/similarity/sim_batch.h"

#include <vector>

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

SimilarityFunction PaperSimFunc() {
  SimilarityFunction fn = configs::DefaultConfig().sim_func;
  fn.set_year_gap(10);
  return fn;
}

TEST(SimBatchTest, BitIdenticalToDirectAggregationOverFullCrossProduct) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimBatch batch(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      const double direct =
          fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
      // EXPECT_EQ, not NEAR: the exact bits, both on first computation and
      // on replay through the warm value-pair memo.
      EXPECT_EQ(batch.Aggregate(o, n), direct)
          << "pair (" << o << "," << n << ") first pass";
      EXPECT_EQ(batch.Aggregate(o, n), direct)
          << "pair (" << o << "," << n << ") memo pass";
    }
  }
}

TEST(SimBatchTest, MissingValuesFollowTheDirectPath) {
  // Records with empty occupation / age exercise every missing-value branch;
  // the batch must agree with the direct path on all of them, under every
  // missing policy.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (MissingPolicy policy :
       {MissingPolicy::kRedistribute, MissingPolicy::kZero,
        MissingPolicy::kNeutral}) {
    SimilarityFunction fn = PaperSimFunc();
    fn.set_missing_policy(policy);
    const SimBatch batch(fn, old_d, new_d);
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        EXPECT_EQ(batch.Aggregate(o, n),
                  fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
            << "policy " << static_cast<int>(policy) << " pair (" << o << ","
            << n << ")";
      }
    }
  }
}

TEST(SimBatchTest, WorksForOmega1Too) {
  // The ablation similarity function (different specs/weights) must score
  // through the same layer.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction fn = configs::Omega1();
  fn.set_year_gap(10);
  const SimBatch batch(fn, old_d, new_d);
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      EXPECT_EQ(batch.Aggregate(o, n),
                fn.AggregateSimilarity(old_d.record(o), new_d.record(n)))
          << "pair (" << o << "," << n << ")";
    }
  }
}

TEST(SimBatchTest, FallbackMeasuresAreComputeMeasureBitForBit) {
  // A one-component function per measure without a batched kernel: the
  // aggregate of a pair with both values present is the component value
  // itself (weight 1 over weight 1), so every entry point must return
  // ComputeMeasure on the two field values, bit for bit.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  for (const Measure measure :
       {Measure::kMongeElkan, Measure::kDoubleMetaphone,
        Measure::kSmithWaterman, Measure::kLcsSubstring}) {
    for (const Field field :
         {Field::kFirstName, Field::kSurname, Field::kOccupation}) {
      SimilarityFunction fn({{field, measure, 1.0}}, /*threshold=*/0.5);
      fn.set_year_gap(10);
      const SimBatch batch(fn, old_d, new_d);
      std::vector<CandidatePair> pairs;
      for (RecordId o = 0; o < old_d.num_records(); ++o) {
        for (RecordId n = 0; n < new_d.num_records(); ++n) {
          pairs.push_back({o, n});
        }
      }
      std::vector<double> rows(pairs.size());
      batch.AggregateRowsWithThreshold(pairs, 0.0, rows);
      size_t present = 0;
      for (size_t k = 0; k < pairs.size(); ++k) {
        const PersonRecord& a = old_d.record(pairs[k].old_id);
        const PersonRecord& b = new_d.record(pairs[k].new_id);
        const double direct = fn.AggregateSimilarity(a, b);
        EXPECT_EQ(batch.Aggregate(pairs[k].old_id, pairs[k].new_id), direct);
        EXPECT_EQ(rows[k], direct);
        if (IsFieldMissing(a, field) || IsFieldMissing(b, field)) continue;
        ++present;
        const double measured = ComputeMeasure(
            measure, GetFieldValue(a, field), GetFieldValue(b, field));
        EXPECT_EQ(direct, measured)
            << MeasureName(measure) << " on " << FieldName(field) << " pair ("
            << pairs[k].old_id << "," << pairs[k].new_id << ")";
        // At or above the cutoff the thresholded call returns the measure,
        // below it kPruned.
        const double thresholded =
            batch.AggregateWithThreshold(pairs[k].old_id, pairs[k].new_id, 0.5);
        EXPECT_EQ(thresholded, measured >= 0.5 ? measured : SimBatch::kPruned);
      }
      EXPECT_GT(present, 0u) << FieldName(field);
    }
  }
}

TEST(SimBatchTest, ThresholdScoringNeverPrunesAKeptPair) {
  // The threshold contract over the full fixture cross-product: the answer
  // is kPruned exactly when the exact aggregate is below min_sim, and
  // otherwise the exact aggregate's bits — so keep-sets are identical to
  // the direct path at every threshold. The cutoffs include each pair's
  // own aggregate (a pair exactly at the cutoff is kept) and 1.5, above
  // every aggregate (everything is kPruned), on both entry points.
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  const SimBatch batch(fn, old_d, new_d);
  const auto expect_contract = [&](RecordId o, RecordId n, double exact,
                                   double min_sim) {
    const double want = exact >= min_sim ? exact : SimBatch::kPruned;
    EXPECT_EQ(batch.AggregateWithThreshold(o, n, min_sim), want)
        << "pair (" << o << "," << n << ") at " << min_sim;
    const CandidatePair pair{o, n};
    double row = 0.0;
    batch.AggregateRowsWithThreshold({&pair, 1}, min_sim, {&row, 1});
    EXPECT_EQ(row, want) << "row of one (" << o << "," << n << ") at "
                         << min_sim;
  };
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      const double exact =
          fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
      for (const double min_sim : {0.1, 0.5, 0.7, 0.85, 0.95, 1.0, 1.5}) {
        expect_contract(o, n, exact, min_sim);
      }
      expect_contract(o, n, exact, exact);
      EXPECT_EQ(batch.AggregateWithThreshold(o, n, 1.5), SimBatch::kPruned);
    }
  }
}

// The row scorer follows the same rules over the full cross product in
// (old, new) order: it equals the single-pair call, and at min_sim <= 0
// both return every exact aggregate.
TEST(SimBatchTest, ThresholdScoringIsExactAtZero) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction fn = PaperSimFunc();
  std::vector<CandidatePair> pairs;
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) pairs.push_back({o, n});
  }
  const SimBatch batch(fn, old_d, new_d);
  std::vector<double> rows_at_zero(pairs.size());
  std::vector<double> rows_at_high(pairs.size());
  batch.AggregateRowsWithThreshold(pairs, 0.0, rows_at_zero);
  batch.AggregateRowsWithThreshold(pairs, 0.9, rows_at_high);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const RecordId o = pairs[k].old_id;
    const RecordId n = pairs[k].new_id;
    const double exact =
        fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
    EXPECT_EQ(batch.AggregateWithThreshold(o, n, 0.0), exact);
    EXPECT_EQ(batch.AggregateWithThreshold(o, n, -1.0), exact);
    EXPECT_EQ(rows_at_zero[k], exact);
    EXPECT_EQ(rows_at_high[k], batch.AggregateWithThreshold(o, n, 0.9));
  }
}

}  // namespace
}  // namespace tglink
