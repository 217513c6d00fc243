// SimBatch correctness: every entry point must be bit-identical to the
// direct SimilarityFunction path (they share the AggregateWith arithmetic),
// missing-value handling must mirror ComponentSimilarity exactly, every
// measure but bigram Dice and exact agreement must return ComputeMeasure's
// bits, threshold scoring must answer kPruned exactly below the cutoff, and
// a plan over tables shared with other functions must score exactly as a
// batch over its own tables.

#include "tglink/similarity/sim_batch.h"

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tglink/similarity/sim_tables.h"
#include "tglink/synth/generator.h"
#include "tglink/util/parallel.h"
#include "tests/all_plan_function.h"
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
  // A one-component function per measure the plan runs through
  // ComputeMeasure: the aggregate of a pair with both values present is
  // the component value itself (weight 1 over weight 1), so every entry
  // point must return ComputeMeasure on the two field values, bit for bit.
  // The fixture gains values of 63 to 70 characters, near-equal and
  // disjoint, so every measure is also checked on strings around and above
  // one 64-bit word, where a bit-parallel kernel would switch paths.
  CensusDataset old_d = MakeCensus1871();
  CensusDataset new_d = MakeCensus1881();
  const std::string a63(63, 'a');
  const std::string a64(64, 'a');
  const std::string a65(65, 'a');
  std::string b64 = a64;
  b64[10] = 'z';
  b64[40] = 'q';
  std::string b65 = a65;
  b65[0] = 'z';
  b65[64] = 'q';
  const std::string disjoint(70, 'y');
  old_d.AddHousehold(
      "1871_long",
      {MakeRecord("1871_l1", a64, a65, Sex::kMale, 30, Role::kHead, "mill",
                  b64),
       MakeRecord("1871_l2", a65, b64, Sex::kFemale, 28, Role::kWife, "mill",
                  disjoint)});
  new_d.AddHousehold(
      "1881_long",
      {MakeRecord("1881_l1", b64, b65, Sex::kMale, 40, Role::kHead, "mill",
                  a63),
       MakeRecord("1881_l2", a63, a64, Sex::kFemale, 38, Role::kWife, "mill",
                  a65),
       MakeRecord("1881_l3", disjoint, disjoint, Sex::kMale, 12, Role::kSon,
                  "mill", b65)});
  for (const Measure measure :
       {Measure::kTrigramDice, Measure::kLevenshtein, Measure::kDamerau,
        Measure::kJaro, Measure::kJaroWinkler, Measure::kSoundexEqual,
        Measure::kMongeElkan, Measure::kDoubleMetaphone,
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

/// `batch`'s row scorer over `pairs` at `min_sim`, in the pool's chunks.
std::vector<double> ScoreRows(const SimBatch& batch,
                              const std::vector<CandidatePair>& pairs,
                              double min_sim) {
  std::vector<double> out(pairs.size());
  ParallelFor(pairs.size(), "sim_batch_test.rows",
              [&](size_t begin, size_t end) {
                const size_t n = end - begin;
                batch.AggregateRowsWithThreshold(
                    std::span<const CandidatePair>(pairs).subspan(begin, n),
                    min_sim, std::span<double>(out).subspan(begin, n));
              });
  return out;
}

// One set of tables for Ω2, the residual function and the all-plan
// function, as LinkCensusPair builds one for Ω2 and the residual function:
// a plan of either of the last two over it must give, through every entry
// point and on 1 and 2 threads, the bits of a batch over its own tables and
// of fn.AggregateSimilarity.
TEST(SimBatchTest, PlansOverSharedTablesEqualSelfBuiltBatches) {
  GeneratorConfig gen;
  gen.seed = 7;
  gen.scale = 0.03;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  const CensusDataset& old_d = pair.old_dataset;
  const CensusDataset& new_d = pair.new_dataset;
  const int year_gap = new_d.year() - old_d.year();
  SimilarityFunction omega2 = configs::Omega2();
  SimilarityFunction residual = configs::ResidualSimFunc();
  SimilarityFunction all_plan = AllPlanFunction();
  for (SimilarityFunction* fn : {&omega2, &residual, &all_plan}) {
    fn->set_year_gap(year_gap);
  }
  const auto tables = std::make_shared<const SimTables>(
      std::initializer_list<const SimilarityFunction*>{&omega2, &residual,
                                                       &all_plan},
      old_d, new_d);
  const std::vector<CandidatePair> pairs =
      GenerateCandidatePairs(old_d, new_d, BlockingConfig::MakeDefault());
  ASSERT_FALSE(pairs.empty());
  for (const int threads : {1, 2}) {
    SetParallelThreadCount(threads);
    for (const SimilarityFunction* fn : {&residual, &all_plan}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", " +
                   std::to_string(fn->specs().size()) + " specs");
      const SimBatch shared(*fn, tables);
      const SimBatch own(*fn, old_d, new_d);
      // The three functions read the same five fields, so both tables
      // intern the same values.
      EXPECT_EQ(own.num_interned_values(), shared.num_interned_values());
      const double threshold = fn->threshold();
      const std::vector<double> shared_exact = ScoreRows(shared, pairs, 0.0);
      const std::vector<double> shared_kept =
          ScoreRows(shared, pairs, threshold);
      const std::vector<double> own_exact = ScoreRows(own, pairs, 0.0);
      const std::vector<double> own_kept = ScoreRows(own, pairs, threshold);
      for (size_t k = 0; k < pairs.size(); ++k) {
        const RecordId o = pairs[k].old_id;
        const RecordId n = pairs[k].new_id;
        const double exact =
            fn->AggregateSimilarity(old_d.record(o), new_d.record(n));
        const double kept = exact >= threshold ? exact : SimBatch::kPruned;
        ASSERT_EQ(shared_exact[k], exact) << "pair (" << o << "," << n << ")";
        ASSERT_EQ(own_exact[k], exact) << "pair (" << o << "," << n << ")";
        ASSERT_EQ(shared_kept[k], kept) << "pair (" << o << "," << n << ")";
        ASSERT_EQ(own_kept[k], kept) << "pair (" << o << "," << n << ")";
        ASSERT_EQ(shared.Aggregate(o, n), exact);
        ASSERT_EQ(shared.AggregateWithThreshold(o, n, threshold), kept);
      }
    }
  }
  SetParallelThreadCount(1);
}

// A plan needs every field and bigram profile its function reads; tables
// built without them are a caller bug, caught in every build. Only Dice
// has a per-value signature: a plan of any other measure over a field's
// table needs nothing more, and equals ComputeMeasure.
TEST(SimBatchDeathTest, PlanOverTablesBuiltWithoutItsFunctionAborts) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  const SimilarityFunction first_names({{Field::kFirstName,
                                         Measure::kQGramDice, 1.0}},
                                       /*threshold=*/0.5);
  const auto tables = std::make_shared<const SimTables>(
      std::initializer_list<const SimilarityFunction*>{&first_names}, old_d,
      new_d);
  const SimilarityFunction surnames({{Field::kSurname, Measure::kQGramDice,
                                      1.0}},
                                    /*threshold=*/0.5);
  EXPECT_DEATH(SimBatch(surnames, tables), "hold no surname table");
  const SimilarityFunction exact_first_names({{Field::kFirstName,
                                               Measure::kExact, 1.0}},
                                             /*threshold=*/0.5);
  const auto exact_tables = std::make_shared<const SimTables>(
      std::initializer_list<const SimilarityFunction*>{&exact_first_names},
      old_d, new_d);
  EXPECT_DEATH(SimBatch(first_names, exact_tables), "lack the");
  for (const Measure measure :
       {Measure::kTrigramDice, Measure::kSoundexEqual}) {
    const SimilarityFunction fn({{Field::kFirstName, measure, 1.0}},
                                /*threshold=*/0.5);
    const SimBatch plan(fn, tables);
    for (RecordId o = 0; o < old_d.num_records(); ++o) {
      for (RecordId n = 0; n < new_d.num_records(); ++n) {
        EXPECT_EQ(plan.Aggregate(o, n),
                  ComputeMeasure(measure, old_d.record(o).first_name,
                                 new_d.record(n).first_name))
            << MeasureName(measure) << " pair (" << o << "," << n << ")";
      }
    }
  }
}

}  // namespace
}  // namespace tglink
