// Differential verification of the batched similarity kernels against the
// scalar reference measures (satellite of the batched-kernel tentpole; see
// DESIGN.md §10):
//
//   * bit-identity: BatchMeasure(m, a, b) returns EXACTLY
//     ComputeMeasure(m, a, b) — same bits, not approximately — over 50
//     seeded random-byte corpora (non-ASCII bytes, embedded NULs, sentinel
//     '#'/'$' characters, empties, and the 63/64/65-char Myers word-size
//     boundary);
//   * aggregate identity: SimBatch reproduces fn.AggregateSimilarity
//     bit-for-bit on full synthetic census pairs from every corruption
//     preset, and AggregateWithThreshold keeps exactly the pairs whose
//     exact aggregate reaches the cutoff;
//   * memo isolation: the per-thread value-pair memo of the string kernels
//     never serves one batch's value to another, including a batch rebuilt
//     in a destroyed batch's storage;
//   * gram postings: the Dice intersection a posting walk accumulates equals
//     the sorted merge's and the scalar measure's, and the row scorer —
//     which walks postings for long runs of an old value and merges short
//     ones — equals the single-pair path, also with two batches alive on
//     one thread and for values with more than 65,535 grams.
//
// Runs serially by default; TGLINK_TEST_THREADS=0 (a second ctest entry)
// reruns everything on one worker per hardware thread — outputs must be
// bit-identical, so every property holds under both.

#include "tglink/similarity/batch_kernels.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/blocking/blocking.h"
#include "tglink/linkage/config.h"
#include "tglink/obs/metrics.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/synth/presets.h"
#include "tglink/util/parallel.h"
#include "tests/paper_example.h"
#include "tests/proptest.h"

namespace tglink {
namespace {

class SimilarityKernelPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* threads = std::getenv("TGLINK_TEST_THREADS");
    SetParallelThreadCount(threads != nullptr ? std::atoi(threads) : 1);
  }
  void TearDown() override { SetParallelThreadCount(1); }
};

const std::vector<Measure>& BatchedMeasures() {
  static const std::vector<Measure> measures = {
      Measure::kExact,       Measure::kQGramDice,  Measure::kTrigramDice,
      Measure::kLevenshtein, Measure::kDamerau,    Measure::kJaro,
      Measure::kJaroWinkler, Measure::kSoundexEqual};
  return measures;
}

/// One random corpus: empties, short names, arbitrary-byte strings (any
/// value 0..255, so NULs, sentinels, and non-ASCII are all exercised), and
/// strings pinned to the 63/64/65-char Myers boundary.
std::vector<std::string> RandomCorpus(proptest::Case& c) {
  std::vector<std::string> corpus = {"", "a", "smith", "ashworth"};
  for (const size_t boundary : {size_t{63}, size_t{64}, size_t{65}}) {
    std::string s(boundary, 'x');
    // A couple of random edits so boundary pairs are near-but-not-equal.
    s[c.rng().NextBounded(boundary)] =
        static_cast<char>(c.rng().NextBounded(256));
    corpus.push_back(std::move(s));
  }
  for (int i = 0; i < 9; ++i) {
    const size_t len = 1 + c.rng().NextBounded(80);
    std::string s(len, '\0');
    for (size_t k = 0; k < len; ++k) {
      s[k] = static_cast<char>(c.rng().NextBounded(256));
    }
    corpus.push_back(std::move(s));
  }
  // Mutated copies make near-duplicates likely, which is where kernel bugs
  // (off-by-one windows, transposition terms) actually hide.
  const size_t base = corpus.size();
  for (int i = 0; i < 4; ++i) {
    std::string s = corpus[c.rng().NextBounded(base)];
    if (s.empty()) continue;
    s[c.rng().NextBounded(s.size())] =
        static_cast<char>(c.rng().NextBounded(256));
    corpus.push_back(std::move(s));
  }
  return corpus;
}

// 50 corpora x all batched measures x all pairs: exact equality with the
// scalar oracle.
TEST_F(SimilarityKernelPropertyTest, BitIdenticalToScalar) {
  proptest::Runner runner("simkernel.bit_identity", /*iterations=*/50);
  runner.Run([](proptest::Case& c) {
    const std::vector<std::string> corpus = RandomCorpus(c);
    for (const Measure measure : BatchedMeasures()) {
      ASSERT_TRUE(simkernel::HasBatchKernel(measure));
      for (const std::string& a : corpus) {
        for (const std::string& b : corpus) {
          const double expected = ComputeMeasure(measure, a, b);
          const double got = simkernel::BatchMeasure(measure, a, b);
          c.ExpectTrue(got == expected,
                       std::string(MeasureName(measure)) + "(" +
                           std::to_string(a.size()) + "B, " +
                           std::to_string(b.size()) + "B) batched " +
                           std::to_string(got) + " != scalar " +
                           std::to_string(expected));
        }
      }
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  EXPECT_GE(runner.iterations_ran(), 50);
}

// Full-pipeline identity on synthetic censuses: every corruption preset x
// 10 seeds (preset coverage is deterministic, not sampled). SimBatch must
// reproduce fn.AggregateSimilarity bit-for-bit, and the threshold path must
// keep exactly the pairs whose exact aggregate reaches the cutoff.
TEST_F(SimilarityKernelPropertyTest, AggregateIdentityAcrossPresets) {
  for (const GeneratorConfig& preset : proptest::AllPresets()) {
    proptest::Runner runner("simkernel.aggregate_identity",
                            /*iterations=*/10);
    runner.Run([&preset](proptest::Case& c) {
      GeneratorConfig gen = preset;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const SyntheticPair pair = GenerateCensusPair(gen, 0);
      SimilarityFunction fn = configs::DefaultConfig().sim_func;
      fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());

      const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());

      const SimBatch batched(fn, pair.old_dataset, pair.new_dataset);
      const double min_sim = 0.5 + 0.4 * (c.rng().NextBounded(5) / 5.0);

      const std::vector<double> exact_sims = ParallelMap<double>(
          candidates.size(), "proptest.exact_chunk", [&](size_t i) {
            return fn.AggregateSimilarity(
                pair.old_dataset.record(candidates[i].old_id),
                pair.new_dataset.record(candidates[i].new_id));
          });
      const std::vector<double> batched_sims = ParallelMap<double>(
          candidates.size(), "proptest.batched_chunk", [&](size_t i) {
            return batched.Aggregate(candidates[i].old_id,
                                     candidates[i].new_id);
          });
      const std::vector<double> pruned_sims = ParallelMap<double>(
          candidates.size(), "proptest.pruned_chunk", [&](size_t i) {
            return batched.AggregateWithThreshold(candidates[i].old_id,
                                                  candidates[i].new_id,
                                                  min_sim);
          });
      for (size_t i = 0; i < candidates.size(); ++i) {
        c.ExpectTrue(batched_sims[i] == exact_sims[i],
                     "pair " + std::to_string(i) + ": batched " +
                         std::to_string(batched_sims[i]) + " != exact " +
                         std::to_string(exact_sims[i]));
        if (pruned_sims[i] == SimBatch::kPruned) {
          c.ExpectTrue(exact_sims[i] < min_sim,
                       "pair " + std::to_string(i) +
                           " pruned at min_sim " + std::to_string(min_sim) +
                           " but exact sim is " +
                           std::to_string(exact_sims[i]));
        } else {
          c.ExpectTrue(pruned_sims[i] == exact_sims[i],
                       "pair " + std::to_string(i) +
                           ": threshold path " +
                           std::to_string(pruned_sims[i]) + " != exact " +
                           std::to_string(exact_sims[i]));
        }
      }
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
    EXPECT_GE(runner.iterations_ran(), 10);
  }
}

/// A composite function touching every SimBatch plan: both Dice gram sizes,
/// the full edit/Jaro family, Soundex, exact sex, the temporal age
/// component, and a fallback measure (Monge-Elkan) that SimBatch scores
/// with ComputeMeasure. Several specs share a field so the per-field table
/// reuse is exercised too.
SimilarityFunction AllPlanFunction() {
  return SimilarityFunction(
      {
          {Field::kFirstName, Measure::kJaroWinkler, 0.20},
          {Field::kFirstName, Measure::kSoundexEqual, 0.05},
          {Field::kFirstName, Measure::kQGramDice, 0.05},
          {Field::kSurname, Measure::kTrigramDice, 0.15},
          {Field::kSurname, Measure::kJaro, 0.05},
          {Field::kSex, Measure::kExact, 0.10},
          {Field::kAddress, Measure::kLevenshtein, 0.15},
          {Field::kOccupation, Measure::kDamerau, 0.10},
          {Field::kOccupation, Measure::kMongeElkan, 0.05},
          {Field::kAge, Measure::kExact, 0.10},
      },
      /*threshold=*/0.7);
}

// The Omega2 pipeline only exercises the Dice/exact plans; this property
// pins bit-identity with fn.AggregateSimilarity and the threshold contract
// for EVERY plan the batch layer implements, under all three missing
// policies (the policy changes the Eq. 3 denominator).
TEST_F(SimilarityKernelPropertyTest, AllPlansAllPoliciesAggregateIdentity) {
  proptest::Runner runner("simkernel.all_plans_identity", /*iterations=*/10);
  runner.Run([](proptest::Case& c) {
    const GeneratorConfig gen = proptest::RandomGeneratorConfig(&c);
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
        pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
    for (const MissingPolicy policy :
         {MissingPolicy::kRedistribute, MissingPolicy::kZero,
          MissingPolicy::kNeutral}) {
      SimilarityFunction fn = AllPlanFunction();
      fn.set_missing_policy(policy);
      fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());

      const SimBatch batched(fn, pair.old_dataset, pair.new_dataset);
      const double min_sim = 0.5 + 0.1 * c.rng().NextBounded(5);
      for (const CandidatePair& cand : candidates) {
        const double expected =
            fn.AggregateSimilarity(pair.old_dataset.record(cand.old_id),
                                   pair.new_dataset.record(cand.new_id));
        const double got = batched.Aggregate(cand.old_id, cand.new_id);
        c.ExpectTrue(got == expected,
                     "policy " + std::to_string(static_cast<int>(policy)) +
                         ": batched " + std::to_string(got) + " != exact " +
                         std::to_string(expected));
        const double pruned =
            batched.AggregateWithThreshold(cand.old_id, cand.new_id, min_sim);
        if (pruned == SimBatch::kPruned) {
          c.ExpectTrue(expected < min_sim,
                       "pruned at min_sim " + std::to_string(min_sim) +
                           " but exact sim is " + std::to_string(expected));
        } else {
          c.ExpectTrue(pruned == expected,
                       "threshold path " + std::to_string(pruned) +
                           " != exact " + std::to_string(expected));
        }
      }
    }
    // The interning invariant the arenas rely on: distinct values per field
    // can never exceed the number of records contributing them.
    const SimBatch batch(AllPlanFunction(), pair.old_dataset,
                         pair.new_dataset);
    const size_t total_records =
        pair.old_dataset.num_records() + pair.new_dataset.num_records();
    c.ExpectTrue(batch.num_interned_values() <= 5 * total_records,
                 "interned " + std::to_string(batch.num_interned_values()) +
                     " values from " + std::to_string(total_records) +
                     " records across 5 string fields");
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  EXPECT_GE(runner.iterations_ran(), 10);
}

/// One small census pair per generator profile and seed, with the
/// all-plan function at its year gap. SimBatch keeps references to all
/// three, so the fixture owns them.
struct MemoFixture {
  SyntheticPair pair;
  SimilarityFunction fn = AllPlanFunction();
  std::vector<CandidatePair> candidates;

  MemoFixture(GeneratorConfig gen, uint64_t seed) {
    gen.seed = seed;
    gen.scale = 0.03;
    gen.num_censuses = 2;
    pair = GenerateCensusPair(gen, 0);
    fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());
    candidates = GenerateCandidatePairs(pair.old_dataset, pair.new_dataset,
                                        BlockingConfig::MakeDefault());
  }

  double Exact(const CandidatePair& c) const {
    return fn.AggregateSimilarity(pair.old_dataset.record(c.old_id),
                                  pair.new_dataset.record(c.new_id));
  }
};

/// Scores candidate i of `fx` through `batch` twice — exactly, then under
/// `min_sim` with the memo warm — and checks both against the exact path.
void ExpectExactAndPrunedOrExact(const SimBatch& batch, const MemoFixture& fx,
                                 size_t i, double min_sim,
                                 const std::string& what) {
  const CandidatePair& c = fx.candidates[i];
  const double exact = fx.Exact(c);
  EXPECT_EQ(batch.Aggregate(c.old_id, c.new_id), exact)
      << what << " pair " << i;
  const double got = batch.AggregateWithThreshold(c.old_id, c.new_id, min_sim);
  if (got == SimBatch::kPruned) {
    EXPECT_LT(exact, min_sim) << what << " pair " << i;
  } else {
    EXPECT_EQ(got, exact) << what << " pair " << i;
  }
}

// Two batches with different vocabularies scored alternately on one
// thread share the thread's memo slots (same spec indices, colliding value
// ids). Then the second batch is destroyed and a third built in its
// storage: a memo keyed on the batch address would serve stale values.
TEST_F(SimilarityKernelPropertyTest, ValuePairMemoNeverCrossesBatches) {
  SetParallelThreadCount(1);
  const MemoFixture fx_a(presets::Rawtenstall(), 11);
  const MemoFixture fx_b(presets::PoorTranscription(), 12);
  const MemoFixture fx_c(presets::HighMobilityTown(), 13);
  const SimBatch batch_a(fx_a.fn, fx_a.pair.old_dataset,
                         fx_a.pair.new_dataset);
  std::optional<SimBatch> other;
  other.emplace(fx_b.fn, fx_b.pair.old_dataset, fx_b.pair.new_dataset);
  const SimBatch* const storage = &*other;

  const auto interleave = [&](const MemoFixture& fx_other,
                              const std::string& name) {
    const size_t n =
        std::max(fx_a.candidates.size(), fx_other.candidates.size());
    for (size_t i = 0; i < n; ++i) {
      const double min_sim = 0.5 + 0.05 * static_cast<double>(i % 8);
      if (i < fx_a.candidates.size()) {
        ExpectExactAndPrunedOrExact(batch_a, fx_a, i, min_sim, "a");
      }
      if (i < fx_other.candidates.size()) {
        ExpectExactAndPrunedOrExact(*other, fx_other, i, min_sim, name);
      }
    }
  };
  interleave(fx_b, "b");
  other.reset();
  other.emplace(fx_c.fn, fx_c.pair.old_dataset, fx_c.pair.new_dataset);
  ASSERT_EQ(&*other, storage) << "the rebuilt batch must reuse the storage";
  interleave(fx_c, "c (rebuilt in b's storage)");

  // Scored in parallel the thresholded values must not depend on which
  // worker's memo served them.
  const auto score = [&](int threads) {
    SetParallelThreadCount(threads);
    return ParallelMap<double>(
        fx_c.candidates.size(), "proptest.memo_chunk", [&](size_t i) {
          const CandidatePair& c = fx_c.candidates[i];
          return other->AggregateWithThreshold(c.old_id, c.new_id, 0.6);
        });
  };
  const std::vector<double> serial = score(1);
  EXPECT_EQ(score(4), serial);
  for (size_t i = 0; i < serial.size(); ++i) {
    const double exact = fx_c.Exact(fx_c.candidates[i]);
    if (serial[i] == SimBatch::kPruned) {
      EXPECT_LT(exact, 0.6) << "pair " << i;
    } else {
      EXPECT_EQ(serial[i], exact) << "pair " << i;
    }
  }
}

/// Scores `candidates` through the row scorer in the spans between the
/// ascending `cuts` (0 and size() implied), each span on its own.
std::vector<double> ScoreRowsInSpans(const SimBatch& batch,
                                     const std::vector<CandidatePair>& candidates,
                                     const std::vector<size_t>& cuts,
                                     double min_sim) {
  std::vector<double> out(candidates.size());
  size_t begin = 0;
  for (size_t k = 0; k <= cuts.size(); ++k) {
    const size_t end = k < cuts.size() ? cuts[k] : candidates.size();
    batch.AggregateRowsWithThreshold(
        std::span<const CandidatePair>(candidates).subspan(begin, end - begin),
        min_sim, std::span<double>(out).subspan(begin, end - begin));
    begin = end;
  }
  return out;
}

/// Checks the row scorer's output for `fx`'s candidates at `min_sim`
/// against the single-pair entry point (equal, pair for pair) and against
/// fn.AggregateSimilarity (exact at or above min_sim, kPruned below).
void ExpectRowsMatchSinglePairs(proptest::Case& c, const SimBatch& batch,
                                const SimilarityFunction& fn,
                                const SyntheticPair& pair,
                                const std::vector<CandidatePair>& candidates,
                                const std::vector<double>& rows,
                                double min_sim, const std::string& what) {
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidatePair& cand = candidates[i];
    const double single =
        batch.AggregateWithThreshold(cand.old_id, cand.new_id, min_sim);
    const double exact =
        fn.AggregateSimilarity(pair.old_dataset.record(cand.old_id),
                               pair.new_dataset.record(cand.new_id));
    const std::string at = what + " pair " + std::to_string(i) +
                           " min_sim " + std::to_string(min_sim);
    c.ExpectTrue(rows[i] == single, at + ": rows " + std::to_string(rows[i]) +
                                        " != single " +
                                        std::to_string(single));
    if (exact >= min_sim) {
      c.ExpectTrue(rows[i] == exact, at + ": rows " + std::to_string(rows[i]) +
                                         " != exact " + std::to_string(exact));
    } else {
      c.ExpectTrue(rows[i] == SimBatch::kPruned,
                   at + ": exact " + std::to_string(exact) +
                       " below min_sim but rows gave " +
                       std::to_string(rows[i]));
    }
  }
}

uint64_t CounterValue(std::string_view name) {
  return obs::GlobalMetrics().GetCounter(name).Value();
}

/// `n` ascending random cut points in [0, size].
std::vector<size_t> RandomCuts(proptest::Case& c, size_t size, int n) {
  std::vector<size_t> cuts;
  for (int k = 0; k < n; ++k) cuts.push_back(c.rng().NextBounded(size + 1));
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

// The row scorer loads each old record's side once per run of candidates;
// on every corruption preset and scenario, for the pre-matching function,
// the residual one (which adds the age plan) and the all-plans function,
// its output equals the single-pair AggregateWithThreshold pair for pair —
// scored in parallel chunks as PreMatcher does, and in spans cut at random
// points. Both Dice sources run: accumulators for long runs of an old
// value, merges for short ones.
TEST_F(SimilarityKernelPropertyTest, RowScorerMatchesSinglePairOnEveryPreset) {
  std::vector<proptest::NamedScenarioConfig> generators =
      proptest::AllScenarioConfigs();
  for (const GeneratorConfig& preset : proptest::AllPresets()) {
    generators.push_back({"corruption preset", preset});
  }
  const uint64_t builds_before = CounterValue("simkernel.dice_acc_builds");
  const uint64_t merges_before = CounterValue("simkernel.dice_row_merges");
  const LinkageConfig linkage = configs::DefaultConfig();
  for (const proptest::NamedScenarioConfig& generator : generators) {
    SCOPED_TRACE(generator.name);
    proptest::Runner runner("simkernel.row_scorer_presets", /*iterations=*/2);
    runner.Run([&](proptest::Case& c) {
      GeneratorConfig gen = generator.config;
      gen.seed = c.rng().Next();
      gen.scale = c.scale();
      gen.num_censuses = 2;
      const SyntheticPair pair = GenerateCensusPair(gen, 0);
      const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
          pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
      for (SimilarityFunction fn :
           {linkage.sim_func, linkage.sim_func_rem, AllPlanFunction()}) {
        fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());
        const SimBatch batch(fn, pair.old_dataset, pair.new_dataset);
        const double min_sim = fn.threshold();
        std::vector<double> rows(candidates.size());
        ParallelFor(candidates.size(), "proptest.rows_chunk",
                    [&](size_t begin, size_t end) {
                      batch.AggregateRowsWithThreshold(
                          std::span<const CandidatePair>(candidates).subspan(
                              begin, end - begin),
                          min_sim,
                          std::span<double>(rows).subspan(begin, end - begin));
                    });
        ExpectRowsMatchSinglePairs(c, batch, fn, pair, candidates, rows,
                                   min_sim, fn.ToString());
        // Spans cut elsewhere choose their Dice sources elsewhere; the
        // output may not change.
        const std::vector<double> spans = ScoreRowsInSpans(
            batch, candidates, RandomCuts(c, candidates.size(), 8), min_sim);
        c.ExpectTrue(spans == rows, "random spans differ from the chunks, " +
                                        fn.ToString());
      }
    });
    EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  }
  EXPECT_GT(CounterValue("simkernel.dice_acc_builds"), builds_before)
      << "no run was long enough to walk postings";
  EXPECT_GT(CounterValue("simkernel.dice_row_merges"), merges_before)
      << "no run was short enough to merge";
}

// Every plan, fallback measures included, under all three missing
// policies: the row scorer equals the single-pair path and the scalar
// oracle at a random cutoff.
TEST_F(SimilarityKernelPropertyTest, RowScorerMatchesSinglePairOnAllPlans) {
  proptest::Runner runner("simkernel.row_scorer_all_plans", /*iterations=*/3);
  runner.Run([](proptest::Case& c) {
    const GeneratorConfig gen = proptest::RandomGeneratorConfig(&c);
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
        pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
    for (const MissingPolicy policy :
         {MissingPolicy::kRedistribute, MissingPolicy::kZero,
          MissingPolicy::kNeutral}) {
      SimilarityFunction fn = AllPlanFunction();
      fn.set_missing_policy(policy);
      fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());
      const SimBatch batch(fn, pair.old_dataset, pair.new_dataset);
      const double min_sim = 0.4 + 0.1 * c.rng().NextBounded(6);
      const std::vector<double> rows = ScoreRowsInSpans(
          batch, candidates, {}, min_sim);
      ExpectRowsMatchSinglePairs(
          c, batch, fn, pair, candidates, rows, min_sim,
          "policy " + std::to_string(static_cast<int>(policy)));
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  EXPECT_GE(runner.iterations_ran(), 3);
}

// Chunks of a ParallelFor split rows at arbitrary points; the next span
// starts mid-row and must reload the old side. At random cut points and
// every cutoff — 0 (exact everywhere) through 1 — the output equals the
// single-pair path: exact at or above the cutoff, kPruned below it.
TEST_F(SimilarityKernelPropertyTest, RowScorerExactAtRandomChunkBoundaries) {
  proptest::Runner runner("simkernel.row_scorer_chunks", /*iterations=*/4);
  runner.Run([](proptest::Case& c) {
    const GeneratorConfig gen = proptest::RandomGeneratorConfig(&c);
    const SyntheticPair pair = GenerateCensusPair(gen, 0);
    const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
        pair.old_dataset, pair.new_dataset, BlockingConfig::MakeDefault());
    if (candidates.empty()) return;
    const std::vector<size_t> cuts = RandomCuts(c, candidates.size(), 12);
    SimilarityFunction fn = configs::DefaultConfig().sim_func_rem;
    fn.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());
    const SimBatch batch(fn, pair.old_dataset, pair.new_dataset);
    for (const double min_sim : {0.0, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      const std::vector<double> rows = ScoreRowsInSpans(
          batch, candidates, cuts, min_sim);
      ExpectRowsMatchSinglePairs(c, batch, fn, pair, candidates, rows,
                                 min_sim, "chunked");
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
  EXPECT_GE(runner.iterations_ran(), 4);
}

// Two batches with different vocabularies scored by the row scorer in
// alternating spans on one thread share the thread's Dice accumulators and
// memo rows (same spec indices, colliding value ids); then one batch is
// destroyed and another built in its storage. Accumulators are keyed by
// batch generation, so every span equals the single-pair path.
TEST_F(SimilarityKernelPropertyTest, RowScorerTwoBatchesOnOneThread) {
  SetParallelThreadCount(1);
  const MemoFixture fx_a(presets::Rawtenstall(), 21);
  const MemoFixture fx_b(presets::PoorTranscription(), 22);
  const MemoFixture fx_c(presets::HighMobilityTown(), 23);
  const SimBatch batch_a(fx_a.fn, fx_a.pair.old_dataset,
                         fx_a.pair.new_dataset);
  std::optional<SimBatch> other;
  other.emplace(fx_b.fn, fx_b.pair.old_dataset, fx_b.pair.new_dataset);
  const SimBatch* const storage = &*other;

  const auto alternate = [&](const MemoFixture& fx_other,
                             const std::string& name) {
    static constexpr size_t kSpan = 37;  // splits rows and runs oddly
    const double min_sim = 0.6;
    std::vector<double> rows_a(fx_a.candidates.size());
    std::vector<double> rows_other(fx_other.candidates.size());
    const auto score_span = [min_sim](const SimBatch& batch,
                                      const MemoFixture& fx, size_t begin,
                                      std::vector<double>* rows) {
      if (begin >= fx.candidates.size()) return;
      const size_t len = std::min(kSpan, fx.candidates.size() - begin);
      batch.AggregateRowsWithThreshold(
          std::span<const CandidatePair>(fx.candidates).subspan(begin, len),
          min_sim, std::span<double>(*rows).subspan(begin, len));
    };
    const size_t n =
        std::max(fx_a.candidates.size(), fx_other.candidates.size());
    for (size_t begin = 0; begin < n; begin += kSpan) {
      score_span(batch_a, fx_a, begin, &rows_a);
      score_span(*other, fx_other, begin, &rows_other);
    }
    const auto check = [min_sim](const SimBatch& batch, const MemoFixture& fx,
                                 const std::vector<double>& rows,
                                 const std::string& what) {
      for (size_t i = 0; i < fx.candidates.size(); ++i) {
        const CandidatePair& c = fx.candidates[i];
        EXPECT_EQ(rows[i],
                  batch.AggregateWithThreshold(c.old_id, c.new_id, min_sim))
            << what << " pair " << i;
      }
    };
    check(batch_a, fx_a, rows_a, "a");
    check(*other, fx_other, rows_other, name);
  };
  const uint64_t builds_before = CounterValue("simkernel.dice_acc_builds");
  alternate(fx_b, "b");
  other.reset();
  other.emplace(fx_c.fn, fx_c.pair.old_dataset, fx_c.pair.new_dataset);
  ASSERT_EQ(&*other, storage) << "the rebuilt batch must reuse the storage";
  alternate(fx_c, "c (rebuilt in b's storage)");
  EXPECT_GT(CounterValue("simkernel.dice_acc_builds"), builds_before)
      << "the spans never walked postings";
}

/// Random sorted profiles over a small alphabet of packed codes, so
/// duplicate grams and partial overlaps are common.
std::vector<std::vector<uint32_t>> RandomProfiles(proptest::Case& c,
                                                  size_t count) {
  const uint32_t alphabet = 1 + c.rng().NextBounded(12);
  std::vector<std::vector<uint32_t>> profiles(count);
  for (std::vector<uint32_t>& profile : profiles) {
    profile.resize(1 + c.rng().NextBounded(40));
    for (uint32_t& code : profile) {
      code = 0x2300u + c.rng().NextBounded(alphabet);
    }
    std::sort(profile.begin(), profile.end());
  }
  return profiles;
}

/// Builds postings over `profiles` (concatenated) and checks, for every
/// value, that one walk yields the merge's Dice for every posted value, no
/// count for an unposted one, the advertised walk cost, and that Clear
/// restores all zeroes; `expected(va, vb)` is the reference Dice.
template <typename Expected>
void ExpectPostingsMatch(proptest::Case& c,
                         const std::vector<std::vector<uint32_t>>& profiles,
                         const Expected& expected) {
  std::vector<uint32_t> data;
  std::vector<uint32_t> starts = {0};
  std::vector<bool> posted;
  for (const std::vector<uint32_t>& profile : profiles) {
    data.insert(data.end(), profile.begin(), profile.end());
    starts.push_back(static_cast<uint32_t>(data.size()));
    posted.push_back(c.rng().NextBounded(4) != 0);
  }
  const simkernel::GramPostings postings(data, starts, posted);
  std::vector<uint32_t> common(profiles.size(), 0);
  for (uint32_t va = 0; va < profiles.size(); ++va) {
    postings.Accumulate(va, common.data());
    uint64_t walk = 0;
    for (uint32_t vb = 0; vb < profiles.size(); ++vb) {
      const std::vector<uint32_t>& a = profiles[va];
      const std::vector<uint32_t>& b = profiles[vb];
      if (!posted[vb]) {
        c.ExpectTrue(common[vb] == 0, "unposted value counted");
        continue;
      }
      const double got =
          simkernel::DiceFromCommon(common[vb], a.size(), b.size());
      const double want = expected(va, vb);
      c.ExpectTrue(got == want, "walk dice " + std::to_string(got) +
                                    " != " + std::to_string(want) + " for " +
                                    std::to_string(va) + "/" +
                                    std::to_string(vb));
    }
    std::vector<uint32_t> distinct = profiles[va];
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (const uint32_t code : distinct) {
      for (uint32_t vb = 0; vb < profiles.size(); ++vb) {
        walk += posted[vb] && std::binary_search(profiles[vb].begin(),
                                                 profiles[vb].end(), code);
      }
    }
    c.ExpectTrue(postings.WalkCost(va) == walk,
                 "walk cost " + std::to_string(postings.WalkCost(va)) +
                     " != " + std::to_string(walk));
    postings.Clear(va, common.data());
    c.ExpectTrue(std::all_of(common.begin(), common.end(),
                             [](uint32_t n) { return n == 0; }),
                 "Clear left a count behind");
  }
}

// A posting walk counts the multiset intersection the sorted merge counts:
// on random profiles with duplicate grams, DiceFromCommon of the walk's
// count equals DiceProfileKernel bit for bit.
TEST_F(SimilarityKernelPropertyTest, PostingWalkDiceMatchesMerge) {
  proptest::Runner runner("simkernel.posting_walk", /*iterations=*/50);
  runner.Run([](proptest::Case& c) {
    const std::vector<std::vector<uint32_t>> profiles =
        RandomProfiles(c, 2 + c.rng().NextBounded(30));
    ExpectPostingsMatch(c, profiles, [&](uint32_t va, uint32_t vb) {
      const std::vector<uint32_t>& a = profiles[va];
      const std::vector<uint32_t>& b = profiles[vb];
      return simkernel::DiceProfileKernel(a.data(), a.size(), b.data(),
                                          b.size());
    });
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

// The same against the scalar measure, on padded q-gram profiles (q = 2
// and 3) of strings over a two-letter alphabet, where repeated grams are
// the rule ("abab", "aaaa").
TEST_F(SimilarityKernelPropertyTest, PostingWalkDiceMatchesScalarMeasure) {
  proptest::Runner runner("simkernel.posting_walk_scalar", /*iterations=*/30);
  runner.Run([](proptest::Case& c) {
    std::vector<std::string> words(2 + c.rng().NextBounded(20));
    for (std::string& word : words) {
      word.resize(1 + c.rng().NextBounded(12));
      for (char& ch : word) ch = c.rng().NextBounded(2) != 0 ? 'a' : 'b';
    }
    for (const auto& [q, measure] :
         {std::pair{2, Measure::kQGramDice},
          std::pair{3, Measure::kTrigramDice}}) {
      std::vector<std::vector<uint32_t>> profiles;
      for (const std::string& word : words) {
        profiles.emplace_back();
        simkernel::BuildPaddedGramProfile(word, q, &profiles.back());
      }
      ExpectPostingsMatch(c, profiles, [&](uint32_t va, uint32_t vb) {
        return ComputeMeasure(measure, words[va], words[vb]);
      });
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

// A value longer than 65,535 characters repeats one gram more than 65,535
// times. The walk's counts are 32-bit like the profile offsets, so its
// Dice still equals the merge's and the scalar measure's, directly and
// through the row scorer, which walks postings for such values.
TEST_F(SimilarityKernelPropertyTest, PostingCountsDoNotOverflow) {
  const std::string longest(70000, 'a');
  const std::string shorter(66000, 'a');
  const std::vector<std::string> words = {longest, shorter, "aab", "b"};
  for (const int q : {2, 3}) {
    std::vector<uint32_t> data;
    std::vector<uint32_t> starts = {0};
    for (const std::string& word : words) {
      simkernel::BuildPaddedGramProfile(word, q, &data);
      starts.push_back(static_cast<uint32_t>(data.size()));
    }
    const simkernel::GramPostings postings(
        data, starts, std::vector<bool>(words.size(), true));
    std::vector<uint32_t> common(words.size(), 0);
    postings.Accumulate(0, common.data());
    EXPECT_EQ(common[0], starts[1]) << "q=" << q;
    EXPECT_EQ(common[1], starts[2] - starts[1]) << "q=" << q;
    for (uint32_t vb = 0; vb < words.size(); ++vb) {
      const uint32_t na = starts[1];
      const uint32_t nb = starts[vb + 1] - starts[vb];
      EXPECT_EQ(simkernel::DiceFromCommon(common[vb], na, nb),
                simkernel::DiceProfileKernel(data.data(), na,
                                             data.data() + starts[vb], nb))
          << "q=" << q << " value " << vb;
    }
  }

  using testing_example::MakeRecord;
  CensusDataset old_dataset(1871);
  old_dataset.AddHousehold(
      "old", {MakeRecord("o1", "ann", "smith", Sex::kFemale, 30, Role::kHead,
                         longest, "weaver"),
              MakeRecord("o2", "ann", "smith", Sex::kFemale, 3,
                         Role::kDaughter, "aab", "weaver")});
  CensusDataset new_dataset(1881);
  std::vector<PersonRecord> members;
  for (const std::string& address : {shorter, longest, std::string("aab"),
                                     std::string("b"), std::string()}) {
    members.push_back(MakeRecord("n" + std::to_string(members.size()), "ann",
                                 "smith", Sex::kFemale, 40, Role::kHead,
                                 address, "weaver"));
  }
  new_dataset.AddHousehold("new", members);
  const SimilarityFunction fn(
      {{Field::kAddress, Measure::kQGramDice, 0.5},
       {Field::kAddress, Measure::kTrigramDice, 0.5}},
      /*threshold=*/0.0);
  const SimBatch batch(fn, old_dataset, new_dataset);
  std::vector<CandidatePair> candidates;
  for (RecordId o = 0; o < old_dataset.num_records(); ++o) {
    for (RecordId n = 0; n < new_dataset.num_records(); ++n) {
      candidates.push_back({o, n});
    }
  }
  const uint64_t builds_before = CounterValue("simkernel.dice_acc_builds");
  std::vector<double> rows(candidates.size());
  batch.AggregateRowsWithThreshold(candidates, 0.0, rows);
  EXPECT_GT(CounterValue("simkernel.dice_acc_builds"), builds_before);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidatePair& c = candidates[i];
    EXPECT_EQ(rows[i], fn.AggregateSimilarity(old_dataset.record(c.old_id),
                                              new_dataset.record(c.new_id)))
        << "pair " << i;
  }
}

// The branchless merge against the three-way merge it replaced, on random
// sorted multisets over a small alphabet (so duplicate grams and partial
// overlaps are common): same intersection count, same double.
TEST_F(SimilarityKernelPropertyTest, BranchlessDiceMatchesThreeWayMerge) {
  proptest::Runner runner("simkernel.branchless_dice", /*iterations=*/50);
  runner.Run([](proptest::Case& c) {
    for (int trial = 0; trial < 200; ++trial) {
      const uint32_t alphabet = 1 + c.rng().NextBounded(12);
      const auto random_profile = [&] {
        std::vector<uint32_t> profile(1 + c.rng().NextBounded(40));
        for (uint32_t& code : profile) {
          code = 0x2300u + c.rng().NextBounded(alphabet);
        }
        std::sort(profile.begin(), profile.end());
        return profile;
      };
      const std::vector<uint32_t> a = random_profile();
      const std::vector<uint32_t> b = random_profile();
      size_t i = 0, j = 0, common = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (b[j] < a[i]) {
          ++j;
        } else {
          ++common;
          ++i;
          ++j;
        }
      }
      const double expected = 2.0 * static_cast<double>(common) /
                              static_cast<double>(a.size() + b.size());
      const double got = simkernel::DiceProfileKernel(a.data(), a.size(),
                                                      b.data(), b.size());
      c.ExpectTrue(got == expected, "dice " + std::to_string(got) +
                                        " != reference " +
                                        std::to_string(expected) + " over " +
                                        std::to_string(a.size()) + "/" +
                                        std::to_string(b.size()) + " grams");
    }
  });
  EXPECT_TRUE(runner.AllPassed()) << runner.Report();
}

// SimBatch appends every interned value's profile to one arena vector. An
// exact-size reserve per profile would reallocate (and copy the arena) on
// every append; geometric growth reallocates O(log N) times.
TEST_F(SimilarityKernelPropertyTest, GramArenaGrowsGeometrically) {
  for (const int q : {2, 3}) {
    std::vector<uint32_t> arena;
    size_t reallocations = 0;
    const uint32_t* data = arena.data();
    constexpr int kValues = 5000;
    for (int v = 0; v < kValues; ++v) {
      simkernel::BuildPaddedGramProfile("value" + std::to_string(v), q,
                                        &arena);
      if (arena.data() != data) {
        ++reallocations;
        data = arena.data();
      }
    }
    EXPECT_LE(reallocations, 2 * static_cast<size_t>(std::bit_width(
                                     arena.size())))
        << "q=" << q << ": " << reallocations << " reallocations for "
        << kValues << " profiles, " << arena.size() << " grams";
  }
}

// Deterministic Myers word-size boundary pins: 64-char patterns take the
// bit-parallel path, 65-char pairs the one-row DP fallback; both must agree
// with the scalar DP exactly, including at distance-0 and heavy-edit ends.
TEST_F(SimilarityKernelPropertyTest, MyersBoundaryMatchesScalar) {
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
  const std::vector<std::string> corpus = {a63, a64,      a65, b64,
                                           b65, disjoint, ""};
  for (const Measure measure : {Measure::kLevenshtein, Measure::kDamerau}) {
    for (const std::string& x : corpus) {
      for (const std::string& y : corpus) {
        EXPECT_EQ(simkernel::BatchMeasure(measure, x, y),
                  ComputeMeasure(measure, x, y))
            << MeasureName(measure) << " lengths " << x.size() << "/"
            << y.size();
      }
    }
  }
}

}  // namespace
}  // namespace tglink
