// Batched allocation-free similarity kernels: the benchmark behind
// BENCH_sim_kernels.json.
//
// Three sections:
//   * per-kernel microbench, at --scale: the scalar measure against the
//     batched kernel over value pairs drawn from the synthetic generator's
//     name / address vocabularies (real length distributions, not toy
//     constants) — after asserting the batched kernel reproduces the scalar
//     doubles bit-for-bit on every sampled pair. The report holds each
//     variant's best loop time over the sample (micro.<kernel>.*_seconds);
//     ns/op is printed only;
//   * pre-matching stage timing, at --scale (check-in runs use --scale=1.0,
//     the paper's full Rawtenstall size): best-of-N SimBatch row scoring and
//     PreMatcher construction, after asserting the PreMatcher keeps exactly
//     the candidates whose fn.AggregateSimilarity reaches delta_low, with
//     the same bits;
//   * quality twin, always at the table5 reference point (scale 0.25,
//     seed 42, pair 2): the four table5_iterative configurations re-run with
//     the batched kernels. Because the kernels are bit-identical and the
//     threshold keeps exactly the pairs whose exact aggregate reaches it,
//     the resulting "quality" block must be byte-identical to
//     BENCH_table5_iterative.json's.
//
//   ./sim_kernels [--scale=1.0] [--seed=42] [--report=FILE]

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"
#include "tglink/linkage/prematching.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/sim_batch.h"

namespace {

using namespace tglink;

struct KernelRow {
  const char* slug;  // report key: micro.<slug>.*
  Measure measure;
};

/// Value pairs sampled from the synthetic censuses' string fields — the
/// length distribution the kernels actually see in pre-matching. Distinct
/// co-prime strides keep the sample deterministic while mixing households.
std::vector<std::pair<std::string_view, std::string_view>> SampleValuePairs(
    const SyntheticPair& pair, size_t count) {
  const Field fields[] = {Field::kFirstName, Field::kSurname, Field::kAddress,
                          Field::kOccupation};
  std::vector<std::pair<std::string_view, std::string_view>> samples;
  samples.reserve(count);
  const size_t n_old = pair.old_dataset.num_records();
  const size_t n_new = pair.new_dataset.num_records();
  for (size_t i = 0; samples.size() < count; ++i) {
    const PersonRecord& o = pair.old_dataset.record((i * 7919) % n_old);
    const PersonRecord& n = pair.new_dataset.record((i * 104729) % n_new);
    switch (fields[i % std::size(fields)]) {
      case Field::kFirstName:
        samples.emplace_back(o.first_name, n.first_name);
        break;
      case Field::kSurname:
        samples.emplace_back(o.surname, n.surname);
        break;
      case Field::kAddress:
        samples.emplace_back(o.address, n.address);
        break;
      default:
        samples.emplace_back(o.occupation, n.occupation);
        break;
    }
  }
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("sim_kernels", options);
  obs::RunReportBuilder report = bench::MakeRunReport("sim_kernels", options);
  std::printf("== Batched similarity kernels ==\n");

  const SyntheticPair pair =
      GenerateCensusPair(bench::MakeGeneratorConfig(options),
                         options.pair_index);
  std::printf("pair %d->%d at scale %.2f: %zu x %zu records\n",
              pair.old_dataset.year(), pair.new_dataset.year(), options.scale,
              pair.old_dataset.num_records(), pair.new_dataset.num_records());

  // ---- Per-kernel microbench at --scale ----------------------------------
  const std::vector<KernelRow> kernels = {
      {"exact", Measure::kExact},
      {"qgram_dice", Measure::kQGramDice},
      {"trigram_dice", Measure::kTrigramDice},
      {"levenshtein", Measure::kLevenshtein},
      {"damerau", Measure::kDamerau},
      {"jaro", Measure::kJaro},
      {"jaro_winkler", Measure::kJaroWinkler},
      {"soundex", Measure::kSoundexEqual},
  };
  constexpr size_t kSamplePairs = 4096;
  constexpr int kReps = 5;
  const auto samples = SampleValuePairs(pair, kSamplePairs);

  // Bit-identity sanity before timing anything: the batched kernel must
  // return the scalar measure's exact double on every sampled pair.
  for (const KernelRow& k : kernels) {
    for (const auto& [a, b] : samples) {
      const double expected = ComputeMeasure(k.measure, a, b);
      const double got = simkernel::BatchMeasure(k.measure, a, b);
      if (got != expected) {
        std::fprintf(stderr, "FATAL: %s batched %.17g != scalar %.17g\n",
                     k.slug, got, expected);
        return 1;
      }
    }
  }
  std::printf("all %zu kernels bit-identical on %zu sampled value pairs\n\n",
              kernels.size(), samples.size());

  TextTable micro;
  micro.SetHeader({"kernel", "scalar ns", "batched ns", "speedup"});
  double sink = 0.0;  // keeps the timed loops from being optimized away
  for (const KernelRow& k : kernels) {
    double best[2] = {0.0, 0.0};  // scalar, batched
    for (int rep = 0; rep < kReps; ++rep) {
      for (int variant = 0; variant < 2; ++variant) {
        Timer timer;
        for (const auto& [a, b] : samples) {
          sink += variant == 0 ? ComputeMeasure(k.measure, a, b)
                               : simkernel::BatchMeasure(k.measure, a, b);
        }
        const double s = timer.ElapsedSeconds();
        if (rep == 0 || s < best[variant]) best[variant] = s;
      }
    }
    const std::string key = std::string("micro.") + k.slug;
    report.AddScalar(key + ".scalar_seconds", best[0])
        .AddScalar(key + ".batched_seconds", best[1]);
    const double per_op = 1e9 / static_cast<double>(samples.size());
    micro.AddRow({k.slug, TextTable::Fixed(best[0] * per_op, 1),
                  TextTable::Fixed(best[1] * per_op, 1),
                  TextTable::Fixed(best[0] / best[1], 2)});
  }
  std::fputs(micro.ToString().c_str(), stdout);
  std::printf("(best of %d loops over %zu pairs; checksum %.3f)\n\n", kReps,
              samples.size(), sink);

  // ---- Pre-matching stage timing at --scale ------------------------------
  const LinkageConfig config = configs::DefaultConfig();
  SimilarityFunction sim_func = config.sim_func;
  sim_func.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());

  // The similarity stage in isolation: candidate generation is hoisted
  // out, so the timed region is SimBatch construction (value interning +
  // signature precomputation) plus threshold scoring of every candidate
  // through the row scorer, over the (old, new)-sorted candidates in
  // fixed-size slices, as the PreMatcher scores them. The whole-PreMatcher
  // row below includes the blocking and the pair store for context.
  const std::vector<CandidatePair> candidates = GenerateCandidatePairs(
      pair.old_dataset, pair.new_dataset, config.blocking);

  // Keep-set check before timing: the PreMatcher must keep exactly the
  // candidates whose direct aggregate reaches delta_low, in candidate
  // order, with the same similarity bits.
  {
    const PreMatcher pm(pair.old_dataset, pair.new_dataset, sim_func,
                        config.blocking, config.delta_low);
    const PreMatcher::KeptPairs kept = pm.scored_pairs();
    auto it = kept.begin();
    const auto end = kept.end();
    size_t matched = 0;
    for (const CandidatePair& cand : candidates) {
      const double exact =
          sim_func.AggregateSimilarity(pair.old_dataset.record(cand.old_id),
                                       pair.new_dataset.record(cand.new_id));
      if (exact < config.delta_low) continue;
      if (it == end) {
        std::fprintf(stderr, "FATAL: keep-set ends after %zu pairs\n",
                     matched);
        return 1;
      }
      const ScoredPair got = *it;
      if (got.old_id != cand.old_id || got.new_id != cand.new_id ||
          got.sim != exact) {
        std::fprintf(stderr, "FATAL: keep-set differs at kept pair %zu\n",
                     matched);
        return 1;
      }
      ++it;
      ++matched;
    }
    if (it != end || matched != kept.size()) {
      std::fprintf(stderr, "FATAL: keep-sets differ (oracle %zu, kept %zu)\n",
                   matched, kept.size());
      return 1;
    }
    report.AddScalar("timing.prematch.kept_pairs",
                     static_cast<double>(kept.size()));
    std::printf("PreMatcher keeps the exact %zu pairs at delta_low %.2f\n",
                kept.size(), config.delta_low);
  }

  TextTable table;
  table.SetHeader({"stage", "best s", "mean s", "pairs/s (best)"});
  const auto add_timing = [&](const char* stage, const std::string& key,
                              double best, double sum) {
    report.AddScalar(key + ".best_seconds", best)
        .AddScalar(key + ".mean_seconds", sum / kReps);
    table.AddRow({stage, TextTable::Fixed(best, 3),
                  TextTable::Fixed(sum / kReps, 3),
                  std::to_string(static_cast<size_t>(
                      static_cast<double>(candidates.size()) / best))});
  };
  {
    constexpr size_t kSlice = size_t{1} << 16;
    const std::span<const CandidatePair> all(candidates);
    std::vector<double> sims(kSlice);
    double best = 0.0;
    double sum = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      const SimBatch batch(sim_func, pair.old_dataset, pair.new_dataset);
      for (size_t begin = 0; begin < all.size(); begin += kSlice) {
        const std::span<const CandidatePair> slice =
            all.subspan(begin, std::min(kSlice, all.size() - begin));
        const std::span<double> out(sims.data(), slice.size());
        batch.AggregateRowsWithThreshold(slice, config.delta_low, out);
        for (double sim : out) sink += sim;
      }
      const double seconds = timer.ElapsedSeconds();
      sum += seconds;
      if (rep == 0 || seconds < best) best = seconds;
    }
    add_timing("similarity stage", "timing.simstage.batched", best, sum);
  }
  {
    double best = 0.0;
    double sum = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      const PreMatcher pm(pair.old_dataset, pair.new_dataset, sim_func,
                          config.blocking, config.delta_low);
      const double seconds = timer.ElapsedSeconds();
      sink += static_cast<double>(pm.scored_pairs().size());
      sum += seconds;
      if (rep == 0 || seconds < best) best = seconds;
    }
    add_timing("full PreMatcher", "timing.prematch.batched", best, sum);
  }
  std::fputs(table.ToString().c_str(), stdout);

  // ---- Quality twin at the table5 reference point ------------------------
  // Fixed at scale 0.25 / seed 42 / pair 2 regardless of --scale so the
  // emitted quality block stays comparable (and byte-identical) to
  // BENCH_table5_iterative.json across check-in runs.
  bench::BenchOptions quality_options;
  quality_options.scale = 0.25;
  quality_options.seed = 42;
  quality_options.pair_index = 2;
  const bench::EvalPair ep = bench::MakeEvalPair(quality_options);
  std::printf("\nquality twin (table5 configurations, batched kernels):\n");
  bench::PrintPairHeader(ep, quality_options);
  for (const bool safety_nets : {true, false}) {
    for (const bool iterative : {false, true}) {
      LinkageConfig quality_config = configs::DefaultConfig();
      if (!iterative) {
        quality_config.delta_high = quality_config.delta_low = 0.5;
      }
      if (!safety_nets) {
        quality_config.vertex_age_tolerance = 0;
        quality_config.context_residual = false;
      }
      const LinkageResult result = LinkCensusPair(
          ep.pair.old_dataset, ep.pair.new_dataset, quality_config);
      const bench::Quality q = bench::EvaluatePaperProtocol(result, ep);
      const std::string label =
          std::string(safety_nets ? "default." : "paper.") +
          (iterative ? "iterative" : "one_shot");
      report.AddQuality(label + ".group", q.group)
          .AddQuality(label + ".record", q.record);
      if (safety_nets && iterative) report.AddIterations(result.iterations);
      std::printf("  %-18s group F %s  record F %s\n", label.c_str(),
                  TextTable::Percent(q.group.f_measure()).c_str(),
                  TextTable::Percent(q.record.f_measure()).c_str());
    }
  }
  bench::EmitRunArtifacts(report, options);
  return 0;
}
