// Batched allocation-free similarity kernels: the benchmark behind
// BENCH_sim_kernels.json.
//
// Three sections:
//   * per-kernel microbench, at --scale: ns/op for the scalar measure, the
//     batched kernel without pruning, and the batched kernel under a 0.7
//     cutoff, over value pairs drawn from the synthetic generator's name /
//     address vocabularies (real length distributions, not toy constants) —
//     after asserting the batched kernel reproduces the scalar doubles
//     bit-for-bit on every sampled pair;
//   * pre-matching stage timing, at --scale (check-in runs use --scale=1.0,
//     the paper's full Rawtenstall size): best-of-N SimBatch scoring and
//     PreMatcher construction, after asserting the PreMatcher keeps exactly
//     the candidates whose fn.AggregateSimilarity reaches delta_low, with
//     the same bits, plus the simkernel.* pruning-counter breakdown of one
//     build;
//   * quality twin, always at the table5 reference point (scale 0.25,
//     seed 42, pair 2): the four table5_iterative configurations re-run with
//     the batched kernels. Because the kernels are bit-identical and pruning
//     is keep-set-exact, the resulting "quality" block must be byte-identical
//     to BENCH_table5_iterative.json's.
//
//   ./sim_kernels [--scale=1.0] [--seed=42] [--report=FILE]

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"
#include "tglink/linkage/prematching.h"
#include "tglink/obs/metrics.h"
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

uint64_t CounterValue(const char* name) {
  return obs::GlobalMetrics().GetCounter(name).Value();
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
  constexpr double kMicroCutoff = 0.7;
  constexpr int kReps = 5;
  const auto samples = SampleValuePairs(pair, kSamplePairs);

  // Bit-identity sanity before timing anything: the batched kernel must
  // return the scalar measure's exact double on every sampled pair, and
  // under the cutoff it may only replace values provably below it.
  for (const KernelRow& k : kernels) {
    for (const auto& [a, b] : samples) {
      const double expected = ComputeMeasure(k.measure, a, b);
      const double got = simkernel::BatchMeasure(k.measure, a, b, 0.0);
      if (got != expected) {
        std::fprintf(stderr, "FATAL: %s batched %.17g != scalar %.17g\n",
                     k.slug, got, expected);
        return 1;
      }
      const double pruned =
          simkernel::BatchMeasure(k.measure, a, b, kMicroCutoff);
      if (pruned != expected &&
          !(pruned == simkernel::kBelowMinSim && expected < kMicroCutoff)) {
        std::fprintf(stderr, "FATAL: %s pruning unsound (%.17g vs %.17g)\n",
                     k.slug, pruned, expected);
        return 1;
      }
    }
  }
  std::printf("all %zu kernels bit-identical on %zu sampled value pairs\n\n",
              kernels.size(), samples.size());

  TextTable micro;
  micro.SetHeader({"kernel", "scalar ns", "batched ns", "pruned ns",
                   "speedup", "prune rate"});
  double sink = 0.0;  // keeps the timed loops from being optimized away
  for (const KernelRow& k : kernels) {
    double best[3] = {0.0, 0.0, 0.0};  // scalar, batched, batched@cutoff
    for (int rep = 0; rep < kReps; ++rep) {
      for (int variant = 0; variant < 3; ++variant) {
        Timer timer;
        for (const auto& [a, b] : samples) {
          sink += variant == 0
                      ? ComputeMeasure(k.measure, a, b)
                      : simkernel::BatchMeasure(
                            k.measure, a, b,
                            variant == 1 ? 0.0 : kMicroCutoff);
        }
        const double s = timer.ElapsedSeconds();
        if (rep == 0 || s < best[variant]) best[variant] = s;
      }
    }
    size_t pruned_pairs = 0;
    for (const auto& [a, b] : samples) {
      if (simkernel::BatchMeasure(k.measure, a, b, kMicroCutoff) ==
          simkernel::kBelowMinSim) {
        ++pruned_pairs;
      }
    }
    const double per_op = 1e9 / static_cast<double>(samples.size());
    const double scalar_ns = best[0] * per_op;
    const double batched_ns = best[1] * per_op;
    const double pruned_ns = best[2] * per_op;
    const double speedup = scalar_ns / batched_ns;
    const double prune_rate =
        static_cast<double>(pruned_pairs) / static_cast<double>(samples.size());
    const std::string key = std::string("micro.") + k.slug;
    report.AddScalar(key + ".scalar_ns", scalar_ns)
        .AddScalar(key + ".batched_ns", batched_ns)
        .AddScalar(key + ".pruned_ns", pruned_ns)
        .AddScalar(key + ".speedup", speedup)
        .AddScalar(key + ".prune_rate", prune_rate);
    micro.AddRow({k.slug, TextTable::Fixed(scalar_ns, 1),
                  TextTable::Fixed(batched_ns, 1),
                  TextTable::Fixed(pruned_ns, 1), TextTable::Fixed(speedup, 2),
                  TextTable::Percent(prune_rate)});
  }
  std::fputs(micro.ToString().c_str(), stdout);
  std::printf("(cutoff %.2f; checksum %.3f)\n\n", kMicroCutoff, sink);

  // ---- Pre-matching stage timing at --scale ------------------------------
  const LinkageConfig config = configs::DefaultConfig();
  SimilarityFunction sim_func = config.sim_func;
  sim_func.set_year_gap(pair.new_dataset.year() - pair.old_dataset.year());

  // The similarity stage in isolation: candidate generation is hoisted
  // out, so the timed region is SimBatch construction (value interning +
  // signature precomputation) plus threshold scoring of every candidate.
  // The whole-PreMatcher row below includes the blocking and the pair
  // store for context.
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
    report.AddScalar(key + ".best_s", best)
        .AddScalar(key + ".mean_s", sum / kReps);
    table.AddRow({stage, TextTable::Fixed(best, 3),
                  TextTable::Fixed(sum / kReps, 3),
                  std::to_string(static_cast<size_t>(
                      static_cast<double>(candidates.size()) / best))});
  };
  {
    double best = 0.0;
    double sum = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      const SimBatch batch(sim_func, pair.old_dataset, pair.new_dataset);
      for (const CandidatePair& cand : candidates) {
        sink += batch.AggregateWithThreshold(cand.old_id, cand.new_id,
                                             config.delta_low);
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

  // Pruning breakdown of one build, from the simkernel.* counters.
  {
    const char* const names[] = {
        "simkernel.screened",          "simkernel.pruned_by_length",
        "simkernel.pruned_by_profile", "simkernel.pruned_by_coverage",
        "simkernel.pruned_by_cutoff"};
    uint64_t before[std::size(names)];
    for (size_t i = 0; i < std::size(names); ++i) {
      before[i] = CounterValue(names[i]);
    }
    const PreMatcher pm(pair.old_dataset, pair.new_dataset, sim_func,
                        config.blocking, config.delta_low);
    sink += static_cast<double>(pm.scored_pairs().size());
    const double screened =
        static_cast<double>(CounterValue(names[0]) - before[0]);
    std::printf("pruning breakdown over %.0f screened pairs:\n", screened);
    for (size_t i = 1; i < std::size(names); ++i) {
      const double count = static_cast<double>(CounterValue(names[i]) -
                                               before[i]);
      const double rate = screened > 0.0 ? count / screened : 0.0;
      report.AddScalar(std::string("pruning.") + (names[i] + 10) + "_rate",
                       rate);
      std::printf("  %-28s %8.0f  (%s)\n", names[i] + 10, count,
                  TextTable::Percent(rate).c_str());
    }
    report.AddScalar("pruning.screened", screened);
  }

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
