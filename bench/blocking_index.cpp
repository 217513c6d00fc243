// Inverted-index candidate generation, the library's one candidate
// generator: the benchmark behind BENCH_blocking_index.json.
//
// Two sections:
//   * timing, at --scale (check-in runs use --scale=1.0, the paper's full
//     Rawtenstall size): best-of-N and mean candidate-generation wall time
//     and the candidate count;
//   * quality twin, always at the table5 reference point (scale 0.25,
//     seed 42, pair 2): the four table5_iterative configurations, so the
//     "quality" block must be byte-identical to
//     BENCH_table5_iterative.json's.
//
//   ./blocking_index [--scale=1.0] [--seed=42] [--report=FILE]

#include "bench_common.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("blocking_index", options);
  obs::RunReportBuilder report = bench::MakeRunReport("blocking_index",
                                                      options);
  std::printf("== Inverted-index candidate generation ==\n");

  // ---- Timing at --scale -------------------------------------------------
  const SyntheticPair pair =
      GenerateCensusPair(bench::MakeGeneratorConfig(options),
                         options.pair_index);
  std::printf("timing pair %d->%d at scale %.2f: %zu x %zu records\n",
              pair.old_dataset.year(), pair.new_dataset.year(), options.scale,
              pair.old_dataset.num_records(), pair.new_dataset.num_records());

  const BlockingConfig blocking = BlockingConfig::MakeDefault();
  constexpr int kReps = 5;
  double best = 0.0;
  double sum = 0.0;
  size_t candidates = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    const auto generated =
        GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, blocking);
    const double seconds = timer.ElapsedSeconds();
    candidates = generated.size();
    sum += seconds;
    if (rep == 0 || seconds < best) best = seconds;
  }
  const double mean = sum / kReps;
  // Wall times end in "seconds" so bench_diff.py ratio-gates them; the
  // candidate count is gated exactly.
  report.AddScalar("timing.candidates", static_cast<double>(candidates))
      .AddScalar("timing.index.best_seconds", best)
      .AddScalar("timing.index.mean_seconds", mean);
  TextTable table;
  table.SetHeader({"method", "candidates", "best s", "mean s",
                   "pairs/s (best)"});
  table.AddRow({"inverted candidate index", std::to_string(candidates),
                TextTable::Fixed(best, 3), TextTable::Fixed(mean, 3),
                std::to_string(static_cast<size_t>(candidates / best))});
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
  std::printf("\nquality twin (table5 configurations):\n");
  bench::PrintPairHeader(ep, quality_options);
  for (const bool safety_nets : {true, false}) {
    for (const bool iterative : {false, true}) {
      LinkageConfig config = configs::DefaultConfig();
      if (!iterative) config.delta_high = config.delta_low = 0.5;
      if (!safety_nets) {
        config.vertex_age_tolerance = 0;
        config.context_residual = false;
      }
      const LinkageResult result =
          LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, config);
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
