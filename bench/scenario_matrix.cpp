// Scenario matrix: the iterative method (production defaults) across every
// built-in scenario preset — the faithful Rawtenstall calibration, the
// ICE-ID-style longitudinal register, and the adversarial regimes. One
// RunReport quality row per scenario, so BENCH_scenario_matrix.json pins
// how each stressor lands and bench_diff catches any drift.
//
//   ./scenario_matrix [--scale=0.25] [--seed=42] [--pair=2]
//                     [--report=FILE] [--trace=FILE]
//
// --scenario is accepted (shared parser) but ignored: this harness sweeps
// the whole registry by construction.

#include "bench_common.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("scenario_matrix", options);
  std::printf("== Scenario matrix: iterative linkage across all presets ==\n");
  obs::RunReportBuilder report = bench::MakeRunReport("scenario_matrix",
                                                      options);

  TextTable table("-- per-scenario quality (paper protocol) --");
  table.SetHeader({"scenario", "records", "grp P%", "grp R%", "grp F%",
                   "rec P%", "rec R%", "rec F%"});
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    Result<Scenario> resolved = ParseScenario(preset.json);
    if (!resolved.ok()) {
      std::fprintf(stderr, "error: preset %s: %s\n",
                   std::string(preset.name).c_str(),
                   resolved.status().ToString().c_str());
      return 1;
    }
    const Scenario& scenario = resolved.value();

    // Per-preset options: the swept scenario, under the shared
    // --scale/--seed/--pair coordinates so every row is one grid cell.
    bench::BenchOptions cell = options;
    cell.scenario = scenario.name;
    cell.scenario_config = scenario.config;
    cell.scenario_hash = scenario.content_hash;
    const bench::EvalPair ep = bench::MakeEvalPair(cell);

    const LinkageConfig config = configs::DefaultConfig();
    Timer timer;
    const LinkageResult result =
        LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, config);
    const double seconds = timer.ElapsedSeconds();
    const bench::Quality q = bench::EvaluatePaperProtocol(result, ep);

    const std::string label(scenario.name);
    report.AddQuality(label + ".group", q.group)
        .AddQuality(label + ".record", q.record)
        .AddScalar(label + ".seconds", seconds)
        .AddOption(label + ".hash", scenario.content_hash);
    table.AddRow({label,
                  std::to_string(ep.pair.old_dataset.num_records()) + "x" +
                      std::to_string(ep.pair.new_dataset.num_records()),
                  TextTable::Percent(q.group.precision()),
                  TextTable::Percent(q.group.recall()),
                  TextTable::Percent(q.group.f_measure()),
                  TextTable::Percent(q.record.precision()),
                  TextTable::Percent(q.record.recall()),
                  TextTable::Percent(q.record.f_measure())});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\nreading the matrix: rawtenstall is the default calibration (its row "
      "must match table5's default regime at equal options); the adversarial "
      "rows quantify how each stressor degrades group/record F-measure "
      "relative to it.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
