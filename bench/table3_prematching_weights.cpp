// Reproduces Table 3: group and record mapping quality for the two
// pre-matching weight vectors ω1 / ω2 (Table 2) across lower threshold
// bounds δ_low ∈ {0.40, 0.45, 0.50, 0.55}, with δ_high = 0.7 and Δ = 0.05.
//
//   ./table3_prematching_weights [--scale=0.25] [--seed=42] [--pair=2]

#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("table3_prematching_weights", options);
  const bench::EvalPair ep = bench::MakeEvalPair(options);
  std::printf("== Table 3: pre-matching weights and δ_low ==\n");
  bench::PrintPairHeader(ep, options);
  obs::RunReportBuilder report =
      bench::MakeRunReport("table3_prematching_weights", options);

  TextTable table;
  table.SetHeader({"ω", "δ_low", "grp P%", "grp R%", "grp F%", "rec P%",
                   "rec R%", "rec F%", "time s"});
  const std::vector<double> delta_lows = {0.40, 0.45, 0.50, 0.55};
  for (int w = 1; w <= 2; ++w) {
    for (double delta_low : delta_lows) {
      LinkageConfig config = configs::DefaultConfig();
      config.sim_func = (w == 1) ? configs::Omega1() : configs::Omega2();
      config.delta_low = delta_low;
      Timer timer;
      const LinkageResult result =
          LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, config);
      const double seconds = timer.ElapsedSeconds();
      const bench::Quality q = bench::EvaluatePaperProtocol(result, ep);
      const std::string label = "omega" + std::to_string(w) + ".dlow" +
                                TextTable::Fixed(delta_low, 2);
      report.AddQuality(label + ".group", q.group)
          .AddQuality(label + ".record", q.record)
          .AddScalar(label + ".seconds", seconds);
      table.AddRow({"ω" + std::to_string(w), TextTable::Fixed(delta_low, 2),
                    TextTable::Percent(q.group.precision()),
                    TextTable::Percent(q.group.recall()),
                    TextTable::Percent(q.group.f_measure()),
                    TextTable::Percent(q.record.precision()),
                    TextTable::Percent(q.record.recall()),
                    TextTable::Percent(q.record.f_measure()),
                    TextTable::Fixed(seconds, 1)});
    }
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\npaper's shape: ω2 outperforms ω1 by ~1.7%% group F / ~1.3%% record "
      "F; δ_low has little effect, best around 0.5.\n"
      "paper's values (group F): ω1 94.1-94.3, ω2 95.9-96.0; (record F): "
      "ω1 94.2-94.3, ω2 95.5-95.6.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
