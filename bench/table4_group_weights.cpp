// Reproduces Table 4: group-link selection weights (α, β) of Eq. 4 —
// the influence of record similarity, edge similarity and uniqueness on
// mapping quality.
//
//   ./table4_group_weights [--scale=0.25] [--seed=42] [--pair=2]

#include <utility>
#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("table4_group_weights", options);
  const bench::EvalPair ep = bench::MakeEvalPair(options);
  std::printf("== Table 4: group-similarity weights (α, β) ==\n");
  bench::PrintPairHeader(ep, options);
  obs::RunReportBuilder report = bench::MakeRunReport("table4_group_weights",
                                                      options);

  const std::vector<std::pair<double, double>> weights = {
      {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}, {0.33, 0.33}, {0.2, 0.7}};

  // Two gating regimes: the production default (absolute vertex age gate
  // on) already removes most decoys before Eq. 4 gets to rank them, which
  // compresses the (α, β) differences; with the gate off — the paper's
  // literal setting, where only *relative* age differences constrain edges
  // — the value of the edge similarity term stands out as in Table 4.
  for (const bool gate : {true, false}) {
    TextTable table(gate ? "-- with vertex age gate (production default) --"
                         : "-- without vertex age gate (paper's setting) --");
    table.SetHeader({"(α, β)", "grp P%", "grp R%", "grp F%", "rec P%",
                     "rec R%", "rec F%"});
    for (const auto& [alpha, beta] : weights) {
      LinkageConfig config = configs::DefaultConfig();
      config.group_weights = {alpha, beta};
      if (!gate) config.vertex_age_tolerance = 0;
      const LinkageResult result =
          LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, config);
      const bench::Quality q = bench::EvaluatePaperProtocol(result, ep);
      const std::string label = std::string(gate ? "gate" : "nogate") +
                                ".a" + TextTable::Fixed(alpha, 2) + ".b" +
                                TextTable::Fixed(beta, 2);
      report.AddQuality(label + ".group", q.group)
          .AddQuality(label + ".record", q.record);
      table.AddRow({"(" + TextTable::Fixed(alpha, 2) + ", " +
                        TextTable::Fixed(beta, 2) + ")",
                    TextTable::Percent(q.group.precision()),
                    TextTable::Percent(q.group.recall()),
                    TextTable::Percent(q.group.f_measure()),
                    TextTable::Percent(q.record.precision()),
                    TextTable::Percent(q.record.recall()),
                    TextTable::Percent(q.record.f_measure())});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }
  std::printf(
      "\npaper's shape: ignoring edge similarity (α=1, β=0) costs ~5%% group "
      "F; (0.2, 0.7) — which also gives the uniqueness score weight 0.1 — "
      "is the best configuration.\n"
      "paper's group F: 90.7 / 95.4 / 95.5 / 96.0 / 96.0.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
