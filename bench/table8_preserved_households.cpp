// Reproduces Table 8: the number of households preserved over 10/20/30/40/
// 50-year intervals, plus the paper's largest-connected-component analysis
// of the evolution graph (Section 5.4: 17,150 households ≈ 52% coverage).
//
//   ./table8_preserved_households [--scale=0.25] [--seed=42]

#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"
#include "tglink/evolution/evolution_graph.h"
#include "tglink/evolution/queries.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("table8_preserved_households", options);
  obs::RunReportBuilder report =
      bench::MakeRunReport("table8_preserved_households", options);

  const GeneratorConfig gen = bench::MakeSeriesGeneratorConfig(options);
  const SyntheticSeries series = GenerateCensusSeries(gen);
  std::printf("== Table 8: preserved households by interval (scale %.2f) "
              "==\n",
              options.scale);

  const LinkageConfig config = configs::DefaultConfig();
  std::vector<RecordMapping> record_mappings;
  std::vector<GroupMapping> group_mappings;
  for (size_t i = 0; i + 1 < series.snapshots.size(); ++i) {
    LinkageResult result = LinkCensusPair(series.snapshots[i],
                                          series.snapshots[i + 1], config);
    record_mappings.push_back(std::move(result.record_mapping));
    group_mappings.push_back(std::move(result.group_mapping));
  }
  const EvolutionGraph graph(series.snapshots, record_mappings,
                             group_mappings);

  TextTable table;
  table.SetHeader({"interval (years)", "|preserve_G|"});
  const std::vector<size_t> profile = PreservedChainProfile(graph);
  for (size_t k = 0; k < profile.size(); ++k) {
    report.AddScalar("preserved." + std::to_string(10 * (k + 1)) + "y",
                     static_cast<double>(profile[k]));
    table.AddRow({std::to_string(10 * (k + 1)), std::to_string(profile[k])});
  }
  std::fputs(table.ToString().c_str(), stdout);

  const ComponentStats components = ConnectedHouseholdComponents(graph);
  report.AddScalar("largest_component",
                   static_cast<double>(components.largest_component))
      .AddScalar("largest_coverage", components.largest_coverage);
  std::printf(
      "\nlargest connected component: %zu households = %.1f%% of all %zu "
      "(paper: 17150 ≈ 52%%)\n",
      components.largest_component, 100.0 * components.largest_coverage,
      graph.total_households());
  std::printf(
      "\npaper's Table 8: 10y 15705, 20y 7731, 30y 3322, 40y 1116, 50y 260 — "
      "a steep geometric decay; the same decay shape is expected here "
      "(values scale with --scale).\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
