// Reproduces Fig. 6: frequency of each group evolution pattern for every
// successive census pair 1851-1901, computed from the linkage results with
// the best configuration (ω2, δ_low = 0.5, (α, β) = (0.2, 0.7)).
//
//   ./fig6_evolution_patterns [--scale=0.25] [--seed=42]

#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"
#include "tglink/evolution/evolution_graph.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("fig6_evolution_patterns", options);
  obs::RunReportBuilder report =
      bench::MakeRunReport("fig6_evolution_patterns", options);

  const GeneratorConfig gen = bench::MakeSeriesGeneratorConfig(options);
  const SyntheticSeries series = GenerateCensusSeries(gen);
  std::printf("== Fig. 6: evolution pattern frequencies 1851-1901 (scale "
              "%.2f) ==\n",
              options.scale);

  const LinkageConfig config = configs::DefaultConfig();
  std::vector<RecordMapping> record_mappings;
  std::vector<GroupMapping> group_mappings;
  Timer timer;
  for (size_t i = 0; i + 1 < series.snapshots.size(); ++i) {
    LinkageResult result = LinkCensusPair(series.snapshots[i],
                                          series.snapshots[i + 1], config);
    record_mappings.push_back(std::move(result.record_mapping));
    group_mappings.push_back(std::move(result.group_mapping));
  }
  std::printf("linked %zu pairs in %.1fs\n", record_mappings.size(),
              timer.ElapsedSeconds());
  report.AddScalar("link_seconds", timer.ElapsedSeconds());

  const EvolutionGraph graph(series.snapshots, record_mappings,
                             group_mappings);
  TextTable table;
  table.SetHeader({"pair", "preserve_G", "move", "split", "merge", "add_G",
                   "remove_G"});
  for (size_t i = 0; i < graph.pair_counts().size(); ++i) {
    const EvolutionCounts& c = graph.pair_counts()[i];
    const std::string pair_label = std::to_string(series.snapshots[i].year());
    report.AddScalar("preserve_g." + pair_label,
                     static_cast<double>(c.preserve_groups))
        .AddScalar("move_g." + pair_label, static_cast<double>(c.move_groups))
        .AddScalar("split_g." + pair_label,
                   static_cast<double>(c.split_groups))
        .AddScalar("merge_g." + pair_label,
                   static_cast<double>(c.merge_groups));
    table.AddRow({std::to_string(series.snapshots[i].year()) + "-" +
                      std::to_string(series.snapshots[i + 1].year() % 100),
                  std::to_string(c.preserve_groups),
                  std::to_string(c.move_groups), std::to_string(c.split_groups),
                  std::to_string(c.merge_groups), std::to_string(c.add_groups),
                  std::to_string(c.remove_groups)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\npaper's shape (at full scale): add_G > remove_G every decade "
      "(growth); preserve_G rises over time; split ≈ 100 and merge ≈ 70 on "
      "average; move ≈ 1600 on average; 1891-1901 shows a remove_G spike "
      "(≈ 2200) from households leaving the region.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
