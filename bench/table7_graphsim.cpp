// Reproduces Table 7: group (household) mapping quality of the GraphSim
// baseline (after Fu et al. [8]) vs iterative subgraph matching.
//
//   ./table7_graphsim [--scale=0.25] [--seed=42] [--pair=2]

#include "bench_common.h"
#include "tglink/baselines/graphsim.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("table7_graphsim", options);
  const bench::EvalPair ep = bench::MakeEvalPair(options);
  std::printf("== Table 7: GraphSim vs iter-sub (household mapping) ==\n");
  bench::PrintPairHeader(ep, options);
  obs::RunReportBuilder report = bench::MakeRunReport("table7_graphsim",
                                                      options);

  TextTable table;
  table.SetHeader({"method", "grp P%", "grp R%", "grp F%", "time s"});

  Timer timer;
  GraphSimConfig gs_config;
  gs_config.sim_func = configs::Omega2();
  const GraphSimResult gs =
      GraphSimLink(ep.pair.old_dataset, ep.pair.new_dataset, gs_config);
  const double gs_seconds = timer.ElapsedSeconds();
  const GroupMapping gs_heavy =
      HeavyGroupLinks(gs.group_mapping, gs.record_mapping,
                      ep.pair.old_dataset, ep.pair.new_dataset);
  const PrecisionRecall gs_pr =
      EvaluateGroupMapping(gs_heavy, ep.verified, /*restrict=*/true);
  table.AddRow({"GraphSim [8]", TextTable::Percent(gs_pr.precision()),
                TextTable::Percent(gs_pr.recall()),
                TextTable::Percent(gs_pr.f_measure()),
                TextTable::Fixed(gs_seconds, 1)});

  timer.Reset();
  const LinkageConfig ours_config = configs::DefaultConfig();
  const LinkageResult ours =
      LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, ours_config);
  const double ours_seconds = timer.ElapsedSeconds();
  const bench::Quality q = bench::EvaluatePaperProtocol(ours, ep);
  table.AddRow({"iter-sub", TextTable::Percent(q.group.precision()),
                TextTable::Percent(q.group.recall()),
                TextTable::Percent(q.group.f_measure()),
                TextTable::Fixed(ours_seconds, 1)});

  report.AddQuality("group.graphsim", gs_pr)
      .AddQuality("group.iter_sub", q.group)
      .AddQuality("record.iter_sub", q.record)
      .AddScalar("graphsim.seconds", gs_seconds)
      .AddScalar("iter_sub.seconds", ours_seconds)
      .AddIterations(ours.iterations);

  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\npaper's shape: GraphSim's precision is competitive but its recall "
      "is capped by the initial highly selective 1:1 record mapping; "
      "iter-sub's iterative relaxation recovers those households.\n"
      "paper: GraphSim 97.6/90.1/93.7 vs iter-sub 97.3/94.8/96.0.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
