// Reproduces Table 6: record mapping quality of the collective linkage
// baseline (CL, after Lacoste-Julien et al. [14]) vs iterative subgraph
// matching (iter-sub, this library).
//
//   ./table6_collective [--scale=0.25] [--seed=42] [--pair=2]

#include "bench_common.h"
#include "tglink/baselines/collective.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("table6_collective", options);
  const bench::EvalPair ep = bench::MakeEvalPair(options);
  std::printf("== Table 6: collective linkage (CL) vs iter-sub ==\n");
  bench::PrintPairHeader(ep, options);
  obs::RunReportBuilder report = bench::MakeRunReport("table6_collective",
                                                      options);

  TextTable table;
  table.SetHeader({"method", "rec P%", "rec R%", "rec F%", "time s"});

  Timer timer;
  CollectiveConfig cl_config;
  cl_config.sim_func = configs::Omega2();
  const RecordMapping cl =
      CollectiveLink(ep.pair.old_dataset, ep.pair.new_dataset, cl_config);
  const double cl_seconds = timer.ElapsedSeconds();
  const PrecisionRecall cl_pr =
      EvaluateRecordMapping(cl, ep.verified, /*restrict=*/true);
  table.AddRow({"CL [14]", TextTable::Percent(cl_pr.precision()),
                TextTable::Percent(cl_pr.recall()),
                TextTable::Percent(cl_pr.f_measure()),
                TextTable::Fixed(cl_seconds, 1)});

  timer.Reset();
  const LinkageConfig ours_config = configs::DefaultConfig();
  const LinkageResult ours =
      LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, ours_config);
  const double ours_seconds = timer.ElapsedSeconds();
  const bench::Quality q = bench::EvaluatePaperProtocol(ours, ep);
  table.AddRow({"iter-sub", TextTable::Percent(q.record.precision()),
                TextTable::Percent(q.record.recall()),
                TextTable::Percent(q.record.f_measure()),
                TextTable::Fixed(ours_seconds, 1)});

  report.AddQuality("record.cl", cl_pr)
      .AddQuality("record.iter_sub", q.record)
      .AddQuality("group.iter_sub", q.group)
      .AddScalar("cl.seconds", cl_seconds)
      .AddScalar("iter_sub.seconds", ours_seconds)
      .AddIterations(ours.iterations);

  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\npaper's shape: iter-sub beats CL by a wide F margin, driven by "
      "recall (CL links only highly similar records; movers and renamed "
      "records are lost).\n"
      "paper: CL 93.5/81.2/86.9 vs iter-sub 97.5/93.7/95.6.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
