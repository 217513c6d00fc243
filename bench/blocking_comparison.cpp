// Blocking-strategy study (beyond the paper, which compares R_i × R_{i+1}
// exhaustively): pair completeness (share of true matches kept), reduction
// ratio (candidates avoided vs the cross product) and runtime for
//   * the inverted candidate index over the three phonetic passes (the
//     library default), with and without pruning, and its conjunctive
//     >= 2-shared-keys refinement,
//   * sorted-neighborhood with varying windows,
//   * their union,
//   * the exhaustive cross product (reference).
//
//   ./blocking_comparison [--scale=0.25] [--seed=42] [--pair=2]

#include <functional>
#include <set>

#include "bench_common.h"
#include "tglink/blocking/sorted_neighborhood.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("blocking_comparison", options);
  const bench::EvalPair ep = bench::MakeEvalPair(options);
  std::printf("== Blocking strategies: completeness vs reduction ==\n");
  bench::PrintPairHeader(ep, options);
  obs::RunReportBuilder report = bench::MakeRunReport("blocking_comparison",
                                                      options);

  const double cross = static_cast<double>(ep.pair.old_dataset.num_records()) *
                       static_cast<double>(ep.pair.new_dataset.num_records());

  struct Strategy {
    std::string name;
    std::string slug;  // machine-readable RunReport label
    std::function<std::vector<CandidatePair>()> generate;
  };
  auto snm = [&](size_t window) {
    SortedNeighborhoodConfig config = SortedNeighborhoodConfig::MakeDefault();
    config.window = window;
    return SortedNeighborhoodPairs(ep.pair.old_dataset, ep.pair.new_dataset,
                                   config);
  };
  const std::vector<Strategy> strategies = {
      {"inverted index (default, pruning off)", "index",
       [&] {
         return GenerateCandidatePairs(ep.pair.old_dataset,
                                       ep.pair.new_dataset,
                                       BlockingConfig::MakeDefault());
       }},
      {"inverted index (cap 512 + SNM fallback)", "index_pruned",
       [&] {
         BlockingConfig config = BlockingConfig::MakeDefault();
         config.max_posting_len = 512;
         config.fallback_window = 8;
         return GenerateCandidatePairs(ep.pair.old_dataset,
                                       ep.pair.new_dataset, config);
       }},
      {"inverted index (>=2 shared keys)", "index_conj",
       [&] {
         BlockingConfig config = BlockingConfig::MakeDefault();
         config.min_shared_passes = 2;
         return GenerateCandidatePairs(ep.pair.old_dataset,
                                       ep.pair.new_dataset, config);
       }},
      {"sorted-neighborhood w=4", "snm4", [&] { return snm(4); }},
      {"sorted-neighborhood w=8", "snm8", [&] { return snm(8); }},
      {"sorted-neighborhood w=16", "snm16", [&] { return snm(16); }},
      {"phonetic ∪ SNM w=8", "union8",
       [&] {
         return UnionCandidatePairs(
             GenerateCandidatePairs(ep.pair.old_dataset, ep.pair.new_dataset,
                                    BlockingConfig::MakeDefault()),
             snm(8));
       }},
  };

  TextTable table;
  table.SetHeader({"strategy", "candidates", "completeness %", "reduction %",
                   "time s"});
  for (const Strategy& strategy : strategies) {
    Timer timer;
    const std::vector<CandidatePair> candidates = strategy.generate();
    const double seconds = timer.ElapsedSeconds();
    std::set<std::pair<RecordId, RecordId>> set;
    for (const CandidatePair& c : candidates) set.emplace(c.old_id, c.new_id);
    size_t found = 0;
    for (const RecordLink& link : ep.full.record_links) {
      if (set.count(link)) ++found;
    }
    const double completeness =
        ep.full.record_links.empty()
            ? 0.0
            : static_cast<double>(found) / ep.full.record_links.size();
    report.AddScalar(strategy.slug + ".candidates",
                     static_cast<double>(candidates.size()))
        .AddScalar(strategy.slug + ".completeness", completeness)
        .AddScalar(strategy.slug + ".seconds", seconds);
    table.AddRow({strategy.name, std::to_string(candidates.size()),
                  TextTable::Percent(completeness),
                  TextTable::Percent(1.0 - candidates.size() / cross),
                  TextTable::Fixed(seconds, 2)});
  }
  table.AddRow({"exhaustive (reference)",
                std::to_string(static_cast<size_t>(cross)), "100.0", "0.0",
                "-"});
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\nexpected shape: the phonetic index keeps ~95%% of ALL true matches "
      "(including movers with changed surnames) at ~98%% reduction; SNM "
      "completeness grows with the window; the union dominates either "
      "alone.\n");
  bench::EmitRunArtifacts(report, options);
  return 0;
}
