// Ablation study (beyond the paper): quantifies the design choices that
// DESIGN.md calls out —
//   * group enrichment (implicit all-pairs relationships) on/off,
//   * the uniqueness score (Eq. 7) on/off at fixed record/edge weights,
//   * multi-pass blocking vs the paper's exhaustive cross product,
//   * the vertex-level temporal age gate on/off,
//   * the household-context residual pass (extension) on/off,
//   * data-quality noise sweep (corruption model at 0.5x / 1x / 2x).
//
//   ./ablation_design_choices [--scale=0.25] [--seed=42] [--pair=2]

#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "tglink/eval/report.h"

int main(int argc, char** argv) {
  using namespace tglink;
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const bench::ReportOnAbort abort_guard("ablation_design_choices", options);
  const bench::EvalPair ep = bench::MakeEvalPair(options);
  std::printf("== Ablation: design choices ==\n");
  bench::PrintPairHeader(ep, options);
  obs::RunReportBuilder report =
      bench::MakeRunReport("ablation_design_choices", options);

  TextTable table;
  table.SetHeader({"variant", "grp P%", "grp R%", "grp F%", "rec P%",
                   "rec R%", "rec F%", "time s"});

  struct Variant {
    std::string name;
    std::string slug;  // machine-readable RunReport label
    std::function<void(LinkageConfig*)> tweak;
  };
  const std::vector<Variant> variants = {
      {"default (all on)", "default", [](LinkageConfig*) {}},
      {"no group enrichment", "no_enrichment",
       [](LinkageConfig* c) { c->enrich_groups = false; }},
      {"no uniqueness (α=.25, β=.75)", "no_uniqueness",
       [](LinkageConfig* c) { c->group_weights = {0.25, 0.75}; }},
      {"exhaustive pre-matching", "exhaustive",
       [](LinkageConfig* c) { c->blocking = BlockingConfig::MakeExhaustive(); }},
      {"no vertex age gate", "no_age_gate",
       [](LinkageConfig* c) { c->vertex_age_tolerance = 0; }},
      {"no context residual", "no_context_residual",
       [](LinkageConfig* c) { c->context_residual = false; }},
  };
  for (const Variant& variant : variants) {
    LinkageConfig config = configs::DefaultConfig();
    variant.tweak(&config);
    Timer timer;
    const LinkageResult result =
        LinkCensusPair(ep.pair.old_dataset, ep.pair.new_dataset, config);
    const double seconds = timer.ElapsedSeconds();
    const bench::Quality q = bench::EvaluatePaperProtocol(result, ep);
    report.AddQuality(variant.slug + ".group", q.group)
        .AddQuality(variant.slug + ".record", q.record)
        .AddScalar(variant.slug + ".seconds", seconds);
    table.AddRow({variant.name, TextTable::Percent(q.group.precision()),
                  TextTable::Percent(q.group.recall()),
                  TextTable::Percent(q.group.f_measure()),
                  TextTable::Percent(q.record.precision()),
                  TextTable::Percent(q.record.recall()),
                  TextTable::Percent(q.record.f_measure()),
                  TextTable::Fixed(seconds, 1)});
  }
  std::fputs(table.ToString().c_str(), stdout);

  // Noise sweep: regenerate the pair at different corruption levels.
  std::printf("\n-- corruption noise sweep --\n");
  TextTable noise_table;
  noise_table.SetHeader({"noise x", "missing %", "grp F%", "rec F%"});
  for (double noise : {0.5, 1.0, 2.0}) {
    GeneratorConfig gen = bench::MakeGeneratorConfig(options);
    gen.corruption.noise_scale = noise;
    const SyntheticPair pair = GenerateCensusPair(gen, options.pair_index);
    auto full = ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset);
    if (!full.ok()) return 1;
    const ResolvedGold verified = SelectVerifiedSubset(
        full.value(), pair.old_dataset, pair.new_dataset);
    const LinkageResult result = LinkCensusPair(
        pair.old_dataset, pair.new_dataset, configs::DefaultConfig());
    const PrecisionRecall rec =
        EvaluateRecordMapping(result.record_mapping, verified, true);
    const GroupMapping heavy =
        HeavyGroupLinks(result.group_mapping, result.record_mapping,
                        pair.old_dataset, pair.new_dataset);
    const PrecisionRecall grp = EvaluateGroupMapping(heavy, verified, true);
    noise_table.AddRow(
        {TextTable::Fixed(noise, 1),
         TextTable::Percent(pair.old_dataset.Stats().missing_value_ratio),
         TextTable::Percent(grp.f_measure()),
         TextTable::Percent(rec.f_measure())});
  }
  std::fputs(noise_table.ToString().c_str(), stdout);
  bench::EmitRunArtifacts(report, options);
  return 0;
}
