// tglink_cli — the command-line face of the library, driving the whole
// pipeline over CSV files on disk:
//
//   tglink_cli generate --out-dir DIR [--scale F] [--seed N] [--censuses K]
//              [--scenario NAME|FILE]
//       Writes census_<year>.csv snapshots and gold_<y1>_<y2>.csv mappings.
//       --scenario loads a calibration profile (preset name or
//       tglink.scenario/1 JSON file); explicit --scale/--seed/--censuses
//       still override the profile's generator block.
//
//   tglink_cli scenarios [--validate NAME|FILE]
//       Lists the built-in scenario presets; --validate parses and
//       validates one profile and prints its resolved name and content
//       hash (exit 1 on an invalid document).
//
//   tglink_cli stats --census FILE --year Y
//       Table-1 style dataset statistics.
//
//   tglink_cli profile --census FILE --year Y [--max-warnings N]
//       Full data-quality profile: fill rates, age / household-size
//       histograms, structural consistency warnings.
//
//   tglink_cli link --old FILE --old-year Y1 --new FILE --new-year Y2
//              --out MAPPINGS [--delta-low F] [--alpha F] [--beta F]
//              [--non-iterative] [--omega1] [--threads N] [--heartbeat S]
//              [--report FILE] [--trace FILE]
//       Runs iterative record and group linkage, writes the mappings CSV;
//       --threads picks the worker count (1 = serial, 0 = hardware; the
//       mappings are identical either way), --report writes a RunReport
//       JSON, --trace a Chrome trace.
//
//   tglink_cli evaluate --old FILE --old-year Y1 --new FILE --new-year Y2
//              --mappings FILE --gold FILE [--protocol full|verified]
//       Precision/recall/F-measure of stored mappings against gold.
//
//   tglink_cli analyze --dir DIR --years Y1,Y2,... [--dot FILE] [--csv FILE]
//              [--threads N] [--heartbeat S] [--report FILE] [--trace FILE]
//       Links the whole series in DIR (census_<year>.csv), prints evolution
//       patterns, preserved-household chains, components and frequent
//       trajectories; optionally exports the evolution graph.
//
// Every command refuses an option it does not read (exit 2, naming the
// flag) before doing any work.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tglink/census/io.h"
#include "tglink/census/profile.h"
#include "tglink/eval/metrics.h"
#include "tglink/eval/report.h"
#include "tglink/evolution/evolution_graph.h"
#include "tglink/evolution/export.h"
#include "tglink/evolution/queries.h"
#include "tglink/evolution/trajectories.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/iterative.h"
#include "tglink/linkage/result_io.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/run_report.h"
#include "tglink/obs/trace.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tglink/util/csv.h"
#include "tglink/util/parallel.h"
#include "tglink/util/strings.h"
#include "tglink/util/timer.h"

namespace tglink {
namespace {

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        values_[std::string(arg.substr(2, eq - 2))] =
            std::string(arg.substr(eq + 1));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[std::string(arg.substr(2))] = argv[++i];
      } else {
        values_[std::string(arg.substr(2))] = "true";
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback = "")
      const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
      BadValue(key, it->second, "a number");
    }
    return value;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE ||
        value < INT_MIN || value > INT_MAX) {
      BadValue(key, it->second, "an integer");
    }
    return static_cast<int>(value);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Exits 2 naming the first option that is not in `known`.
  void RejectUnknown(const std::vector<std::string_view>& known) const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        std::fprintf(stderr, "unknown option --%s\n", key.c_str());
        std::exit(2);
      }
    }
  }

  /// Required string option; exits with a usage message when absent.
  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required option --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  [[noreturn]] static void BadValue(const std::string& key,
                                    const std::string& value,
                                    const char* expected) {
    std::fprintf(stderr, "bad value '%s' for --%s (expected %s)\n",
                 value.c_str(), key.c_str(), expected);
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

/// Turns span collection on when the user asked for --report or --trace
/// (the report embeds the aggregated span tree). Call before the work runs.
void MaybeEnableTracing(const Args& args) {
  if (args.Has("report") || args.Has("trace")) {
    obs::GlobalTracer().SetEnabled(true);
  }
}

/// Applies --threads (1 = serial, the default; 0 = one worker per hardware
/// thread). The linkage output is identical for every value.
void ApplyThreadOption(const Args& args) {
  const int threads = args.GetInt("threads", 1);
  if (threads < 0) {
    std::fprintf(stderr,
                 "bad value for --threads (expected 0 or a positive count)\n");
    std::exit(2);
  }
  SetParallelThreadCount(threads);
}

/// Applies --heartbeat S: one stderr progress line (stage, pairs/sec, live
/// RSS) every S seconds while the pipeline runs. Off when absent.
void ApplyHeartbeatOption(const Args& args) {
  if (!args.Has("heartbeat")) return;
  const double interval = args.GetDouble("heartbeat", 0.0);
  if (interval <= 0.0) {
    std::fprintf(stderr,
                 "bad value for --heartbeat (expected a positive interval)\n");
    std::exit(2);
  }
  obs::StartHeartbeat(interval);
}

/// Writes the --report / --trace artifacts; returns 1 on I/O failure.
int EmitObsArtifacts(const obs::RunReportBuilder& report, const Args& args) {
  if (args.Has("report")) {
    const Status st = report.WriteFile(args.Get("report"));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.Get("report").c_str());
  }
  if (args.Has("trace")) {
    const Status st = WriteStringToFile(
        args.Get("trace"), obs::GlobalTracer().ToChromeTraceJson());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.Get("trace").c_str());
  }
  return 0;
}

CensusDataset LoadOrDie(const std::string& path, int year) {
  auto dataset = LoadDataset(path, year);
  if (!dataset.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(dataset).value();
}

int CmdGenerate(const Args& args) {
  GeneratorConfig gen;
  if (args.Has("scenario")) {
    Result<Scenario> scenario = ResolveScenario(args.Get("scenario"));
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
      return 2;
    }
    std::printf("scenario %s (hash %s)\n",
                scenario.value().name.c_str(),
                scenario.value().content_hash.c_str());
    gen = scenario.value().config;
  }
  // Explicit flags override the profile's generator block; without a
  // profile these fall back to the historical defaults.
  if (args.Has("scale") || !args.Has("scenario")) {
    gen.scale = args.GetDouble("scale", 0.25);
  }
  if (args.Has("seed") || !args.Has("scenario")) {
    gen.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  }
  if (args.Has("censuses") || !args.Has("scenario")) {
    gen.num_censuses = args.GetInt("censuses", 6);
  }
  const std::string dir = args.Require("out-dir");

  Timer timer;
  const SyntheticSeries series = GenerateCensusSeries(gen);
  for (size_t i = 0; i < series.snapshots.size(); ++i) {
    const CensusDataset& snapshot = series.snapshots[i];
    const std::string path =
        dir + "/census_" + std::to_string(snapshot.year()) + ".csv";
    const Status st = SaveDataset(snapshot, path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu records, %zu households)\n", path.c_str(),
                snapshot.num_records(), snapshot.num_households());
    if (i + 1 < series.snapshots.size()) {
      const std::string gold_path =
          dir + "/gold_" + std::to_string(snapshot.year()) + "_" +
          std::to_string(series.snapshots[i + 1].year()) + ".csv";
      const Status gst =
          WriteStringToFile(gold_path, GoldToCsv(series.gold[i]));
      if (!gst.ok()) {
        std::fprintf(stderr, "%s\n", gst.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s (%zu person links)\n", gold_path.c_str(),
                  series.gold[i].record_links.size());
    }
  }
  std::printf("done in %.1fs\n", timer.ElapsedSeconds());
  return 0;
}

int CmdProfile(const Args& args) {
  const CensusDataset dataset =
      LoadOrDie(args.Require("census"), args.GetInt("year", 0));
  const DatasetProfile profile =
      ProfileDataset(dataset, static_cast<size_t>(args.GetInt("max-warnings",
                                                              25)));
  std::printf("%s\n", profile.ToString().c_str());
  return 0;
}

int CmdStats(const Args& args) {
  const CensusDataset dataset =
      LoadOrDie(args.Require("census"), args.GetInt("year", 0));
  const DatasetStats stats = dataset.Stats();
  TextTable table;
  table.SetHeader({"year", "|R|", "|G|", "|fn+sn|", "ratio_mv", "avg |g|"});
  table.AddRow({std::to_string(stats.year), std::to_string(stats.num_records),
                std::to_string(stats.num_households),
                std::to_string(stats.unique_name_combinations),
                TextTable::Percent(stats.missing_value_ratio, 2) + "%",
                TextTable::Fixed(stats.avg_household_size, 2)});
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

LinkageConfig ConfigFromArgs(const Args& args) {
  LinkageConfig config = configs::DefaultConfig();
  if (args.Has("omega1")) config.sim_func = configs::Omega1();
  config.delta_low = args.GetDouble("delta-low", config.delta_low);
  config.delta_high = args.GetDouble("delta-high", config.delta_high);
  if (args.Has("non-iterative")) {
    config.delta_high = config.delta_low =
        args.GetDouble("delta-low", 0.5);
  }
  config.group_weights.alpha = args.GetDouble("alpha", 0.2);
  config.group_weights.beta = args.GetDouble("beta", 0.7);
  if (args.Has("no-enrichment")) config.enrich_groups = false;
  if (args.Has("no-context-residual")) config.context_residual = false;
  return config;
}

int CmdLink(const Args& args) {
  MaybeEnableTracing(args);
  ApplyThreadOption(args);
  ApplyHeartbeatOption(args);
  const CensusDataset old_dataset =
      LoadOrDie(args.Require("old"), args.GetInt("old-year", 0));
  const CensusDataset new_dataset =
      LoadOrDie(args.Require("new"), args.GetInt("new-year", 10));
  Timer timer;
  const LinkageResult result =
      LinkCensusPair(old_dataset, new_dataset, ConfigFromArgs(args));
  const double seconds = timer.ElapsedSeconds();
  std::printf("%s (%.1fs)\n", result.Summary().c_str(), seconds);
  const Status st =
      SaveMappings(result.record_mapping, result.group_mapping, old_dataset,
                   new_dataset, args.Require("out"));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.Get("out").c_str());

  obs::RunReportBuilder report("tglink_cli.link");
  report.AddOption("old", args.Get("old"))
      .AddOption("new", args.Get("new"))
      .AddOption("threads", static_cast<uint64_t>(ParallelThreadCount()))
      .AddScalar("link_seconds", seconds)
      .AddScalar("record_links",
                 static_cast<double>(result.record_mapping.size()))
      .AddScalar("group_links",
                 static_cast<double>(result.group_mapping.size()))
      .AddIterations(result.iterations);
  return EmitObsArtifacts(report, args);
}

int CmdEvaluate(const Args& args) {
  const CensusDataset old_dataset =
      LoadOrDie(args.Require("old"), args.GetInt("old-year", 0));
  const CensusDataset new_dataset =
      LoadOrDie(args.Require("new"), args.GetInt("new-year", 10));
  auto mapping_text = ReadFileToString(args.Require("mappings"));
  if (!mapping_text.ok()) {
    std::fprintf(stderr, "%s\n", mapping_text.status().ToString().c_str());
    return 1;
  }
  auto mappings =
      MappingsFromCsv(mapping_text.value(), old_dataset, new_dataset);
  if (!mappings.ok()) {
    std::fprintf(stderr, "%s\n", mappings.status().ToString().c_str());
    return 1;
  }
  auto gold_text = ReadFileToString(args.Require("gold"));
  if (!gold_text.ok()) {
    std::fprintf(stderr, "%s\n", gold_text.status().ToString().c_str());
    return 1;
  }
  auto gold = GoldFromCsv(gold_text.value());
  if (!gold.ok()) {
    std::fprintf(stderr, "%s\n", gold.status().ToString().c_str());
    return 1;
  }
  auto resolved = ResolveGold(gold.value(), old_dataset, new_dataset);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 1;
  }

  const std::string protocol = args.Get("protocol", "verified");
  if (protocol == "verified") {
    const ResolvedGold verified =
        SelectVerifiedSubset(resolved.value(), old_dataset, new_dataset);
    const GroupMapping heavy =
        HeavyGroupLinks(mappings.value().groups, mappings.value().records,
                        old_dataset, new_dataset);
    std::printf("record mapping (verified): %s\n",
                EvaluateRecordMapping(mappings.value().records, verified, true)
                    .ToString()
                    .c_str());
    std::printf("group mapping  (verified): %s\n",
                EvaluateGroupMapping(heavy, verified, true).ToString().c_str());
  } else {
    std::printf("record mapping (full): %s\n",
                EvaluateRecordMapping(mappings.value().records,
                                      resolved.value())
                    .ToString()
                    .c_str());
    std::printf("group mapping  (full): %s\n",
                EvaluateGroupMapping(mappings.value().groups, resolved.value())
                    .ToString()
                    .c_str());
  }
  return 0;
}

int CmdAnalyze(const Args& args) {
  MaybeEnableTracing(args);
  ApplyThreadOption(args);
  ApplyHeartbeatOption(args);
  const std::string dir = args.Require("dir");
  const std::vector<std::string> year_strings =
      Split(args.Require("years"), ',');
  std::vector<CensusDataset> datasets;
  for (const std::string& ys : year_strings) {
    const int year = ParseNonNegativeInt(ys);
    if (year <= 0) {
      std::fprintf(stderr, "bad year: %s\n", ys.c_str());
      return 2;
    }
    datasets.push_back(
        LoadOrDie(dir + "/census_" + std::to_string(year) + ".csv", year));
  }
  if (datasets.size() < 2) {
    std::fprintf(stderr, "need at least two years\n");
    return 2;
  }

  const LinkageConfig config = ConfigFromArgs(args);
  obs::RunReportBuilder report("tglink_cli.analyze");
  report.AddOption("dir", dir).AddOption("years", args.Get("years"));
  std::vector<RecordMapping> record_mappings;
  std::vector<GroupMapping> group_mappings;
  for (size_t i = 0; i + 1 < datasets.size(); ++i) {
    Timer timer;
    LinkageResult result =
        LinkCensusPair(datasets[i], datasets[i + 1], config);
    std::printf("linked %d->%d: %s (%.1fs)\n", datasets[i].year(),
                datasets[i + 1].year(), result.Summary().c_str(),
                timer.ElapsedSeconds());
    report.AddScalar("link_seconds." + std::to_string(datasets[i].year()),
                     timer.ElapsedSeconds());
    record_mappings.push_back(std::move(result.record_mapping));
    group_mappings.push_back(std::move(result.group_mapping));
  }

  const EvolutionGraph graph(datasets, record_mappings, group_mappings);
  TextTable patterns("\ngroup evolution patterns");
  patterns.SetHeader({"pair", "preserve_G", "move", "split", "merge", "add_G",
                      "remove_G"});
  for (size_t i = 0; i < graph.pair_counts().size(); ++i) {
    const EvolutionCounts& c = graph.pair_counts()[i];
    patterns.AddRow({std::to_string(datasets[i].year()) + "-" +
                         std::to_string(datasets[i + 1].year()),
                     std::to_string(c.preserve_groups),
                     std::to_string(c.move_groups),
                     std::to_string(c.split_groups),
                     std::to_string(c.merge_groups),
                     std::to_string(c.add_groups),
                     std::to_string(c.remove_groups)});
  }
  std::fputs(patterns.ToString().c_str(), stdout);

  const std::vector<size_t> profile = PreservedChainProfile(graph);
  std::printf("\npreserved households by interval:");
  for (size_t k = 0; k < profile.size(); ++k) {
    std::printf(" %zuy=%zu", 10 * (k + 1), profile[k]);
  }
  const ComponentStats components = ConnectedHouseholdComponents(graph);
  std::printf("\nlargest connected component: %zu households (%.1f%%)\n",
              components.largest_component,
              100.0 * components.largest_coverage);
  report.AddScalar("largest_component",
                   static_cast<double>(components.largest_component))
      .AddScalar("largest_coverage", components.largest_coverage);

  const auto trajectories = ExtractTrajectories(graph);
  std::printf("\ntop household trajectories:\n");
  for (const TrajectoryCount& tc :
       FrequentTrajectories(trajectories, 10)) {
    std::printf("  %6zu  %s\n", tc.count, tc.signature.c_str());
  }

  if (args.Has("dot")) {
    const Status st =
        WriteStringToFile(args.Get("dot"), EvolutionGraphToDot(graph, datasets));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.Get("dot").c_str());
  }
  if (args.Has("csv")) {
    const Status st =
        WriteStringToFile(args.Get("csv"), EvolutionGraphToCsv(graph, datasets));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.Get("csv").c_str());
  }
  return EmitObsArtifacts(report, args);
}

int CmdScenarios(const Args& args) {
  if (args.Has("validate")) {
    Result<Scenario> scenario = ResolveScenario(args.Get("validate"));
    if (!scenario.ok()) {
      std::fprintf(stderr, "invalid scenario: %s\n",
                   scenario.status().ToString().c_str());
      return 1;
    }
    std::printf("ok: %s (hash %s)\n", scenario.value().name.c_str(),
                scenario.value().content_hash.c_str());
    return 0;
  }
  TextTable table("-- built-in scenario presets (tglink.scenario/1) --");
  table.SetHeader({"name", "hash", "censuses", "description"});
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    Result<Scenario> scenario = ParseScenario(preset.json);
    if (!scenario.ok()) {
      std::fprintf(stderr, "preset %s: %s\n",
                   std::string(preset.name).c_str(),
                   scenario.status().ToString().c_str());
      return 1;
    }
    std::string description = scenario.value().description;
    if (description.size() > 56) description = description.substr(0, 53) + "...";
    table.AddRow({scenario.value().name, scenario.value().content_hash,
                  std::to_string(scenario.value().config.num_censuses),
                  description});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

/// A subcommand and every option it reads.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> options;
};

/// The options of link and analyze beyond their own: ConfigFromArgs',
/// ApplyThreadOption's, ApplyHeartbeatOption's and the --report/--trace
/// artifacts'.
std::vector<std::string_view> WithLinkOptions(
    std::vector<std::string_view> options) {
  options.insert(options.end(),
                 {"omega1", "delta-low", "delta-high", "non-iterative",
                  "alpha", "beta", "no-enrichment", "no-context-residual",
                  "threads", "heartbeat", "report", "trace"});
  return options;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tglink_cli "
               "<generate|stats|profile|link|evaluate|analyze|scenarios> "
               "[options]\n"
               "see the header of tools/tglink_cli.cc for per-command "
               "options\n");
  return 2;
}

}  // namespace
}  // namespace tglink

int main(int argc, char** argv) {
  using namespace tglink;
  if (argc < 2) return Usage();
  const Args args(argc, argv, 2);
  const Command commands[] = {
      {"generate", CmdGenerate,
       {"out-dir", "scale", "seed", "censuses", "scenario"}},
      {"stats", CmdStats, {"census", "year"}},
      {"profile", CmdProfile, {"census", "year", "max-warnings"}},
      {"link", CmdLink,
       WithLinkOptions({"old", "old-year", "new", "new-year", "out"})},
      {"evaluate", CmdEvaluate,
       {"old", "old-year", "new", "new-year", "mappings", "gold",
        "protocol"}},
      {"analyze", CmdAnalyze, WithLinkOptions({"dir", "years", "dot", "csv"})},
      {"scenarios", CmdScenarios, {"validate"}},
  };
  for (const Command& command : commands) {
    if (command.name != argv[1]) continue;
    args.RejectUnknown(command.options);
    return command.run(args);
  }
  return Usage();
}
