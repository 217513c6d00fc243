// Shared scaffolding for the experiment harnesses: command-line options,
// synthetic-pair construction, and the paper's evaluation protocol
// (verified household subset + universe restriction; see DESIGN.md §4).

#ifndef TGLINK_BENCH_BENCH_COMMON_H_
#define TGLINK_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "tglink/eval/metrics.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/iterative.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/run_report.h"
#include "tglink/obs/trace.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tglink/util/csv.h"
#include "tglink/util/parallel.h"
#include "tglink/util/timer.h"

namespace tglink {
namespace bench {

struct BenchOptions {
  /// Fraction of the paper's Table 1 dataset sizes. 1.0 = full Rawtenstall
  /// scale (~50 s per linkage run on one core); the default keeps the
  /// multi-configuration sweeps interactive.
  double scale = 0.25;
  uint64_t seed = 42;
  /// Which successive pair to evaluate; 2 = 1871->1881, the paper's choice.
  int pair_index = 2;
  /// When non-empty, EmitRunArtifacts writes a RunReport JSON here.
  std::string report_path;
  /// When non-empty, EmitRunArtifacts writes Chrome trace-event JSON here.
  std::string trace_path;
  /// Worker threads for the parallel pipeline stages: 1 = serial (the
  /// default, today's behaviour), 0 = one per hardware thread. Results are
  /// identical for every value — see util/parallel.h.
  int threads = 1;
  /// > 0 starts the obs heartbeat: one stderr line every N seconds with the
  /// current stage, pairs/sec and live RSS (long full-scale runs).
  double heartbeat_s = 0.0;
  /// Test hook, hidden from --help: "throw" makes MakeEvalPair throw, which
  /// exercises the ReportOnAbort partial-report flush end to end.
  std::string inject_fault;
  /// Scenario profile (synth/scenario.h): preset name or JSON file path,
  /// resolved at parse time. Empty = built-in generator defaults. The
  /// resolved name (not the path) is what RunReports record, alongside the
  /// profile's content hash.
  std::string scenario;
  /// Generator configuration from the resolved scenario; defaults when no
  /// --scenario was given. --scale / --seed / --pair stay authoritative:
  /// MakeGeneratorConfig overlays them on top of this.
  GeneratorConfig scenario_config;
  /// FNV-1a 64 content hash of the scenario document (16 hex digits);
  /// empty when running on defaults.
  std::string scenario_hash;
};

namespace detail {

/// Exits with status 2 — the conventional usage-error code, distinct from
/// the exit(1) the harnesses use for runtime failures.
[[noreturn]] inline void OptionError(const char* flag, const char* value,
                                     const char* expected) {
  std::fprintf(stderr, "error: bad value '%s' for %s (expected %s)\n", value,
               flag, expected);
  std::exit(2);
}

inline double ParseDoubleValue(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) {
    OptionError(flag, value, "a number");
  }
  return parsed;
}

inline uint64_t ParseUint64Value(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  if (value[0] == '-') OptionError(flag, value, "a non-negative integer");
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    OptionError(flag, value, "a non-negative integer");
  }
  return static_cast<uint64_t>(parsed);
}

inline int ParseIntValue(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    OptionError(flag, value, "an integer");
  }
  return static_cast<int>(parsed);
}

}  // namespace detail

inline BenchOptions ParseBenchOptions(int argc, char** argv,
                                      BenchOptions options = {}) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      options.scale = detail::ParseDoubleValue("--scale", arg + 8);
      if (options.scale <= 0.0) {
        detail::OptionError("--scale", arg + 8, "a positive fraction");
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = detail::ParseUint64Value("--seed", arg + 7);
    } else if (std::strncmp(arg, "--pair=", 7) == 0) {
      options.pair_index = detail::ParseIntValue("--pair", arg + 7);
      if (options.pair_index < 0) {
        detail::OptionError("--pair", arg + 7, "a non-negative index");
      }
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      options.report_path = arg + 9;
      if (options.report_path.empty()) {
        detail::OptionError("--report", arg + 9, "a file path");
      }
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      options.trace_path = arg + 8;
      if (options.trace_path.empty()) {
        detail::OptionError("--trace", arg + 8, "a file path");
      }
    } else if (std::strncmp(arg, "--heartbeat=", 12) == 0) {
      options.heartbeat_s = detail::ParseDoubleValue("--heartbeat", arg + 12);
      if (options.heartbeat_s <= 0.0) {
        detail::OptionError("--heartbeat", arg + 12, "a positive interval");
      }
    } else if (std::strncmp(arg, "--scenario=", 11) == 0) {
      if (arg[11] == '\0') {
        detail::OptionError("--scenario", arg + 11,
                            "a preset name or scenario JSON path");
      }
      Result<Scenario> scenario = ResolveScenario(arg + 11);
      if (!scenario.ok()) {
        std::fprintf(stderr, "error: --scenario: %s\n",
                     scenario.status().ToString().c_str());
        std::exit(2);
      }
      // Record the profile's declared name, not the argument: a preset and
      // the file mirroring it then produce identical RunReport identities.
      options.scenario = scenario.value().name;
      options.scenario_config = scenario.value().config;
      options.scenario_hash = scenario.value().content_hash;
    } else if (std::strncmp(arg, "--inject-fault=", 15) == 0) {
      options.inject_fault = arg + 15;
      if (options.inject_fault != "throw" && options.inject_fault != "none") {
        detail::OptionError("--inject-fault", arg + 15, "throw or none");
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      options.threads = detail::ParseIntValue("--threads", arg + 10);
      if (options.threads < 0) {
        detail::OptionError("--threads", arg + 10,
                            "0 (hardware) or a positive count");
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      std::string presets;
      for (const std::string& name : ScenarioPresetNames()) {
        presets += " " + name;
      }
      std::printf(
          "options: --scale=F --seed=N --pair=K --threads=N "
          "--scenario=NAME --heartbeat=S --report=FILE --trace=FILE\n"
          "  --scale=F    fraction of Table 1 dataset sizes (default 0.25)\n"
          "  --seed=N     synthetic-data RNG seed (default 42)\n"
          "  --pair=K     successive census pair index (default 2)\n"
          "  --threads=N  worker threads; 1 = serial (default), 0 = one per\n"
          "               hardware thread; results are identical either way\n"
          "  --scenario=NAME  generator calibration profile: a preset name\n"
          "               or a tglink.scenario/1 JSON file; --scale/--seed/\n"
          "               --pair still override its generator block.\n"
          "               presets:%s\n"
          "  --heartbeat=S  print stage/pairs-per-sec/RSS to stderr every S\n"
          "               seconds (long runs; off by default)\n"
          "  --report=FILE  write a RunReport JSON (tglink.run_report/2)\n"
          "  --trace=FILE   write Chrome trace-event JSON (chrome://tracing)\n",
          presets.c_str());
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s' (see --help)\n", arg);
      std::exit(2);
    }
  }
  // Span collection costs nothing unless someone asked for the artifacts.
  if (!options.report_path.empty() || !options.trace_path.empty()) {
    obs::GlobalTracer().SetEnabled(true);
  }
  SetParallelThreadCount(options.threads);
  if (options.heartbeat_s > 0.0) obs::StartHeartbeat(options.heartbeat_s);
  return options;
}

/// A RunReportBuilder pre-populated with the shared harness options.
inline obs::RunReportBuilder MakeRunReport(const std::string& tool,
                                           const BenchOptions& options) {
  obs::RunReportBuilder report(tool);
  report.AddOption("scale", options.scale)
      .AddOption("seed", options.seed)
      .AddOption("pair", static_cast<uint64_t>(options.pair_index))
      .AddOption("threads", static_cast<uint64_t>(ParallelThreadCount()))
      .AddOption("scenario",
                 options.scenario.empty() ? "default" : options.scenario)
      .AddOption("scenario_hash", options.scenario_hash.empty()
                                      ? "none"
                                      : options.scenario_hash);
  return report;
}

/// The synthetic-generator configuration a harness should run: the resolved
/// scenario profile (defaults when none), with --seed / --scale always
/// authoritative and the series trimmed to exactly the censuses the
/// requested pair needs. Every harness that builds a GeneratorConfig must
/// go through here, or --scenario silently wouldn't apply to it.
inline GeneratorConfig MakeGeneratorConfig(const BenchOptions& options) {
  GeneratorConfig gen = options.scenario_config;
  gen.seed = options.seed;
  gen.scale = options.scale;
  gen.num_censuses = options.pair_index + 2;
  return gen;
}

/// Full-series variant for the Table 1 / Table 8 / Fig. 6 harnesses: keeps
/// the scenario's series length (default 6 censuses) instead of trimming
/// to the --pair window.
inline GeneratorConfig MakeSeriesGeneratorConfig(const BenchOptions& options) {
  GeneratorConfig gen = options.scenario_config;
  gen.seed = options.seed;
  gen.scale = options.scale;
  return gen;
}

/// Writes the --report / --trace artifacts the user asked for (no-op when
/// neither flag was given). Call once at the end of main.
inline void EmitRunArtifacts(const obs::RunReportBuilder& report,
                             const BenchOptions& options) {
  if (!options.report_path.empty()) {
    const Status st = report.WriteFile(options.report_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: writing %s: %s\n",
                   options.report_path.c_str(), st.ToString().c_str());
      std::exit(1);
    }
    std::printf("report: %s\n", options.report_path.c_str());
  }
  if (!options.trace_path.empty()) {
    const Status st = WriteStringToFile(
        options.trace_path, obs::GlobalTracer().ToChromeTraceJson());
    if (!st.ok()) {
      std::fprintf(stderr, "error: writing %s: %s\n",
                   options.trace_path.c_str(), st.ToString().c_str());
      std::exit(1);
    }
    std::printf("trace: %s\n", options.trace_path.c_str());
  }
}

/// Flushes a partial RunReport when the process dies on an unhandled
/// exception or a direct std::terminate, so a crashed --report run still
/// leaves a machine-readable artifact ("aborted": true, plus the exception
/// message when one is in flight). Declare one right after
/// ParseBenchOptions:
///
///   const bench::ReportOnAbort abort_guard("table5_iterative", options);
///
/// Inert without --report. The flush captures whatever metrics, spans,
/// memory stages and build provenance accumulated before the fault; scalars
/// and quality are absent (the run never got there). Normal returns restore
/// the previous terminate handler in the destructor.
class ReportOnAbort {
 public:
  ReportOnAbort(std::string tool, const BenchOptions& options)
      : tool_(std::move(tool)), options_(options) {
    if (options_.report_path.empty()) return;
    armed_ = true;
    Current() = this;
    prev_ = std::set_terminate(&ReportOnAbort::OnTerminate);
  }

  ~ReportOnAbort() {
    if (!armed_) return;
    std::set_terminate(prev_);
    Current() = nullptr;
  }

  ReportOnAbort(const ReportOnAbort&) = delete;
  ReportOnAbort& operator=(const ReportOnAbort&) = delete;

 private:
  /// The armed guard, if any. One per process is enough: harnesses have
  /// exactly one options struct.
  static ReportOnAbort*& Current() {
    static ReportOnAbort* current = nullptr;
    return current;
  }

  [[noreturn]] static void OnTerminate() {
    // Clear first so a fault inside the flush cannot recurse through the
    // handler; then die the way terminate always does.
    ReportOnAbort* guard = Current();
    Current() = nullptr;
    if (guard != nullptr) guard->Flush();
    std::abort();
  }

  void Flush() const {
    std::string reason = "std::terminate";
    if (std::current_exception() != nullptr) {
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        reason = e.what();
      } catch (...) {
        reason = "unhandled non-std exception";
      }
    }
    obs::RunReportBuilder report = MakeRunReport(tool_, options_);
    report.SetAborted(reason);
    const Status st = report.WriteFile(options_.report_path);
    std::fprintf(stderr, "%s: aborting (%s); partial report %s: %s\n",
                 tool_.c_str(), reason.c_str(), options_.report_path.c_str(),
                 st.ok() ? "written" : st.ToString().c_str());
  }

  std::string tool_;
  BenchOptions options_;
  std::terminate_handler prev_ = nullptr;
  bool armed_ = false;
};

/// A synthetic census pair plus gold resolved in both protocols.
struct EvalPair {
  SyntheticPair pair;
  ResolvedGold full;      // every true link in the region
  ResolvedGold verified;  // the expert-reference analogue (household level)
};

inline EvalPair MakeEvalPair(const BenchOptions& options) {
  if (options.inject_fault == "throw") {
    throw std::runtime_error("injected fault (--inject-fault=throw)");
  }
  EvalPair ep;
  ep.pair = GenerateCensusPair(MakeGeneratorConfig(options),
                               options.pair_index);
  auto full = ResolveGold(ep.pair.gold, ep.pair.old_dataset,
                          ep.pair.new_dataset);
  if (!full.ok()) {
    std::fprintf(stderr, "gold resolution failed: %s\n",
                 full.status().ToString().c_str());
    std::exit(1);
  }
  ep.full = std::move(full).value();
  ep.verified = SelectVerifiedSubset(ep.full, ep.pair.old_dataset,
                                     ep.pair.new_dataset);
  return ep;
}

inline void PrintPairHeader(const EvalPair& ep, const BenchOptions& options) {
  std::printf(
      "pair %d->%d at scale %.2f (seed %llu): %zu/%zu records; reference: "
      "%zu household links, %zu person links\n",
      ep.pair.old_dataset.year(), ep.pair.new_dataset.year(), options.scale,
      static_cast<unsigned long long>(options.seed),
      ep.pair.old_dataset.num_records(), ep.pair.new_dataset.num_records(),
      ep.verified.group_links.size(), ep.verified.record_links.size());
}

/// Quality of one linkage result under the paper's protocol.
struct Quality {
  PrecisionRecall record;
  PrecisionRecall group;
};

inline Quality EvaluatePaperProtocol(const LinkageResult& result,
                                     const EvalPair& ep) {
  Quality q;
  q.record = EvaluateRecordMapping(result.record_mapping, ep.verified,
                                   /*restrict_to_gold_universe=*/true);
  const GroupMapping heavy =
      HeavyGroupLinks(result.group_mapping, result.record_mapping,
                      ep.pair.old_dataset, ep.pair.new_dataset);
  q.group = EvaluateGroupMapping(heavy, ep.verified,
                                 /*restrict_to_gold_universe=*/true);
  return q;
}

}  // namespace bench
}  // namespace tglink

#endif  // TGLINK_BENCH_BENCH_COMMON_H_
