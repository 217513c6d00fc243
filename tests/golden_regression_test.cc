// Golden quality-regression gate: the full LinkCensusPair pipeline on the
// deterministic synthetic pair (--scale=0.125 --seed=42) must reproduce the
// checked-in metrics byte-for-byte — exact-match precision/recall/F for
// records and groups, per-δ iteration counts, and residual-phase counts.
// Any change to blocking, similarity, subgraph scoring, selection, or the
// residual matcher that shifts quality shows up as a one-line JSON diff.
//
// The same run is repeated with inverted-index blocking; it must produce
// the identical mapping (the index's equivalence guarantee, end to end).
//
// Every scenario preset carries its own fingerprint under tests/golden/
// (scenario_<name>.json) at a smaller grid scale, and the rawtenstall
// preset is additionally pinned BYTE-identical to the default generator —
// the scenario engine may never perturb the historical event stream.
//
// To regenerate after an intentional quality change:
//   TGLINK_REGEN_GOLDEN=1 ./golden_regression_test

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "tglink/blocking/blocking.h"
#include "tglink/census/io.h"
#include "tglink/eval/metrics.h"
#include "tglink/linkage/iterative.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tglink/util/csv.h"

namespace tglink {
namespace {

constexpr double kScale = 0.125;
constexpr uint64_t kSeed = 42;

std::string GoldenPath() {
  return std::string(TGLINK_SOURCE_DIR) +
         "/tests/golden/link_scale0125_seed42.json";
}

void AppendCounts(const std::string& name, const PrecisionRecall& pr,
                  std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"tp\": %zu, \"fp\": %zu, \"fn\": %zu, "
                "\"precision\": %.6f, \"recall\": %.6f, \"f\": %.6f},\n",
                name.c_str(), pr.true_positives, pr.false_positives,
                pr.false_negatives, pr.precision(), pr.recall(),
                pr.f_measure());
  *out += buf;
}

/// The quality fingerprint of one linkage run, serialized deterministically.
std::string QualityJson(const LinkageResult& result, const ResolvedGold& gold,
                        double scale = kScale, uint64_t seed = kSeed) {
  std::string out = "{\n  \"schema\": \"tglink.golden_link/1\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  \"scale\": %.6f,\n  \"seed\": %llu,\n",
                scale, static_cast<unsigned long long>(seed));
  out += buf;
  AppendCounts("records", EvaluateRecordMapping(result.record_mapping, gold),
               &out);
  AppendCounts("groups", EvaluateGroupMapping(result.group_mapping, gold),
               &out);
  out += "  \"iterations\": [\n";
  for (size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationStats& it = result.iterations[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"delta\": %.6f, \"scored_pairs\": %zu, "
                  "\"candidate_subgraphs\": %zu, \"accepted_subgraphs\": %zu, "
                  "\"new_group_links\": %zu, \"new_record_links\": %zu}%s\n",
                  it.delta, it.scored_pairs, it.candidate_subgraphs,
                  it.accepted_subgraphs, it.new_group_links,
                  it.new_record_links,
                  i + 1 < result.iterations.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"context_record_links\": %zu,\n"
                "  \"residual_record_links\": %zu\n}\n",
                result.context_record_links, result.residual_record_links);
  out += buf;
  return out;
}

TEST(GoldenRegressionTest, FullLinkageMatchesCheckedInGolden) {
  GeneratorConfig gen;
  gen.seed = kSeed;
  gen.scale = kScale;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  auto gold = ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset);
  ASSERT_TRUE(gold.ok()) << gold.status().ToString();

  const LinkageConfig config = configs::DefaultConfig();
  const LinkageResult result =
      LinkCensusPair(pair.old_dataset, pair.new_dataset, config);
  const std::string actual = QualityJson(result, gold.value());

  if (std::getenv("TGLINK_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(GoldenPath(), actual).ok());
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  auto expected = ReadFileToString(GoldenPath());
  ASSERT_TRUE(expected.ok())
      << "missing golden file — run with TGLINK_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(expected.value(), actual)
      << "linkage quality drifted from the golden fingerprint; if the "
         "change is intentional, regenerate with TGLINK_REGEN_GOLDEN=1";

  // End-to-end equivalence: hash blocking must yield the byte-identical
  // quality fingerprint of the default inverted-index path.
  LinkageConfig hash_config = config;
  hash_config.blocking = BlockingConfig::MakeDefault();
  const LinkageResult hash_result =
      LinkCensusPair(pair.old_dataset, pair.new_dataset, hash_config);
  EXPECT_EQ(QualityJson(hash_result, gold.value()), actual)
      << "hash blocking changed end-to-end linkage output";
}

// The scenario grid's coordinates: small enough to keep the whole preset
// sweep in test time, pair 2 so migration_shock's decade-3 shock lands in
// the measured transition.
constexpr double kScenarioScale = 0.05;
constexpr int kScenarioPair = 2;

TEST(GoldenRegressionTest, EveryScenarioPresetMatchesItsGolden) {
  const bool regen = std::getenv("TGLINK_REGEN_GOLDEN") != nullptr;
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    SCOPED_TRACE(std::string(preset.name));
    auto scenario = ParseScenario(preset.json);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

    GeneratorConfig gen = scenario.value().config;
    gen.seed = kSeed;
    gen.scale = kScenarioScale;
    gen.num_censuses = kScenarioPair + 2;
    const SyntheticPair pair = GenerateCensusPair(gen, kScenarioPair);
    auto gold = ResolveGold(pair.gold, pair.old_dataset, pair.new_dataset);
    ASSERT_TRUE(gold.ok()) << gold.status().ToString();

    const LinkageResult result = LinkCensusPair(
        pair.old_dataset, pair.new_dataset, configs::DefaultConfig());
    const std::string actual =
        QualityJson(result, gold.value(), kScenarioScale, kSeed);
    const std::string path = std::string(TGLINK_SOURCE_DIR) +
                             "/tests/golden/scenario_" +
                             std::string(preset.name) + ".json";
    if (regen) {
      ASSERT_TRUE(WriteStringToFile(path, actual).ok());
      continue;
    }
    auto expected = ReadFileToString(path);
    ASSERT_TRUE(expected.ok())
        << "missing " << path << " — run with TGLINK_REGEN_GOLDEN=1";
    EXPECT_EQ(expected.value(), actual)
        << "scenario " << preset.name
        << " drifted; regenerate with TGLINK_REGEN_GOLDEN=1 if intentional";
  }
  if (regen) GTEST_SKIP() << "regenerated scenario goldens";
}

TEST(GoldenRegressionTest, RawtenstallScenarioIsByteIdenticalToDefaults) {
  // THE load-bearing guarantee of the scenario engine: resolving the
  // rawtenstall preset yields a GeneratorConfig whose output is
  // byte-identical to a default-constructed one — i.e. the new dynamics
  // consume zero randomness when disabled. Compare full CSV serializations
  // of every snapshot and gold mapping, not just quality counts.
  auto scenario = ResolveScenario("rawtenstall");
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  GeneratorConfig from_scenario = scenario.value().config;
  from_scenario.scale = kScenarioScale;
  GeneratorConfig defaults;
  defaults.scale = kScenarioScale;

  const SyntheticSeries a = GenerateCensusSeries(from_scenario);
  const SyntheticSeries b = GenerateCensusSeries(defaults);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(DatasetToCsv(a.snapshots[i]), DatasetToCsv(b.snapshots[i]))
        << "snapshot " << i << " diverged";
  }
  ASSERT_EQ(a.gold.size(), b.gold.size());
  for (size_t i = 0; i < a.gold.size(); ++i) {
    EXPECT_EQ(GoldToCsv(a.gold[i]), GoldToCsv(b.gold[i]))
        << "gold mapping " << i << " diverged";
  }
}

}  // namespace
}  // namespace tglink
