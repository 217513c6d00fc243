#include "tglink/linkage/residual.h"

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/linkage/config.h"
#include "tglink/linkage/prematching.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/similarity/sim_tables.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

TEST(ResidualTest, GreedyOneToOneRespectsActivity) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f = configs::Omega2(0.8);
  f.set_year_gap(10);
  std::vector<bool> active_old(old_d.num_records(), true);
  std::vector<bool> active_new(new_d.num_records(), true);
  active_old[0] = false;  // John Ashworth 1871 unavailable
  const auto links = GreedyOneToOneMatch(old_d, new_d, f,
                                         BlockingConfig::MakeExhaustive(),
                                         active_old, active_new);
  for (const ScoredPair& link : links) {
    EXPECT_NE(link.old_id, 0u);
    EXPECT_GE(link.sim, 0.8);
  }
}

TEST(ResidualTest, OneToOneInvariant) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f = configs::Omega2(0.5);
  f.set_year_gap(10);
  const std::vector<bool> all_old(old_d.num_records(), true);
  const std::vector<bool> all_new(new_d.num_records(), true);
  const auto links = GreedyOneToOneMatch(
      old_d, new_d, f, BlockingConfig::MakeExhaustive(), all_old, all_new);
  std::set<RecordId> olds, news;
  for (const ScoredPair& link : links) {
    EXPECT_TRUE(olds.insert(link.old_id).second);
    EXPECT_TRUE(news.insert(link.new_id).second);
  }
}

TEST(ResidualTest, GreedyPrefersHigherSimilarity) {
  // Two old Johns compete for one new John; the closer one must win.
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "h1", {MakeRecord("o1", "john", "ashworth", Sex::kMale, 30, Role::kHead,
                        "mill street", "weaver")});
  old_d.AddHousehold(
      "h2", {MakeRecord("o2", "john", "ashword", Sex::kMale, 30, Role::kHead,
                        "bank street", "miner")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h1", {MakeRecord("n1", "john", "ashworth", Sex::kMale, 40, Role::kHead,
                        "mill street", "weaver")});
  SimilarityFunction f = configs::Omega2(0.5);
  f.set_year_gap(10);
  const auto links = GreedyOneToOneMatch(
      old_d, new_d, f, BlockingConfig::MakeExhaustive(),
      std::vector<bool>(2, true), std::vector<bool>(1, true));
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].old_id, 0u);
}

TEST(ResidualTest, MatchResidualExtendsGroupMapping) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f = configs::Omega2(0.9);
  RecordMapping records(old_d.num_records(), new_d.num_records());
  GroupMapping groups;
  std::vector<bool> active_old(old_d.num_records(), true);
  std::vector<bool> active_new(new_d.num_records(), true);
  const size_t added = MatchResidualRecords(
      old_d, new_d, f, BlockingConfig::MakeExhaustive(), &records, &groups,
      &active_old, &active_new);
  EXPECT_EQ(added, records.size());
  // Every record link induces its owning group pair in the group mapping.
  for (const RecordLink& link : records.links()) {
    EXPECT_TRUE(groups.Contains(old_d.record(link.first).group,
                                new_d.record(link.second).group));
    EXPECT_FALSE(active_old[link.first]);
    EXPECT_FALSE(active_new[link.second]);
  }
}

/// The global residual pass on one activity mask, over `candidates`.
struct ResidualOutcome {
  size_t added = 0;
  std::vector<RecordLink> records;
  std::vector<GroupLink> groups;
  std::vector<bool> active_old;
  std::vector<bool> active_new;
};

/// Runs `pass(records, groups, active_old, active_new)` — one residual pass
/// on one activity mask — and collects what it did.
template <typename Pass>
ResidualOutcome RunResidual(const CensusDataset& old_d,
                            const CensusDataset& new_d, Pass pass,
                            std::vector<bool> active_old,
                            std::vector<bool> active_new) {
  RecordMapping records(old_d.num_records(), new_d.num_records());
  GroupMapping groups;
  ResidualOutcome out;
  out.added = pass(&records, &groups, &active_old, &active_new);
  out.records = records.links();
  out.groups = groups.SortedLinks();
  out.active_old = std::move(active_old);
  out.active_new = std::move(active_new);
  return out;
}

void ExpectSameOutcome(const ResidualOutcome& got,
                       const ResidualOutcome& want) {
  EXPECT_EQ(got.added, want.added);
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.groups, want.groups);
  EXPECT_EQ(got.active_old, want.active_old);
  EXPECT_EQ(got.active_new, want.active_new);
}

/// The census pair of scenario preset `preset` at a small scale.
SyntheticPair PresetPair(const ScenarioPreset& preset) {
  auto scenario = ParseScenario(preset.json);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  GeneratorConfig gen = scenario.value().config;
  gen.seed = 42;
  gen.scale = 0.05;
  gen.num_censuses = 4;
  return GenerateCensusPair(gen, 2);
}

// LinkCensusPair hands the pre-matching store's active candidates to the
// global residual pass instead of blocking again; on every scenario preset
// that must give exactly the links of the BlockingConfig form, for all
// records active and for a third of them already matched.
TEST(ResidualTest, PreMatcherActiveCandidatesGiveTheBlockingConfigLinks) {
  const LinkageConfig config = configs::DefaultConfig();
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    SCOPED_TRACE(std::string(preset.name));
    const SyntheticPair pair = PresetPair(preset);
    const CensusDataset& old_d = pair.old_dataset;
    const CensusDataset& new_d = pair.new_dataset;
    SimilarityFunction f = config.sim_func;
    f.set_year_gap(new_d.year() - old_d.year());
    SimilarityFunction f_rem = config.sim_func_rem;
    f_rem.set_year_gap(new_d.year() - old_d.year());
    // One set of tables for both functions, as LinkCensusPair builds it.
    const auto tables = std::make_shared<const SimTables>(
        std::initializer_list<const SimilarityFunction*>{&f, &f_rem}, old_d,
        new_d);
    const PreMatcher pm(tables, f, config.blocking, config.delta_low);
    const SimBatch residual_scorer(f_rem, tables);

    std::vector<bool> partly_old(old_d.num_records());
    std::vector<bool> partly_new(new_d.num_records());
    for (size_t r = 0; r < partly_old.size(); ++r) partly_old[r] = r % 3 != 0;
    for (size_t r = 0; r < partly_new.size(); ++r) partly_new[r] = r % 3 != 1;
    const std::vector<std::vector<bool>> old_masks = {
        std::vector<bool>(old_d.num_records(), true), partly_old};
    const std::vector<std::vector<bool>> new_masks = {
        std::vector<bool>(new_d.num_records(), true), partly_new};
    for (size_t m = 0; m < old_masks.size(); ++m) {
      SCOPED_TRACE("mask " + std::to_string(m));
      const std::vector<CandidatePair> candidates =
          pm.ActiveCandidates(old_masks[m], new_masks[m]);
      EXPECT_EQ(candidates.capacity(), candidates.size());
      const ResidualOutcome got = RunResidual(
          old_d, new_d,
          [&](RecordMapping* records, GroupMapping* groups,
              std::vector<bool>* active_old, std::vector<bool>* active_new) {
            return MatchResidualRecords(residual_scorer, candidates, records,
                                        groups, active_old, active_new);
          },
          old_masks[m], new_masks[m]);
      EXPECT_GT(got.added, 0u);
      const ResidualOutcome want = RunResidual(
          old_d, new_d,
          [&](RecordMapping* records, GroupMapping* groups,
              std::vector<bool>* active_old, std::vector<bool>* active_new) {
            return MatchResidualRecords(old_d, new_d, f_rem, config.blocking,
                                        records, groups, active_old,
                                        active_new);
          },
          old_masks[m], new_masks[m]);
      ExpectSameOutcome(got, want);
    }
  }
}

/// The context residual pass as a scalar loop, kept here as the oracle of
/// the row-scored pass: every active member pair of every linked household
/// pair scored by fn.AggregateSimilarity, kept at or above `threshold`,
/// accepted greedily by descending similarity, ties by (old, new).
size_t ScalarContextResidual(const CensusDataset& old_d,
                             const CensusDataset& new_d,
                             const SimilarityFunction& fn, double threshold,
                             const GroupMapping& group_mapping,
                             RecordMapping* records,
                             std::vector<bool>* active_old,
                             std::vector<bool>* active_new) {
  std::vector<ScoredPair> scored;
  for (const GroupLink& link : group_mapping.SortedLinks()) {
    for (RecordId o : old_d.household(link.first).members) {
      if (!(*active_old)[o]) continue;
      for (RecordId n : new_d.household(link.second).members) {
        if (!(*active_new)[n]) continue;
        const double sim =
            fn.AggregateSimilarity(old_d.record(o), new_d.record(n));
        if (sim >= threshold) scored.push_back({o, n, sim});
      }
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  size_t added = 0;
  for (const ScoredPair& pair : scored) {
    if (!(*active_old)[pair.old_id] || !(*active_new)[pair.new_id]) continue;
    EXPECT_TRUE(records->Add(pair.old_id, pair.new_id).ok());
    (*active_old)[pair.old_id] = false;
    (*active_new)[pair.new_id] = false;
    ++added;
  }
  return added;
}

// The context residual scores its member pairs with the row scorer; on
// every scenario preset its links must equal the scalar oracle's, through
// the shared tables LinkCensusPair plans over and through the form that
// builds its own. The linked households come from a strict one-shot
// Ω2 match, whose leftovers are the pass's input.
TEST(ResidualTest, RowScoredContextResidualEqualsTheScalarOracle) {
  const LinkageConfig config = configs::DefaultConfig();
  const double threshold = config.context_residual_threshold;
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    SCOPED_TRACE(std::string(preset.name));
    const SyntheticPair pair = PresetPair(preset);
    const CensusDataset& old_d = pair.old_dataset;
    const CensusDataset& new_d = pair.new_dataset;
    SimilarityFunction f = configs::Omega2(0.85);
    f.set_year_gap(new_d.year() - old_d.year());
    SimilarityFunction f_rem = config.sim_func_rem;
    f_rem.set_year_gap(new_d.year() - old_d.year());

    std::vector<bool> active_old(old_d.num_records(), true);
    std::vector<bool> active_new(new_d.num_records(), true);
    GroupMapping groups;
    for (const ScoredPair& link :
         GreedyOneToOneMatch(old_d, new_d, f, config.blocking, active_old,
                             active_new)) {
      active_old[link.old_id] = false;
      active_new[link.new_id] = false;
      groups.Add(old_d.record(link.old_id).group,
                 new_d.record(link.new_id).group);
    }
    ASSERT_GT(groups.size(), 0u);

    const auto tables = std::make_shared<const SimTables>(
        std::initializer_list<const SimilarityFunction*>{&f, &f_rem}, old_d,
        new_d);
    const SimBatch shared_scorer(f_rem, tables);
    const ResidualOutcome want = RunResidual(
        old_d, new_d,
        [&](RecordMapping* records, GroupMapping*,
            std::vector<bool>* a_old, std::vector<bool>* a_new) {
          return ScalarContextResidual(old_d, new_d, f_rem, threshold, groups,
                                       records, a_old, a_new);
        },
        active_old, active_new);
    EXPECT_GT(want.added, 0u);
    const ResidualOutcome shared = RunResidual(
        old_d, new_d,
        [&](RecordMapping* records, GroupMapping*,
            std::vector<bool>* a_old, std::vector<bool>* a_new) {
          return MatchWithinLinkedHouseholds(shared_scorer, threshold, groups,
                                             records, a_old, a_new);
        },
        active_old, active_new);
    ExpectSameOutcome(shared, want);
    const ResidualOutcome own = RunResidual(
        old_d, new_d,
        [&](RecordMapping* records, GroupMapping*,
            std::vector<bool>* a_old, std::vector<bool>* a_new) {
          return MatchWithinLinkedHouseholds(old_d, new_d, f_rem, threshold,
                                             groups, records, a_old, a_new);
        },
        active_old, active_new);
    ExpectSameOutcome(own, want);
  }
}

}  // namespace
}  // namespace tglink
