#include "tglink/linkage/prematching.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/blocking/blocking.h"
#include "tglink/linkage/config.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tglink/util/parallel.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using testing_example::MakeCensus1871;
using testing_example::MakeCensus1881;

/// Fig. 3's configuration: exact first name + surname, threshold 1.
SimilarityFunction Fig3SimFunc() {
  return SimilarityFunction(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      1.0);
}

class PreMatchingFig3Test : public ::testing::Test {
 protected:
  PreMatchingFig3Test()
      : old_d_(MakeCensus1871()),
        new_d_(MakeCensus1881()),
        sim_func_(Fig3SimFunc()),
        prematcher_(old_d_, new_d_, sim_func_,
                    BlockingConfig::MakeExhaustive(), 1.0),
        clustering_(prematcher_.Cluster(
            1.0, std::vector<bool>(old_d_.num_records(), true),
            std::vector<bool>(new_d_.num_records(), true))) {}

  CensusDataset old_d_;
  CensusDataset new_d_;
  SimilarityFunction sim_func_;
  PreMatcher prematcher_;
  Clustering clustering_;
};

TEST_F(PreMatchingFig3Test, ReproducesPaperClusters) {
  // Fig. 3: {1871_1, 1881_1, 1881_9} share label A, etc.
  // record ids: 1871: 0..7 ; 1881: 0..10 (see paper_example.h).
  const auto label_old = [&](RecordId r) { return clustering_.old_labels[r]; };
  const auto label_new = [&](RecordId r) { return clustering_.new_labels[r]; };

  // A: john ashworth — 1871_1(0), 1881_1(0), 1881_9(8).
  EXPECT_EQ(label_old(0), label_new(0));
  EXPECT_EQ(label_old(0), label_new(8));
  // B: elizabeth ashworth — 1871_2(1), 1881_2(1), 1881_10(9).
  EXPECT_EQ(label_old(1), label_new(1));
  EXPECT_EQ(label_old(1), label_new(9));
  // C: william ashworth — 1871_4(3), 1881_3(2), 1881_11(10).
  EXPECT_EQ(label_old(3), label_new(2));
  EXPECT_EQ(label_old(3), label_new(10));
  // D/E/F: the smiths.
  EXPECT_EQ(label_old(5), label_new(3));  // john smith
  EXPECT_EQ(label_old(6), label_new(4));  // elizabeth smith
  EXPECT_EQ(label_old(7), label_new(5));  // steve smith
  // Alice Ashworth (2) and Alice Smith (6) carry DIFFERENT labels (I vs K).
  EXPECT_NE(label_old(2), label_new(6));
  // John Riley (4) and Mary Smith (7) are singletons.
  EXPECT_EQ(clustering_.LabelSize(label_old(4)), 1u);
  EXPECT_EQ(clustering_.LabelSize(label_new(7)), 1u);
  // Distinct clusters are distinct labels.
  EXPECT_NE(label_old(0), label_old(1));
  EXPECT_NE(label_old(0), label_old(5));
}

TEST_F(PreMatchingFig3Test, LabelSizesMatchPaper) {
  // |A| = |B| = |C| = 3 (used by the uniqueness example, Eq. 8).
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[0]), 3u);
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[1]), 3u);
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[3]), 3u);
  EXPECT_EQ(clustering_.LabelSize(clustering_.old_labels[5]), 2u);  // D
}

TEST_F(PreMatchingFig3Test, MemberListsConsistentWithLabels) {
  for (RecordId r = 0; r < old_d_.num_records(); ++r) {
    const uint32_t label = clustering_.old_labels[r];
    ASSERT_NE(label, Clustering::kNoLabel);
    const auto& members = clustering_.label_old_members[label];
    EXPECT_NE(std::find(members.begin(), members.end(), r), members.end());
  }
}

TEST_F(PreMatchingFig3Test, PairSimilarityCachedAndOnDemandAgree) {
  // Cached pair (john ashworth 0-0) and a non-cached pair must both return
  // the underlying similarity function's value.
  const PreMatcher::PairSim cached = prematcher_.PairSimilarity(0, 0, 0.0);
  EXPECT_TRUE(cached.kept);
  EXPECT_DOUBLE_EQ(cached.sim, 1.0);
  const double direct =
      sim_func_.AggregateSimilarity(old_d_.record(2), new_d_.record(6));
  const PreMatcher::PairSim on_demand = prematcher_.PairSimilarity(2, 6, 0.0);
  EXPECT_FALSE(on_demand.kept);
  EXPECT_DOUBLE_EQ(on_demand.sim, direct);
}

TEST_F(PreMatchingFig3Test, InactiveRecordsExcluded) {
  std::vector<bool> active_old(old_d_.num_records(), true);
  std::vector<bool> active_new(new_d_.num_records(), true);
  active_old[0] = false;  // John Ashworth 1871 already matched
  const Clustering c = prematcher_.Cluster(1.0, active_old, active_new);
  EXPECT_EQ(c.old_labels[0], Clustering::kNoLabel);
  // The 1881 Johns still cluster with each other? No — clustering links only
  // across accepted pairs, and pairs require one old + one new record; the
  // two 1881 Johns are connected only through 1871_1. Without it they are
  // separate.
  EXPECT_NE(c.new_labels[0], c.new_labels[8]);
}

TEST(PreMatchingTest, LowerThresholdNeverShrinksClusters) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      0.5);
  PreMatcher pm(old_d, new_d, f, BlockingConfig::MakeExhaustive(), 0.5);
  const std::vector<bool> all_old(old_d.num_records(), true);
  const std::vector<bool> all_new(new_d.num_records(), true);
  const Clustering strict = pm.Cluster(0.9, all_old, all_new);
  const Clustering loose = pm.Cluster(0.5, all_old, all_new);
  // Records sharing a label at 0.9 must also share one at 0.5.
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    for (RecordId n = 0; n < new_d.num_records(); ++n) {
      if (strict.old_labels[o] == strict.new_labels[n]) {
        EXPECT_EQ(loose.old_labels[o], loose.new_labels[n]);
      }
    }
  }
  EXPECT_LE(loose.num_labels, strict.num_labels);
}

TEST(PreMatchingTest, ScoredPairsRespectMinThreshold) {
  const CensusDataset old_d = MakeCensus1871();
  const CensusDataset new_d = MakeCensus1881();
  SimilarityFunction f(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      0.5);
  PreMatcher pm(old_d, new_d, f, BlockingConfig::MakeExhaustive(), 0.6);
  for (const ScoredPair& p : pm.scored_pairs()) {
    EXPECT_GE(p.sim, 0.6);
  }
}

TEST(PreMatchingTest, ScreenedLookupIsExactOrProvablyBelowCutoff) {
  // Every same-label pair of a small preset, looked up the way subgraph
  // construction does: a kept pair returns its cached value, any other
  // pair its exact aggregate or kPruned — and kPruned only when the exact
  // aggregate is below the cutoff.
  auto scenario = ResolveScenario("extreme_missingness");
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  GeneratorConfig gen = scenario.value().config;
  gen.seed = 3;
  gen.scale = 0.03;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  const CensusDataset& old_d = pair.old_dataset;
  const CensusDataset& new_d = pair.new_dataset;
  const LinkageConfig config = configs::DefaultConfig();
  SimilarityFunction f = config.sim_func;
  f.set_year_gap(new_d.year() - old_d.year());
  PreMatcher pm(old_d, new_d, f, config.blocking, config.delta_low);

  std::map<std::pair<RecordId, RecordId>, double> kept;
  for (const ScoredPair& p : pm.scored_pairs()) {
    kept.emplace(std::make_pair(p.old_id, p.new_id), p.sim);
  }
  const Clustering clustering =
      pm.Cluster(config.delta_low, std::vector<bool>(old_d.num_records(), true),
                 std::vector<bool>(new_d.num_records(), true));
  const double min_sim = config.delta_high;
  size_t kept_seen = 0, exact_misses = 0, pruned = 0;
  for (uint32_t label = 0; label < clustering.num_labels; ++label) {
    for (RecordId o : clustering.label_old_members[label]) {
      for (RecordId n : clustering.label_new_members[label]) {
        const PreMatcher::PairSim got = pm.PairSimilarity(o, n, min_sim);
        const auto it = kept.find({o, n});
        ASSERT_EQ(got.kept, it != kept.end()) << o << "," << n;
        if (got.kept) {
          EXPECT_EQ(got.sim, it->second) << o << "," << n;
          ++kept_seen;
          continue;
        }
        const double direct =
            f.AggregateSimilarity(old_d.record(o), new_d.record(n));
        if (got.sim == SimBatch::kPruned) {
          EXPECT_LT(direct, min_sim) << o << "," << n;
          ++pruned;
        } else {
          EXPECT_EQ(got.sim, direct) << o << "," << n;
          ++exact_misses;
        }
      }
    }
  }
  // The fixture must exercise all three answers.
  EXPECT_GT(kept_seen, 0u);
  EXPECT_GT(exact_misses, 0u);
  EXPECT_GT(pruned, 0u);
}

/// The clustering of §3.2 computed the slow, obvious way: a parent-array
/// forest without ranks or path compression over the kept pairs that clear
/// δ between active records, then one label per component numbered in
/// order of its first node (old records first, then new records).
struct ReferenceClustering {
  std::vector<uint32_t> old_labels;
  std::vector<uint32_t> new_labels;
  size_t num_labels = 0;
  size_t pairs = 0;  // kept pairs that clear δ between active records
};

ReferenceClustering ReferenceCluster(
    const std::vector<ScoredPair>& kept, size_t n_old, size_t n_new,
    double delta, const std::vector<bool>& active_old,
    const std::vector<bool>& active_new) {
  std::vector<size_t> parent(n_old + n_new);
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto root = [&parent](size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  ReferenceClustering ref;
  for (const ScoredPair& p : kept) {
    if (p.sim + 1e-12 < delta) continue;
    if (!active_old[p.old_id] || !active_new[p.new_id]) continue;
    ++ref.pairs;
    const size_t a = root(p.old_id);
    const size_t b = root(n_old + p.new_id);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> label_of_root(parent.size(), Clustering::kNoLabel);
  std::vector<uint32_t> labels(parent.size());
  for (size_t x = 0; x < parent.size(); ++x) {
    uint32_t& label = label_of_root[root(x)];
    if (label == Clustering::kNoLabel) {
      label = static_cast<uint32_t>(ref.num_labels++);
    }
    labels[x] = label;
  }
  ref.old_labels.assign(n_old, Clustering::kNoLabel);
  ref.new_labels.assign(n_new, Clustering::kNoLabel);
  for (size_t r = 0; r < n_old; ++r) {
    if (active_old[r]) ref.old_labels[r] = labels[r];
  }
  for (size_t r = 0; r < n_new; ++r) {
    if (active_new[r]) ref.new_labels[r] = labels[n_old + r];
  }
  return ref;
}

/// Roughly a third of the records inactive, as after an iteration's
/// selection; a fixed function of the record id.
std::vector<bool> PartlyActive(size_t n, uint64_t salt) {
  std::vector<bool> active(n);
  for (size_t r = 0; r < n; ++r) {
    active[r] = ((r + 1) * 0x9E3779B97F4A7C15ULL + salt) % 3 != 0;
  }
  return active;
}

/// Checks the pair store against the brute-force oracle — every blocking
/// candidate of `blocking` scored by AggregateSimilarity — and returns the
/// oracle's kept pairs. Each old record's row must hold exactly its
/// candidates, new ids ascending, with the exact value bit for bit when it
/// reaches `min_threshold` and SimBatch::kPruned below it. The kept view
/// must equal the kept list in order, and ActiveCandidates with every
/// record active must equal the candidate list.
std::vector<ScoredPair> ExpectStoreMatchesOracle(
    const PreMatcher& pm, const CensusDataset& old_d,
    const CensusDataset& new_d, const SimilarityFunction& f,
    const BlockingConfig& blocking, double min_threshold) {
  const std::vector<CandidatePair> candidates =
      GenerateCandidatePairs(old_d, new_d, blocking);
  std::vector<ScoredPair> kept;
  size_t next = 0;  // first candidate of the current old record
  for (RecordId o = 0; o < old_d.num_records(); ++o) {
    const PreMatcher::Row row = pm.row(o);
    size_t k = 0;
    for (; next < candidates.size() && candidates[next].old_id == o;
         ++next, ++k) {
      const RecordId n = candidates[next].new_id;
      const double exact =
          f.AggregateSimilarity(old_d.record(o), new_d.record(n));
      const double want = exact >= min_threshold ? exact : SimBatch::kPruned;
      if (exact >= min_threshold) kept.push_back({o, n, exact});
      if (k >= row.new_ids.size()) {
        ADD_FAILURE() << "row " << o << " ends after " << k << " entries";
        return kept;
      }
      EXPECT_EQ(row.new_ids[k], n) << o << "[" << k << "]";
      EXPECT_EQ(row.sims[k], want) << o << "," << n;
    }
    EXPECT_EQ(row.new_ids.size(), k) << "row " << o;
    EXPECT_EQ(row.sims.size(), k) << "row " << o;
  }
  const PreMatcher::KeptPairs view = pm.scored_pairs();
  const std::vector<ScoredPair> got(view.begin(), view.end());
  EXPECT_EQ(view.size(), kept.size());
  EXPECT_EQ(got.size(), kept.size());
  for (size_t i = 0; i < std::min(got.size(), kept.size()); ++i) {
    EXPECT_EQ(got[i].old_id, kept[i].old_id) << i;
    EXPECT_EQ(got[i].new_id, kept[i].new_id) << i;
    EXPECT_EQ(got[i].sim, kept[i].sim) << i;
  }
  const std::vector<CandidatePair> all = pm.ActiveCandidates(
      std::vector<bool>(old_d.num_records(), true),
      std::vector<bool>(new_d.num_records(), true));
  EXPECT_EQ(all.size(), candidates.size());
  EXPECT_TRUE(std::equal(all.begin(), all.end(), candidates.begin(),
                         candidates.end(),
                         [](const CandidatePair& a, const CandidatePair& b) {
                           return a.old_id == b.old_id && a.new_id == b.new_id;
                         }));
  return kept;
}

class PreMatchingClusterOracleTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { SetParallelThreadCount(1); }
};

// The store against the oracle with more than one segment: rawtenstall at
// scale 0.12 has more old records than one inverted-index shard holds, so
// the candidates arrive in several batches, scored on the pool at 2
// threads. The kept pairs also cluster as the reference does.
TEST_P(PreMatchingClusterOracleTest, MultiShardStoreMatchesOracle) {
  SetParallelThreadCount(GetParam());
  const LinkageConfig config = configs::DefaultConfig();
  auto scenario = ResolveScenario("rawtenstall");
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  GeneratorConfig gen = scenario.value().config;
  gen.seed = 1;
  gen.scale = 0.12;
  gen.num_censuses = 4;
  const SyntheticPair pair = GenerateCensusPair(gen, 2);
  const CensusDataset& old_d = pair.old_dataset;
  const CensusDataset& new_d = pair.new_dataset;
  ASSERT_GT(CandidateBatches(old_d, new_d, config.blocking).size(), 1u);
  SimilarityFunction f = config.sim_func;
  f.set_year_gap(new_d.year() - old_d.year());
  const PreMatcher pm(old_d, new_d, f, config.blocking, config.delta_low);
  const std::vector<ScoredPair> kept = ExpectStoreMatchesOracle(
      pm, old_d, new_d, f, config.blocking, config.delta_low);
  const std::vector<bool> all_old(old_d.num_records(), true);
  const std::vector<bool> all_new(new_d.num_records(), true);
  const Clustering got = pm.Cluster(config.delta_high, all_old, all_new);
  const ReferenceClustering ref =
      ReferenceCluster(kept, old_d.num_records(), new_d.num_records(),
                       config.delta_high, all_old, all_new);
  EXPECT_EQ(got.old_labels, ref.old_labels);
  EXPECT_EQ(got.new_labels, ref.new_labels);
  EXPECT_EQ(got.admissible_pairs, ref.pairs);
}

// The store holds every candidate with its bit-exact value (kPruned below
// δ_low), and its kept view is the oracle's kept list. Cluster and
// CountPairsAtDelta walk the rows in (old, new) order; the reference
// rescans the kept pairs per δ with its own forest. Labels, member
// lists and pair counts — the clustering's own admissible-pair count, which
// LinkCensusPair reports, and CountPairsAtDelta's — must agree exactly at
// every δ of the default schedule, on every scenario preset, with all
// records active and with a third of them inactive.
TEST_P(PreMatchingClusterOracleTest, MatchesBruteForceUnionFind) {
  SetParallelThreadCount(GetParam());
  const LinkageConfig config = configs::DefaultConfig();
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    SCOPED_TRACE(std::string(preset.name));
    auto scenario = ParseScenario(preset.json);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    GeneratorConfig gen = scenario.value().config;
    gen.seed = 42;
    gen.scale = 0.05;
    gen.num_censuses = 4;
    const SyntheticPair pair = GenerateCensusPair(gen, 2);
    const CensusDataset& old_d = pair.old_dataset;
    const CensusDataset& new_d = pair.new_dataset;
    SimilarityFunction f = config.sim_func;
    f.set_year_gap(new_d.year() - old_d.year());
    const PreMatcher pm(old_d, new_d, f, config.blocking, config.delta_low);

    // The store itself: every blocking candidate (hash blocking is the
    // oracle for the configured index) with its exact aggregate, or kPruned
    // below δ_low; the kept pairs are those reaching δ_low, in (old, new)
    // order.
    const std::vector<ScoredPair> kept =
        ExpectStoreMatchesOracle(pm, old_d, new_d, f,
                                 BlockingConfig::MakeDefault(),
                                 config.delta_low);

    const size_t n_old = old_d.num_records();
    const size_t n_new = new_d.num_records();
    const std::vector<std::vector<bool>> old_masks = {
        std::vector<bool>(n_old, true), PartlyActive(n_old, 1)};
    const std::vector<std::vector<bool>> new_masks = {
        std::vector<bool>(n_new, true), PartlyActive(n_new, 2)};
    int rounds = 0;
    for (double delta = config.delta_high;
         delta + 1e-9 >= config.delta_low; delta -= config.delta_step) {
      ++rounds;
      for (size_t m = 0; m < old_masks.size(); ++m) {
        SCOPED_TRACE("delta=" + std::to_string(delta) +
                     " mask=" + std::to_string(m));
        const std::vector<bool>& active_old = old_masks[m];
        const std::vector<bool>& active_new = new_masks[m];
        const Clustering got = pm.Cluster(delta, active_old, active_new);
        const ReferenceClustering ref = ReferenceCluster(
            kept, n_old, n_new, delta, active_old, active_new);
        EXPECT_EQ(got.num_labels, ref.num_labels);
        EXPECT_EQ(got.old_labels, ref.old_labels);
        EXPECT_EQ(got.new_labels, ref.new_labels);
        EXPECT_EQ(got.admissible_pairs, ref.pairs);
        EXPECT_EQ(pm.CountPairsAtDelta(delta, active_old, active_new),
                  got.admissible_pairs);
        // Member lists: each label's active records, ascending.
        std::vector<std::vector<RecordId>> old_members(ref.num_labels);
        std::vector<std::vector<RecordId>> new_members(ref.num_labels);
        for (RecordId r = 0; r < n_old; ++r) {
          if (active_old[r]) old_members[ref.old_labels[r]].push_back(r);
        }
        for (RecordId r = 0; r < n_new; ++r) {
          if (active_new[r]) new_members[ref.new_labels[r]].push_back(r);
        }
        EXPECT_EQ(got.label_old_members, old_members);
        EXPECT_EQ(got.label_new_members, new_members);
      }
    }
    EXPECT_EQ(rounds, 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PreMatchingClusterOracleTest,
                         ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tglink
