#include "tglink/linkage/subgraph.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "tglink/graph/enrichment.h"
#include "tglink/linkage/subgraph_export.h"
#include "tglink/obs/metrics.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

/// First name + surname, bigram Dice, equally weighted (Fig. 3's function).
SimilarityFunction Fig3NameSimilarity() {
  return SimilarityFunction(
      {
          {Field::kFirstName, Measure::kQGramDice, 0.5},
          {Field::kSurname, Measure::kQGramDice, 0.5},
      },
      1.0);
}

/// Fixture reproducing the exact setting of the paper's Fig. 4 / Eq. 8.
class SubgraphPaperExampleTest : public ::testing::Test {
 protected:
  SubgraphPaperExampleTest()
      : old_d_(MakeCensus1871()),
        new_d_(MakeCensus1881()),
        old_graphs_(EnrichAllHouseholds(old_d_)),
        new_graphs_(EnrichAllHouseholds(new_d_)) {
    config_.sim_func = SimilarityFunction(
        {
            {Field::kFirstName, Measure::kQGramDice, 0.5},
            {Field::kSurname, Measure::kQGramDice, 0.5},
        },
        1.0);
    // Eq. 8 weights the three scores; any (α, β) works for score checks.
    config_.group_weights = {0.2, 0.7};
    // Fig. 4 considers the decoy household's vertices despite their ages
    // deviating by 19 years; disable the vertex gate to reproduce the
    // figure literally (the production default would prune them earlier).
    config_.vertex_age_tolerance = 0;
    prematcher_ = std::make_unique<PreMatcher>(
        old_d_, new_d_, config_.sim_func, BlockingConfig::MakeExhaustive(),
        1.0);
    clustering_ = prematcher_->Cluster(
        1.0, std::vector<bool>(old_d_.num_records(), true),
        std::vector<bool>(new_d_.num_records(), true));
  }

  GroupPairSubgraph Build(GroupId old_g, GroupId new_g) {
    return BuildGroupPairSubgraph(old_g, new_g, old_graphs_[old_g],
                                  new_graphs_[new_g], clustering_,
                                  *prematcher_, config_, old_d_, new_d_,
                                  /*delta=*/1.0);
  }

  CensusDataset old_d_;
  CensusDataset new_d_;
  std::vector<HouseholdGraph> old_graphs_;
  std::vector<HouseholdGraph> new_graphs_;
  LinkageConfig config_;
  std::unique_ptr<PreMatcher> prematcher_;
  Clustering clustering_;
};

TEST_F(SubgraphPaperExampleTest, GroupPairAAMatchesPaperScores) {
  const GroupPairSubgraph sub = Build(kG1871A, kG1881A);
  ASSERT_EQ(sub.vertices.size(), 3u);  // A, B, C
  EXPECT_EQ(sub.edges.size(), 3u);     // all three edges agree
  // Eq. 8: avg_sim = 1, e_sim = 2*3/(10+3) ≈ 0.46, unique = 2*3/9 ≈ 0.66.
  EXPECT_DOUBLE_EQ(sub.avg_sim, 1.0);
  EXPECT_NEAR(sub.e_sim, 6.0 / 13.0, 1e-9);
  EXPECT_NEAR(sub.uniqueness, 2.0 / 3.0, 1e-9);
}

TEST_F(SubgraphPaperExampleTest, GroupPairADReducedToMatchingEdge) {
  const GroupPairSubgraph sub = Build(kG1871A, kG1881D);
  // Three label-equal vertex pairs exist, but only the spouse edge
  // (John-Elizabeth) agrees in type and age difference; William's vertex is
  // pruned (Fig. 4 bottom right).
  ASSERT_EQ(sub.vertices.size(), 2u);
  EXPECT_EQ(sub.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(sub.avg_sim, 1.0);
  EXPECT_NEAR(sub.e_sim, 2.0 / 13.0, 1e-9);       // 2*1/(10+3) ≈ 0.15
  EXPECT_NEAR(sub.uniqueness, 2.0 / 3.0, 1e-9);   // 2*2/(3+3)
}

TEST_F(SubgraphPaperExampleTest, AggregatePrefersTrueLink) {
  // With any weighting that includes edge similarity, (a,a) must outscore
  // (a,d) — the paper's central disambiguation claim.
  const GroupPairSubgraph aa = Build(kG1871A, kG1881A);
  const GroupPairSubgraph ad = Build(kG1871A, kG1881D);
  EXPECT_GT(aa.g_sim, ad.g_sim);
  // With edge similarity ignored (α=1), the two are indistinguishable on
  // record similarity alone.
  EXPECT_DOUBLE_EQ(aa.avg_sim, ad.avg_sim);
}

TEST_F(SubgraphPaperExampleTest, GroupPairBBHasSpouseEdge) {
  const GroupPairSubgraph sub = Build(kG1871B, kG1881B);
  ASSERT_EQ(sub.vertices.size(), 2u);  // John + Elizabeth Smith
  EXPECT_EQ(sub.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(sub.avg_sim, 1.0);
}

TEST_F(SubgraphPaperExampleTest, SingleSharedVertexYieldsEmptySubgraph) {
  // g_1871_b and g_1881_c share only Steve: no edges -> pruned to empty
  // (the residual matcher handles such movers).
  const GroupPairSubgraph sub = Build(kG1871B, kG1881C);
  EXPECT_TRUE(sub.empty());
}

TEST_F(SubgraphPaperExampleTest, BuildAllEnumeratesSharedLabelPairsOnly) {
  const auto subgraphs =
      BuildAllSubgraphs(old_d_, new_d_, old_graphs_, new_graphs_, clustering_,
                        *prematcher_, config_, /*delta=*/1.0);
  // Non-empty subgraphs: (a,a), (a,d), (b,b). (b,c) prunes to empty.
  ASSERT_EQ(subgraphs.size(), 3u);
  std::set<std::pair<GroupId, GroupId>> pairs;
  for (const auto& s : subgraphs) pairs.emplace(s.old_group, s.new_group);
  EXPECT_TRUE(pairs.count({kG1871A, kG1881A}));
  EXPECT_TRUE(pairs.count({kG1871A, kG1881D}));
  EXPECT_TRUE(pairs.count({kG1871B, kG1881B}));
}

TEST_F(SubgraphPaperExampleTest, EdgeAgeToleranceGate) {
  // Tightening the tolerance to 0 still accepts exact age-diff agreement;
  // an artificial 3-year deviation must be rejected at tolerance 2.
  LinkageConfig strict = config_;
  strict.edge_age_tolerance = 0;
  GroupPairSubgraph sub = BuildGroupPairSubgraph(
      kG1871A, kG1881A, old_graphs_[kG1871A], new_graphs_[kG1881A],
      clustering_, *prematcher_, strict, old_d_, new_d_, /*delta=*/1.0);
  EXPECT_EQ(sub.edges.size(), 3u);  // diffs agree exactly in the fixture

  // Perturb William's 1881 age by 3: parent-child diffs now deviate by 3.
  CensusDataset perturbed = MakeCensus1881();
  perturbed.mutable_record(2)->age = 15;
  const auto graphs = EnrichAllHouseholds(perturbed);
  PreMatcher pm(old_d_, perturbed, config_.sim_func,
                BlockingConfig::MakeExhaustive(), 1.0);
  const Clustering cl = pm.Cluster(
      1.0, std::vector<bool>(old_d_.num_records(), true),
      std::vector<bool>(perturbed.num_records(), true));
  sub = BuildGroupPairSubgraph(kG1871A, kG1881A, old_graphs_[kG1871A],
                               graphs[kG1881A], cl, pm, config_, old_d_,
                               perturbed, /*delta=*/1.0);
  // tolerance 2: the two William edges (deviation 3) are rejected; the
  // spouse edge survives; William's vertex is pruned.
  EXPECT_EQ(sub.vertices.size(), 2u);
  EXPECT_EQ(sub.edges.size(), 1u);
}

TEST_F(SubgraphPaperExampleTest, DotRenderingShowsFig4) {
  const GroupPairSubgraph aa = Build(kG1871A, kG1881A);
  const std::string dot = GroupPairSubgraphToDot(
      aa, old_d_, new_d_, old_graphs_[kG1871A], new_graphs_[kG1881A]);
  EXPECT_NE(dot.find("graph subgraph_match"), std::string::npos);
  EXPECT_NE(dot.find("g1871_a"), std::string::npos);
  EXPECT_NE(dot.find("g1881_a"), std::string::npos);
  EXPECT_NE(dot.find("john ashworth"), std::string::npos);
  EXPECT_NE(dot.find("e_sim"), std::string::npos);
  // Three matched vertex pairs -> three dashed cross edges.
  size_t cross = 0;
  for (size_t pos = dot.find("style=dashed"); pos != std::string::npos;
       pos = dot.find("style=dashed", pos + 1)) {
    ++cross;
  }
  EXPECT_EQ(cross, 3u);
  // 10 + 3 relationship edges rendered in total.
  size_t rel = 0;
  for (size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++rel;
  }
  EXPECT_EQ(rel, 10u + 3u + 3u);  // household edges + cross edges
}

TEST_F(SubgraphPaperExampleTest, GSimIsConvexCombination) {
  const GroupPairSubgraph aa = Build(kG1871A, kG1881A);
  const GroupScoreWeights& w = config_.group_weights;
  EXPECT_NEAR(aa.g_sim,
              w.alpha * aa.avg_sim + w.beta * aa.e_sim +
                  w.uniqueness_weight() * aa.uniqueness,
              1e-12);
}

/// A hand-built census pair clustered at one δ, for pinning which
/// equally labelled record pairs become vertices.
struct TinyLinkage {
  TinyLinkage(CensusDataset old_dataset, CensusDataset new_dataset,
              SimilarityFunction sim_func, const BlockingConfig& blocking,
              double delta)
      : old_d(std::move(old_dataset)),
        new_d(std::move(new_dataset)),
        old_graphs(EnrichAllHouseholds(old_d)),
        new_graphs(EnrichAllHouseholds(new_d)),
        config(WithSimFunc(std::move(sim_func))),
        prematcher(old_d, new_d, config.sim_func, blocking, delta),
        clustering(prematcher.Cluster(
            delta, std::vector<bool>(old_d.num_records(), true),
            std::vector<bool>(new_d.num_records(), true))),
        delta(delta) {}

  static LinkageConfig WithSimFunc(SimilarityFunction sim_func) {
    LinkageConfig config;
    config.sim_func = std::move(sim_func);
    return config;
  }

  GroupPairSubgraph Build(GroupId old_g, GroupId new_g) const {
    return BuildGroupPairSubgraph(old_g, new_g, old_graphs[old_g],
                                  new_graphs[new_g], clustering, prematcher,
                                  config, old_d, new_d, delta);
  }

  std::vector<GroupPairSubgraph> BuildAll() const {
    return BuildAllSubgraphs(old_d, new_d, old_graphs, new_graphs, clustering,
                             prematcher, config, delta);
  }

  CensusDataset old_d;
  CensusDataset new_d;
  std::vector<HouseholdGraph> old_graphs;
  std::vector<HouseholdGraph> new_graphs;
  LinkageConfig config;  // owns the function the pre-matcher refers to
  PreMatcher prematcher;
  Clustering clustering;
  double delta;
};

bool HasVertex(const GroupPairSubgraph& sub, RecordId o, RecordId n) {
  for (const SubgraphVertex& v : sub.vertices) {
    if (v.old_id == o && v.new_id == n) return true;
  }
  return false;
}

/// A blocking pass that keys each record by a fixed table on its external
/// id; records absent from the table get their own id, which no record of
/// the other census shares.
BlockKeyFn KeyTable(std::map<std::string, std::string> keys) {
  return [keys = std::move(keys)](const PersonRecord& r) {
    const auto it = keys.find(r.external_id);
    return it == keys.end() ? r.external_id : it->second;
  };
}

TEST(SubgraphVertexRuleTest, SameLabelNonCandidateAtDeltaIsAVertex) {
  // Old g0 = {john 39, elizabeth 37}, g1 = {john 60}; new h0 = {john 49,
  // elizabeth 47}, h1 = {john 70}; all Johns share one name. Blocking
  // pairs g0's John with h1's, h1's with g1's and g1's with h0's, but never
  // g0's John with h0's: the pair is equally labelled only through that
  // chain, yet its direct similarity (1.0) reaches δ, so §3.3 makes it a
  // vertex.
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "g0", {MakeRecord("o_john0", "john", "ashworth", Sex::kMale, 39,
                        Role::kHead, "", "weaver"),
             MakeRecord("o_eliz0", "elizabeth", "ashworth", Sex::kFemale, 37,
                        Role::kWife, "", "")});
  old_d.AddHousehold("g1", {MakeRecord("o_john1", "john", "ashworth",
                                       Sex::kMale, 60, Role::kHead, "", "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h0", {MakeRecord("n_john0", "john", "ashworth", Sex::kMale, 49,
                        Role::kHead, "", "weaver"),
             MakeRecord("n_eliz0", "elizabeth", "ashworth", Sex::kFemale, 47,
                        Role::kWife, "", "")});
  new_d.AddHousehold("h1", {MakeRecord("n_john1", "john", "ashworth",
                                       Sex::kMale, 70, Role::kHead, "", "")});
  BlockingConfig blocking;
  blocking.passes = {
      KeyTable({{"o_john0", "p"}, {"n_john1", "p"},
                {"o_eliz0", "e"}, {"n_eliz0", "e"}}),
      KeyTable({{"o_john1", "q"}, {"n_john1", "q"}, {"n_john0", "q"}}),
  };
  const TinyLinkage t(old_d, new_d, Fig3NameSimilarity(), blocking, 1.0);
  const RecordId o_john0 = 0, o_eliz0 = 1, n_john0 = 0, n_eliz0 = 1;
  ASSERT_EQ(t.clustering.old_labels[o_john0], t.clustering.new_labels[n_john0]);
  ASSERT_FALSE(t.prematcher.PairSimilarity(o_john0, n_john0, 0.0).kept)
      << "fixture: the pair must not be a kept blocking candidate";

  const GroupPairSubgraph sub = t.Build(0, 0);
  ASSERT_EQ(sub.vertices.size(), 2u);
  EXPECT_TRUE(HasVertex(sub, o_john0, n_john0));
  EXPECT_TRUE(HasVertex(sub, o_eliz0, n_eliz0));
  EXPECT_EQ(sub.edges.size(), 1u);  // the spouse edge

  obs::Counter& misses =
      obs::GlobalMetrics().GetCounter("subgraph.miss_vertices");
  const uint64_t misses0 = misses.Value();
  const std::vector<GroupPairSubgraph> all = t.BuildAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].old_group, 0u);
  EXPECT_EQ(all[0].new_group, 0u);
  EXPECT_TRUE(HasVertex(all[0], o_john0, n_john0));
  // (o_john0, n_john0) is the only miss; g1's John is a blocking
  // candidate of both new Johns.
  EXPECT_EQ(misses.Value() - misses0, 1u);
}

TEST(SubgraphVertexRuleTest, SameLabelPairBelowDeltaIsNotAVertex) {
  // Exact first name, surname and occupation, equally weighted; δ = 0.6
  // accepts pairs agreeing on two of three. Old John Ashworth (weaver) and
  // new John Riley (miner) agree only on "john" (1/3) but share a label
  // through new John Ashworth (miner) and old John Riley (miner). The pair
  // must not become a vertex of its group pair; the mother-daughter pair
  // of the same households does.
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "g0", {MakeRecord("o0", "john", "ashworth", Sex::kMale, 39, Role::kHead,
                        "", "weaver"),
             MakeRecord("o1", "mary", "ashworth", Sex::kFemale, 37,
                        Role::kWife, "", "housewife"),
             MakeRecord("o2", "alice", "ashworth", Sex::kFemale, 8,
                        Role::kDaughter, "", "scholar")});
  old_d.AddHousehold("g1", {MakeRecord("o3", "john", "riley", Sex::kMale, 45,
                                       Role::kHead, "", "miner")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h0", {MakeRecord("n0", "john", "riley", Sex::kMale, 49, Role::kHead, "",
                        "miner"),
             MakeRecord("n1", "mary", "ashworth", Sex::kFemale, 47,
                        Role::kWife, "", "housewife"),
             MakeRecord("n2", "alice", "ashworth", Sex::kFemale, 18,
                        Role::kDaughter, "", "scholar")});
  new_d.AddHousehold("h1", {MakeRecord("n3", "john", "ashworth", Sex::kMale,
                                       55, Role::kHead, "", "miner")});
  const SimilarityFunction exact3(
      {
          {Field::kFirstName, Measure::kExact, 1.0},
          {Field::kSurname, Measure::kExact, 1.0},
          {Field::kOccupation, Measure::kExact, 1.0},
      },
      0.6);
  const TinyLinkage t(old_d, new_d, exact3, BlockingConfig::MakeExhaustive(),
                      0.6);
  ASSERT_EQ(t.clustering.old_labels[0], t.clustering.new_labels[0]);
  ASSERT_LT(t.prematcher.PairSimilarity(0, 0, 0.0).sim, t.delta);

  const GroupPairSubgraph sub = t.Build(0, 0);
  EXPECT_FALSE(HasVertex(sub, 0, 0));
  EXPECT_TRUE(HasVertex(sub, 1, 1));
  EXPECT_TRUE(HasVertex(sub, 2, 2));
  EXPECT_EQ(sub.vertices.size(), 2u);
}

/// Adds household `id`: John Ashworth (head) and his wife Elizabeth at
/// the given ages (-1 = not recorded).
void AddCouple(CensusDataset* d, const std::string& id, int john_age,
               int eliz_age) {
  d->AddHousehold(
      id, {MakeRecord(id + "_john", "john", "ashworth", Sex::kMale, john_age,
                      Role::kHead, "", ""),
           MakeRecord(id + "_eliz", "elizabeth", "ashworth", Sex::kFemale,
                      eliz_age, Role::kWife, "", "")});
}

/// Change of a global counter across one BuildAllSubgraphs call.
struct CounterDelta {
  explicit CounterDelta(const char* name)
      : counter(obs::GlobalMetrics().GetCounter(name)),
        start(counter.Value()) {}
  uint64_t Get() const { return counter.Value() - start; }
  obs::Counter& counter;
  const uint64_t start;
};

std::set<std::pair<GroupId, GroupId>> GroupPairs(
    const std::vector<GroupPairSubgraph>& subgraphs) {
  std::set<std::pair<GroupId, GroupId>> pairs;
  for (const GroupPairSubgraph& s : subgraphs) {
    pairs.emplace(s.old_group, s.new_group);
  }
  return pairs;
}

TEST(SubgraphAgeWindowTest, WindowEdgeIsInclusive) {
  // The gap is 10 years and the default tolerance 6: new couples aged
  // exactly 6 years off the expected 49/47 are vertices, 7 years off not.
  CensusDataset old_d(1871);
  AddCouple(&old_d, "g0", 39, 37);
  CensusDataset new_d(1881);
  AddCouple(&new_d, "h0", 55, 53);  // +6
  AddCouple(&new_d, "h1", 56, 54);  // +7
  AddCouple(&new_d, "h2", 43, 41);  // -6
  AddCouple(&new_d, "h3", 42, 40);  // -7
  const TinyLinkage t(old_d, new_d, Fig3NameSimilarity(),
                      BlockingConfig::MakeExhaustive(), 1.0);
  ASSERT_EQ(t.config.vertex_age_tolerance, 6);

  const CounterDelta potential("subgraph.potential_pairs");
  const std::vector<GroupPairSubgraph> all = t.BuildAll();
  EXPECT_EQ(potential.Get(), 4u);  // John and Elizabeth, each to h0 and h2
  EXPECT_EQ(GroupPairs(all),
            (std::set<std::pair<GroupId, GroupId>>{{0, 0}, {0, 2}}));
  for (const GroupPairSubgraph& sub : all) EXPECT_EQ(sub.vertices.size(), 2u);
  EXPECT_TRUE(t.Build(0, 1).empty());
  EXPECT_TRUE(t.Build(0, 3).empty());
}

TEST(SubgraphAgeWindowTest, UnagedOldRecordPairsWithEveryNewLabelMember) {
  CensusDataset old_d(1871);
  AddCouple(&old_d, "g0", -1, -1);
  CensusDataset new_d(1881);
  AddCouple(&new_d, "h0", 49, 47);
  AddCouple(&new_d, "h1", 80, 78);
  AddCouple(&new_d, "h2", -1, 20);
  const TinyLinkage t(old_d, new_d, Fig3NameSimilarity(),
                      BlockingConfig::MakeExhaustive(), 1.0);

  const CounterDelta potential("subgraph.potential_pairs");
  const std::vector<GroupPairSubgraph> all = t.BuildAll();
  EXPECT_EQ(potential.Get(), 6u);
  EXPECT_EQ(GroupPairs(all), (std::set<std::pair<GroupId, GroupId>>{
                                 {0, 0}, {0, 1}, {0, 2}}));
  for (const GroupPairSubgraph& sub : all) EXPECT_EQ(sub.vertices.size(), 2u);
}

TEST(SubgraphAgeWindowTest, UnagedNewRecordPairsWithEveryAgedOldMember) {
  CensusDataset old_d(1871);
  AddCouple(&old_d, "g0", 39, 37);
  AddCouple(&old_d, "g1", 70, 68);
  AddCouple(&old_d, "g2", 5, -1);
  CensusDataset new_d(1881);
  AddCouple(&new_d, "h0", -1, -1);
  const TinyLinkage t(old_d, new_d, Fig3NameSimilarity(),
                      BlockingConfig::MakeExhaustive(), 1.0);

  const CounterDelta potential("subgraph.potential_pairs");
  const std::vector<GroupPairSubgraph> all = t.BuildAll();
  EXPECT_EQ(potential.Get(), 6u);
  EXPECT_EQ(GroupPairs(all), (std::set<std::pair<GroupId, GroupId>>{
                                 {0, 0}, {1, 0}, {2, 0}}));
  for (const GroupPairSubgraph& sub : all) EXPECT_EQ(sub.vertices.size(), 2u);
}

TEST(SubgraphSkipRuleTest, PotentialPairsSharingOneOldRecordMakeNoLookups) {
  // One label of five Johns. Old g0's John has two plausible matches in
  // new h0 (brothers both recorded at 49), neither a blocking candidate: at most one can become a vertex, and one vertex has no
  // edge, so the group pair is skipped without a similarity lookup.
  CensusDataset old_d(1871);
  old_d.AddHousehold("g0", {MakeRecord("o_a", "john", "ashworth", Sex::kMale,
                                       39, Role::kHead, "", "")});
  old_d.AddHousehold("g1", {MakeRecord("o_b", "john", "ashworth", Sex::kMale,
                                       39, Role::kHead, "", "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h0", {MakeRecord("n_a", "john", "ashworth", Sex::kMale, 49,
                        Role::kHead, "", ""),
             MakeRecord("n_b", "john", "ashworth", Sex::kMale, 49,
                        Role::kBrother, "", "")});
  new_d.AddHousehold("h1", {MakeRecord("n_c", "john", "ashworth", Sex::kMale,
                                       49, Role::kHead, "", "")});
  BlockingConfig blocking;
  blocking.passes = {
      KeyTable({{"o_a", "p"}, {"n_c", "p"}}),
      KeyTable({{"o_b", "q"}, {"n_a", "q"}, {"n_b", "q"}, {"n_c", "q"}}),
  };
  const TinyLinkage t(old_d, new_d, Fig3NameSimilarity(), blocking, 1.0);
  const RecordId o_a = 0, n_a = 0, n_b = 1;
  ASSERT_EQ(t.clustering.old_labels[o_a], t.clustering.new_labels[n_a]);
  ASSERT_FALSE(t.prematcher.PairSimilarity(o_a, n_a, 0.0).kept);
  ASSERT_FALSE(t.prematcher.PairSimilarity(o_a, n_b, 0.0).kept);

  const CounterDelta lookups("simcache.prematch_miss");
  const CounterDelta evaluated("subgraph.candidate_group_pairs");
  const CounterDelta potential("subgraph.potential_pairs");
  EXPECT_TRUE(t.BuildAll().empty());
  EXPECT_EQ(lookups.Get(), 0u);
  EXPECT_EQ(evaluated.Get(), 0u);
  EXPECT_EQ(potential.Get(), 6u);
  EXPECT_TRUE(t.Build(0, 0).empty());
}

TEST(SubgraphSkipRuleTest, PotentialPairsSharingOneNewRecordMakeNoLookups) {
  // The mirror image: old g0 holds two plausible matches of new h0's John,
  // neither a blocking candidate of it.
  CensusDataset old_d(1871);
  old_d.AddHousehold(
      "g0", {MakeRecord("o_a", "john", "ashworth", Sex::kMale, 39,
                        Role::kHead, "", ""),
             MakeRecord("o_b", "john", "ashworth", Sex::kMale, 41,
                        Role::kBrother, "", "")});
  old_d.AddHousehold("g1", {MakeRecord("o_c", "john", "ashworth", Sex::kMale,
                                       39, Role::kHead, "", "")});
  CensusDataset new_d(1881);
  new_d.AddHousehold("h0", {MakeRecord("n_a", "john", "ashworth", Sex::kMale,
                                       49, Role::kHead, "", "")});
  new_d.AddHousehold("h1", {MakeRecord("n_c", "john", "ashworth", Sex::kMale,
                                       49, Role::kHead, "", "")});
  BlockingConfig blocking;
  blocking.passes = {
      KeyTable({{"o_a", "p"}, {"o_b", "p"}, {"o_c", "p"}, {"n_c", "p"}}),
      KeyTable({{"o_c", "q"}, {"n_a", "q"}}),
  };
  const TinyLinkage t(old_d, new_d, Fig3NameSimilarity(), blocking, 1.0);
  const RecordId o_a = 0, o_b = 1, n_a = 0;
  ASSERT_EQ(t.clustering.old_labels[o_a], t.clustering.new_labels[n_a]);
  ASSERT_FALSE(t.prematcher.PairSimilarity(o_a, n_a, 0.0).kept);
  ASSERT_FALSE(t.prematcher.PairSimilarity(o_b, n_a, 0.0).kept);

  const CounterDelta lookups("simcache.prematch_miss");
  const CounterDelta evaluated("subgraph.candidate_group_pairs");
  const CounterDelta potential("subgraph.potential_pairs");
  EXPECT_TRUE(t.BuildAll().empty());
  EXPECT_EQ(lookups.Get(), 0u);
  EXPECT_EQ(evaluated.Get(), 0u);
  EXPECT_EQ(potential.Get(), 6u);
  EXPECT_TRUE(t.Build(0, 0).empty());
}

/// Old g0 = {John 39, Elizabeth 37} and g1 = {John 60, Elizabeth 58}, both
/// head and wife; new h0 = {John 49 (head), Elizabeth of `eliz_role` aged
/// `eliz_age`} and h1 = {John 70, Elizabeth 68}, head and wife. Blocking
/// chains each name through g1 and h1 but never pairs g0 with h0, so h0's
/// pairs share labels with g0's yet are prematch misses; (g1, h1) is built
/// from kept pairs.
TinyLinkage ChainedCouples(Role eliz_role, int eliz_age) {
  CensusDataset old_d(1871);
  AddCouple(&old_d, "g0", 39, 37);
  AddCouple(&old_d, "g1", 60, 58);
  CensusDataset new_d(1881);
  new_d.AddHousehold(
      "h0", {MakeRecord("h0_john", "john", "ashworth", Sex::kMale, 49,
                        Role::kHead, "", ""),
             MakeRecord("h0_eliz", "elizabeth", "ashworth", Sex::kFemale,
                        eliz_age, eliz_role, "", "")});
  AddCouple(&new_d, "h1", 70, 68);
  BlockingConfig blocking;
  blocking.passes = {
      KeyTable({{"g0_john", "p"}, {"h1_john", "p"},
                {"g0_eliz", "e"}, {"h1_eliz", "e"}}),
      KeyTable({{"g1_john", "q"}, {"h1_john", "q"}, {"h0_john", "q"},
                {"g1_eliz", "f"}, {"h1_eliz", "f"}, {"h0_eliz", "f"}}),
  };
  return TinyLinkage(old_d, new_d, Fig3NameSimilarity(), blocking, 1.0);
}

/// Counters of one BuildAllSubgraphs call over a ChainedCouples fixture.
struct ScreenRun {
  std::set<std::pair<GroupId, GroupId>> built;
  uint64_t evaluated = 0;
  uint64_t screened_out = 0;
  uint64_t lookups = 0;
};

ScreenRun RunScreen(const TinyLinkage& t) {
  const CounterDelta evaluated("subgraph.candidate_group_pairs");
  const CounterDelta screened_out("subgraph.screened_out");
  const CounterDelta lookups("simcache.prematch_miss");
  ScreenRun run;
  run.built = GroupPairs(t.BuildAll());
  run.evaluated = evaluated.Get();
  run.screened_out = screened_out.Get();
  run.lookups = lookups.Get();
  return run;
}

TEST(SubgraphEdgeScreenTest, FixtureMakesMissesOnlyBetweenG0AndH0) {
  const TinyLinkage t = ChainedCouples(Role::kWife, 47);
  const RecordId g0_john = 0, g0_eliz = 1, h0_john = 0, h0_eliz = 1;
  ASSERT_EQ(t.clustering.old_labels[g0_john], t.clustering.new_labels[h0_john]);
  ASSERT_EQ(t.clustering.old_labels[g0_eliz], t.clustering.new_labels[h0_eliz]);
  ASSERT_FALSE(t.prematcher.PairSimilarity(g0_john, h0_john, 0.0).kept);
  ASSERT_FALSE(t.prematcher.PairSimilarity(g0_eliz, h0_eliz, 0.0).kept);

  const ScreenRun run = RunScreen(t);
  EXPECT_EQ(run.built,
            (std::set<std::pair<GroupId, GroupId>>{{0, 0}, {1, 1}}));
  EXPECT_EQ(run.evaluated, 2u);
  EXPECT_EQ(run.screened_out, 0u);
  EXPECT_EQ(run.lookups, 2u);  // John and Elizabeth of (g0, h0)
}

TEST(SubgraphEdgeScreenTest, EdgesOfDifferentTypeAreScreenedOut) {
  // h0's Elizabeth is John's daughter: a parent-child edge against g0's
  // spouse edge. (g0, h0) passes the two-by-two rule but has no matching
  // edge, so it is rejected before either of its miss lookups.
  const TinyLinkage t = ChainedCouples(Role::kDaughter, 47);
  const ScreenRun run = RunScreen(t);
  EXPECT_EQ(run.built, (std::set<std::pair<GroupId, GroupId>>{{1, 1}}));
  EXPECT_EQ(run.evaluated, 2u);
  EXPECT_EQ(run.screened_out, 1u);
  EXPECT_EQ(run.lookups, 0u);
  EXPECT_TRUE(t.Build(0, 0).empty());
}

TEST(SubgraphEdgeScreenTest, AgeDifferencesBeyondToleranceAreScreenedOut) {
  // h0's Elizabeth at 41 is inside the vertex age window (47 - 6), but the
  // couple's age difference moves from 2 to 8, beyond the edge tolerance.
  const TinyLinkage t = ChainedCouples(Role::kWife, 41);
  ASSERT_LT(t.config.edge_age_tolerance, 6);
  const ScreenRun run = RunScreen(t);
  EXPECT_EQ(run.built, (std::set<std::pair<GroupId, GroupId>>{{1, 1}}));
  EXPECT_EQ(run.evaluated, 2u);
  EXPECT_EQ(run.screened_out, 1u);
  EXPECT_EQ(run.lookups, 0u);
  EXPECT_TRUE(t.Build(0, 0).empty());
}

TEST(SubgraphEdgeScreenTest, UnknownAgeDifferencePassesTheScreen) {
  // h0's Elizabeth has no recorded age: the spouse edges agree in type and
  // the unknown age difference scores the agnostic 0.5, so (g0, h0) goes
  // on to its two miss lookups and is built.
  const TinyLinkage t = ChainedCouples(Role::kWife, -1);
  const ScreenRun run = RunScreen(t);
  EXPECT_EQ(run.built,
            (std::set<std::pair<GroupId, GroupId>>{{0, 0}, {1, 1}}));
  EXPECT_EQ(run.screened_out, 0u);
  EXPECT_EQ(run.lookups, 2u);
  const GroupPairSubgraph sub = t.Build(0, 0);
  ASSERT_EQ(sub.edges.size(), 1u);
  EXPECT_EQ(sub.edges[0].rp_sim, 0.5);
}

}  // namespace
}  // namespace tglink
