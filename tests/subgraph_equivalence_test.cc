// BuildAllSubgraphs against a brute-force reference. The reference is the
// direct reading of §3.3: cross every old member with every new member of
// each cluster label to list the candidate group pairs, then rebuild each
// group pair from its households — with the cached similarity for kept
// pairs and the unscreened SimilarityFunction::AggregateSimilarity for
// every other pair. The library enumerates vertex candidates per label,
// screens misses against δ and builds only group pairs with >= 2
// candidates; both must agree bit for bit over every δ round of a real
// LinkCensusPair schedule, on every scenario preset, at 1 and 2 threads.
// Runs under the `tsan` preset too (tools/check.sh).

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/graph/enrichment.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/prematching.h"
#include "tglink/linkage/selection.h"
#include "tglink/linkage/subgraph.h"
#include "tglink/obs/metrics.h"
#include "tglink/similarity/numeric.h"
#include "tglink/synth/generator.h"
#include "tglink/synth/scenario.h"
#include "tglink/util/parallel.h"

namespace tglink {
namespace {

/// Everything the reference needs beyond the library's own arguments.
struct Reference {
  const CensusDataset& old_d;
  const CensusDataset& new_d;
  const std::vector<HouseholdGraph>& old_graphs;
  const std::vector<HouseholdGraph>& new_graphs;
  const Clustering& clustering;
  const SimilarityFunction& fn;  // year gap applied
  const std::map<std::pair<RecordId, RecordId>, double>& kept;
  const LinkageConfig& config;
  double delta;
};

double EdgePropertySimilarity(const HouseholdGraph& old_graph,
                              const HouseholdGraph& new_graph,
                              const SubgraphVertex& vi,
                              const SubgraphVertex& vj,
                              const LinkageConfig& config) {
  const RelEdge* old_edge = old_graph.EdgeBetween(vi.old_id, vj.old_id);
  const RelEdge* new_edge = new_graph.EdgeBetween(vi.new_id, vj.new_id);
  if (old_edge == nullptr || new_edge == nullptr) return -1.0;
  if (old_edge->type != new_edge->type) return -1.0;
  if (old_edge->age_diff_known && new_edge->age_diff_known) {
    const int d_old = old_graph.OrientedAgeDiff(*old_edge, vi.old_id, vj.old_id);
    const int d_new = new_graph.OrientedAgeDiff(*new_edge, vi.new_id, vj.new_id);
    const double rp_sim =
        AgeDiffSimilarity(d_old, d_new, config.edge_age_tolerance);
    return rp_sim > 0.0 ? rp_sim : -1.0;
  }
  return 0.5;
}

/// One group pair rebuilt from its two households.
GroupPairSubgraph ReferenceGroupPair(const Reference& ref, GroupId old_group,
                                     GroupId new_group) {
  const HouseholdGraph& old_graph = ref.old_graphs[old_group];
  const HouseholdGraph& new_graph = ref.new_graphs[new_group];
  const Clustering& clustering = ref.clustering;
  const LinkageConfig& config = ref.config;
  GroupPairSubgraph subgraph;
  subgraph.old_group = old_group;
  subgraph.new_group = new_group;
  const int year_gap = ref.new_d.year() - ref.old_d.year();

  std::vector<SubgraphVertex> candidates;
  for (RecordId o : old_graph.members()) {
    const uint32_t label = clustering.old_labels[o];
    if (label == Clustering::kNoLabel) continue;
    const PersonRecord& old_rec = ref.old_d.record(o);
    for (RecordId n : new_graph.members()) {
      if (clustering.new_labels[n] != label) continue;
      const PersonRecord& new_rec = ref.new_d.record(n);
      double age_sim = 0.5;
      if (old_rec.has_age() && new_rec.has_age()) {
        const int gate = config.vertex_age_tolerance;
        age_sim = TemporalAgeSimilarity(old_rec.age, new_rec.age, year_gap,
                                        gate > 0 ? gate : 7);
        if (gate > 0 && age_sim <= 0.0) continue;
      }
      const auto it = ref.kept.find({o, n});
      const double sim = it != ref.kept.end()
                             ? it->second
                             : ref.fn.AggregateSimilarity(old_rec, new_rec);
      if (sim + 1e-12 < ref.delta) continue;
      candidates.push_back({o, n, sim, age_sim});
    }
  }
  if (candidates.empty()) return subgraph;

  std::sort(candidates.begin(), candidates.end(),
            [](const SubgraphVertex& a, const SubgraphVertex& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.age_sim != b.age_sim) return a.age_sim > b.age_sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  std::unordered_set<RecordId> used_old, used_new;
  std::vector<SubgraphVertex> vertices;
  for (const SubgraphVertex& cand : candidates) {
    if (used_old.count(cand.old_id) || used_new.count(cand.new_id)) continue;
    used_old.insert(cand.old_id);
    used_new.insert(cand.new_id);
    vertices.push_back(cand);
  }

  std::vector<SubgraphEdge> edges;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    for (uint32_t j = i + 1; j < vertices.size(); ++j) {
      const double rp_sim = EdgePropertySimilarity(
          old_graph, new_graph, vertices[i], vertices[j], config);
      if (rp_sim >= 0.0) edges.push_back({i, j, rp_sim});
    }
  }

  std::vector<bool> covered(vertices.size(), false);
  for (const SubgraphEdge& e : edges) covered[e.v1] = covered[e.v2] = true;
  std::vector<uint32_t> new_index(vertices.size(), UINT32_MAX);
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    if (!covered[i]) continue;
    new_index[i] = static_cast<uint32_t>(subgraph.vertices.size());
    subgraph.vertices.push_back(vertices[i]);
  }
  for (const SubgraphEdge& e : edges) {
    subgraph.edges.push_back({new_index[e.v1], new_index[e.v2], e.rp_sim});
  }
  if (subgraph.vertices.empty()) return subgraph;

  double sim_sum = 0.0;
  size_t label_size_sum = 0;
  for (const SubgraphVertex& v : subgraph.vertices) {
    sim_sum += v.sim;
    label_size_sum += clustering.LabelSize(clustering.old_labels[v.old_id]);
  }
  subgraph.avg_sim = sim_sum / static_cast<double>(subgraph.vertices.size());
  double rp_sum = 0.0;
  for (const SubgraphEdge& e : subgraph.edges) rp_sum += e.rp_sim;
  const size_t total_edges = old_graph.num_edges() + new_graph.num_edges();
  subgraph.e_sim =
      total_edges == 0 ? 0.0 : 2.0 * rp_sum / static_cast<double>(total_edges);
  subgraph.uniqueness = 2.0 * static_cast<double>(subgraph.vertices.size()) /
                        static_cast<double>(label_size_sum);
  const GroupScoreWeights& w = config.group_weights;
  subgraph.g_sim = w.alpha * subgraph.avg_sim + w.beta * subgraph.e_sim +
                   w.uniqueness_weight() * subgraph.uniqueness;
  return subgraph;
}

/// Every group pair sharing a label, rebuilt; the non-empty ones in
/// ascending (old group, new group) order.
std::vector<GroupPairSubgraph> ReferenceAllSubgraphs(const Reference& ref) {
  const Clustering& clustering = ref.clustering;
  std::vector<uint64_t> keys;
  for (uint32_t label = 0; label < clustering.num_labels; ++label) {
    for (RecordId o : clustering.label_old_members[label]) {
      const uint64_t go = ref.old_d.record(o).group;
      for (RecordId n : clustering.label_new_members[label]) {
        keys.push_back((go << 32) | ref.new_d.record(n).group);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<GroupPairSubgraph> out;
  for (uint64_t key : keys) {
    GroupPairSubgraph sub =
        ReferenceGroupPair(ref, static_cast<GroupId>(key >> 32),
                           static_cast<GroupId>(key & 0xFFFFFFFFu));
    if (!sub.empty()) out.push_back(std::move(sub));
  }
  return out;
}

void ExpectSameSubgraphs(const std::vector<GroupPairSubgraph>& got,
                         const std::vector<GroupPairSubgraph>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const GroupPairSubgraph& g = got[i];
    const GroupPairSubgraph& w = want[i];
    SCOPED_TRACE("subgraph " + std::to_string(i));
    ASSERT_EQ(g.old_group, w.old_group);
    ASSERT_EQ(g.new_group, w.new_group);
    ASSERT_EQ(g.vertices.size(), w.vertices.size());
    for (size_t v = 0; v < w.vertices.size(); ++v) {
      EXPECT_EQ(g.vertices[v].old_id, w.vertices[v].old_id) << "vertex " << v;
      EXPECT_EQ(g.vertices[v].new_id, w.vertices[v].new_id) << "vertex " << v;
      EXPECT_EQ(g.vertices[v].sim, w.vertices[v].sim) << "vertex " << v;
      EXPECT_EQ(g.vertices[v].age_sim, w.vertices[v].age_sim)
          << "vertex " << v;
    }
    ASSERT_EQ(g.edges.size(), w.edges.size());
    for (size_t e = 0; e < w.edges.size(); ++e) {
      EXPECT_EQ(g.edges[e].v1, w.edges[e].v1) << "edge " << e;
      EXPECT_EQ(g.edges[e].v2, w.edges[e].v2) << "edge " << e;
      EXPECT_EQ(g.edges[e].rp_sim, w.edges[e].rp_sim) << "edge " << e;
    }
    EXPECT_EQ(g.avg_sim, w.avg_sim);
    EXPECT_EQ(g.e_sim, w.e_sim);
    EXPECT_EQ(g.uniqueness, w.uniqueness);
    EXPECT_EQ(g.g_sim, w.g_sim);
  }
}

// The scenario grid's coordinates, as in golden_regression_test.
constexpr double kScale = 0.05;
constexpr int kPair = 2;
constexpr uint64_t kSeed = 42;

/// Replays LinkCensusPair's subgraph rounds (linkage/iterative.cc) on one
/// preset, checking each round against the reference before selecting from
/// it. Returns the number of miss vertices the library reported.
uint64_t CheckPreset(const ScenarioPreset& preset) {
  auto scenario = ParseScenario(preset.json);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return 0;
  GeneratorConfig gen = scenario.value().config;
  gen.seed = kSeed;
  gen.scale = kScale;
  gen.num_censuses = kPair + 2;
  const SyntheticPair pair = GenerateCensusPair(gen, kPair);
  const CensusDataset& old_d = pair.old_dataset;
  const CensusDataset& new_d = pair.new_dataset;
  const LinkageConfig config = configs::DefaultConfig();

  const std::vector<HouseholdGraph> old_graphs = EnrichAllHouseholds(old_d);
  const std::vector<HouseholdGraph> new_graphs = EnrichAllHouseholds(new_d);
  SimilarityFunction fn = config.sim_func;
  fn.set_year_gap(new_d.year() - old_d.year());
  const PreMatcher prematcher(old_d, new_d, fn, config.blocking,
                              config.delta_low);
  std::map<std::pair<RecordId, RecordId>, double> kept;
  for (const ScoredPair& p : prematcher.scored_pairs()) {
    kept.emplace(std::make_pair(p.old_id, p.new_id), p.sim);
  }

  obs::Counter& misses =
      obs::GlobalMetrics().GetCounter("subgraph.miss_vertices");
  const uint64_t misses0 = misses.Value();
  GroupMapping group_mapping;
  RecordMapping record_mapping(old_d.num_records(), new_d.num_records());
  std::vector<bool> active_old(old_d.num_records(), true);
  std::vector<bool> active_new(new_d.num_records(), true);
  int rounds = 0;
  for (double delta = config.delta_high; delta + 1e-9 >= config.delta_low;
       delta -= config.delta_step) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    ++rounds;
    const Clustering clustering =
        prematcher.Cluster(delta, active_old, active_new);
    std::vector<GroupPairSubgraph> got =
        BuildAllSubgraphs(old_d, new_d, old_graphs, new_graphs, clustering,
                          prematcher, config, delta);
    const Reference ref{old_d,      new_d, old_graphs, new_graphs, clustering,
                        fn,         kept,  config,     delta};
    ExpectSameSubgraphs(got, ReferenceAllSubgraphs(ref));
    const SelectionResult selection =
        SelectGroupLinks(std::move(got), &group_mapping, &record_mapping,
                         &active_old, &active_new);
    if (selection.accepted_subgraphs == 0) break;
  }
  EXPECT_GE(rounds, 2);
  EXPECT_GT(record_mapping.size(), 0u);
  return misses.Value() - misses0;
}

class SubgraphEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { SetParallelThreadCount(1); }
};

TEST_P(SubgraphEquivalenceTest, EveryPresetMatchesTheCrossProductReference) {
  SetParallelThreadCount(GetParam());
  uint64_t miss_vertices = 0;
  for (const ScenarioPreset& preset : ScenarioPresets()) {
    SCOPED_TRACE(std::string(preset.name));
    miss_vertices += CheckPreset(preset);
  }
  // The grid must exercise the miss path, or the screen goes untested.
  EXPECT_GT(miss_vertices, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, SubgraphEquivalenceTest,
                         ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tglink
