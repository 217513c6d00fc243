#include "tglink/linkage/subgraph.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/similarity/numeric.h"
#include "tglink/util/parallel.h"

namespace tglink {

namespace {

/// Relationship-property similarity of an old edge vs a new edge, oriented
/// from vertex i to vertex j on both sides. Returns a negative value when
/// the edges do not match (different type, or age differences deviating
/// beyond the tolerance).
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
  // One of the age differences is unknown: the types agree, so accept the
  // edge with an agnostic property similarity.
  return 0.5;
}

/// Vertex admission for one equally labelled (old, new) record pair
/// (§3.3): the recorded ages must be temporally plausible (footnote 2 of
/// the paper) and the pair's *direct* similarity must reach δ. A pair
/// pre-matching did not keep goes through the screened lookup with cutoff
/// δ - 2e-12; a kPruned answer is then provably below δ - 2e-12 and fails
/// the `sim + 1e-12 < δ` filter exactly as its true value would.
class VertexGate {
 public:
  VertexGate(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const PreMatcher& prematcher, const LinkageConfig& config,
             double delta)
      : old_dataset_(old_dataset),
        new_dataset_(new_dataset),
        prematcher_(prematcher),
        gate_(config.vertex_age_tolerance),
        year_gap_(new_dataset.year() - old_dataset.year()),
        delta_(delta) {}

  /// Fills `*vertex` and returns true when (o, n) is a vertex candidate;
  /// `*miss` tells whether its similarity came from a prematch miss.
  bool Admit(RecordId o, RecordId n, SubgraphVertex* vertex,
             bool* miss) const {
    const PersonRecord& old_rec = old_dataset_.record(o);
    const PersonRecord& new_rec = new_dataset_.record(n);
    double age_sim = 0.5;
    if (old_rec.has_age() && new_rec.has_age()) {
      age_sim = TemporalAgeSimilarity(old_rec.age, new_rec.age, year_gap_,
                                      gate_ > 0 ? gate_ : 7);
      if (gate_ > 0 && age_sim <= 0.0) return false;  // implausible ageing
    }
    const PreMatcher::PairSim ps =
        prematcher_.PairSimilarity(o, n, delta_ - 2e-12);
    if (ps.sim + 1e-12 < delta_) return false;  // label by chaining only
    *vertex = {o, n, ps.sim, age_sim};
    *miss = !ps.kept;
    return true;
  }

 private:
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  const PreMatcher& prematcher_;
  const int gate_;
  const int year_gap_;
  const double delta_;
};

/// Steps 2-5 of subgraph construction over one group pair's vertex
/// candidates (in any order): greedy 1:1 assignment, edges, pruning and
/// the Eq. 4-7 scores.
GroupPairSubgraph ScoreGroupPair(GroupId old_group, GroupId new_group,
                                 const HouseholdGraph& old_graph,
                                 const HouseholdGraph& new_graph,
                                 const Clustering& clustering,
                                 const LinkageConfig& config,
                                 std::vector<SubgraphVertex> candidates) {
  GroupPairSubgraph subgraph;
  subgraph.old_group = old_group;
  subgraph.new_group = new_group;
  if (candidates.empty()) return subgraph;

  // 2. Resolve within-pair ambiguity (two equally named brothers, say) by a
  // greedy 1:1 assignment ordered by record similarity, breaking ties on
  // the temporally stable evidence — age plausibility. The order is total,
  // so the result does not depend on the order candidates arrive in.
  std::sort(candidates.begin(), candidates.end(),
            [](const SubgraphVertex& a, const SubgraphVertex& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.age_sim != b.age_sim) return a.age_sim > b.age_sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
  std::vector<SubgraphVertex> vertices;
  for (const SubgraphVertex& cand : candidates) {
    const bool taken = std::any_of(
        vertices.begin(), vertices.end(), [&cand](const SubgraphVertex& v) {
          return v.old_id == cand.old_id || v.new_id == cand.new_id;
        });
    if (!taken) vertices.push_back(cand);
  }

  // 3. Edges: vertex pairs whose old and new records are connected by
  // relationships agreeing in unified type and age difference.
  std::vector<SubgraphEdge> edges;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    for (uint32_t j = i + 1; j < vertices.size(); ++j) {
      const double rp_sim = EdgePropertySimilarity(
          old_graph, new_graph, vertices[i], vertices[j], config);
      if (rp_sim >= 0.0) edges.push_back({i, j, rp_sim});
    }
  }

  // 4. Prune vertices with no matching incident edge (Fig. 4), then
  // re-index the surviving edges.
  std::vector<bool> covered(vertices.size(), false);
  for (const SubgraphEdge& e : edges) {
    covered[e.v1] = covered[e.v2] = true;
  }
  std::vector<uint32_t> new_index(vertices.size(), UINT32_MAX);
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    if (!covered[i]) continue;
    new_index[i] = static_cast<uint32_t>(subgraph.vertices.size());
    subgraph.vertices.push_back(vertices[i]);
  }
  subgraph.edges.reserve(edges.size());
  for (const SubgraphEdge& e : edges) {
    subgraph.edges.push_back({new_index[e.v1], new_index[e.v2], e.rp_sim});
  }
  if (subgraph.vertices.empty()) return subgraph;

  // 5. Scores (Section 3.4).
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

/// A vertex candidate keyed by its (old group, new group) pair.
struct KeyedVertex {
  uint64_t key;  // (old group << 32) | new group
  SubgraphVertex vertex;
};

/// One label's vertex candidates and how many of them are prematch misses.
struct LabelVertices {
  std::vector<KeyedVertex> vertices;
  uint64_t misses = 0;
};

}  // namespace

GroupPairSubgraph BuildGroupPairSubgraph(
    GroupId old_group, GroupId new_group, const HouseholdGraph& old_graph,
    const HouseholdGraph& new_graph, const Clustering& clustering,
    const PreMatcher& prematcher, const LinkageConfig& config,
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    double delta) {
  const VertexGate gate(old_dataset, new_dataset, prematcher, config, delta);
  std::vector<SubgraphVertex> candidates;
  for (RecordId o : old_graph.members()) {
    const uint32_t label = clustering.old_labels[o];
    if (label == Clustering::kNoLabel) continue;
    for (RecordId n : clustering.label_new_members[label]) {
      if (new_dataset.record(n).group != new_group) continue;
      SubgraphVertex vertex;
      bool miss = false;
      if (gate.Admit(o, n, &vertex, &miss)) candidates.push_back(vertex);
    }
  }
  return ScoreGroupPair(old_group, new_group, old_graph, new_graph,
                        clustering, config, std::move(candidates));
}

std::vector<GroupPairSubgraph> BuildAllSubgraphs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<HouseholdGraph>& old_graphs,
    const std::vector<HouseholdGraph>& new_graphs,
    const Clustering& clustering, const PreMatcher& prematcher,
    const LinkageConfig& config, double delta) {
  TGLINK_TRACE_SPAN("subgraph.build_score", delta);
  TGLINK_MEM_STAGE("subgraph.build_score");
  const VertexGate gate(old_dataset, new_dataset, prematcher, config, delta);

  // Vertex candidates straight from each label's old x new members, keyed
  // by their group pair. Results merge in label order, so the list is the
  // same for any thread count.
  std::vector<LabelVertices> per_label = ParallelMap<LabelVertices>(
      clustering.num_labels, "subgraph.vertex_chunk", [&](size_t label) {
        LabelVertices out;
        for (RecordId o : clustering.label_old_members[label]) {
          const uint64_t go = old_dataset.record(o).group;
          for (RecordId n : clustering.label_new_members[label]) {
            KeyedVertex kv;
            bool miss = false;
            if (!gate.Admit(o, n, &kv.vertex, &miss)) continue;
            kv.key = (go << 32) | new_dataset.record(n).group;
            out.vertices.push_back(kv);
            out.misses += miss ? 1 : 0;
          }
        }
        return out;
      });
  size_t total = 0;
  uint64_t miss_vertices = 0;
  for (const LabelVertices& part : per_label) {
    total += part.vertices.size();
    miss_vertices += part.misses;
  }
  std::vector<KeyedVertex> keyed;
  keyed.reserve(total);
  for (LabelVertices& part : per_label) {
    keyed.insert(keyed.end(), part.vertices.begin(), part.vertices.end());
    std::vector<KeyedVertex>().swap(part.vertices);
  }
  // The order within one key is irrelevant: ScoreGroupPair sorts its
  // candidates by a total order.
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedVertex& a, const KeyedVertex& b) {
              return a.key < b.key;
            });

  // Group pairs holding one vertex candidate are always pruned (a single
  // vertex has no edge), so only ranges of >= 2 candidates are built.
  std::vector<std::pair<size_t, size_t>> ranges;  // [begin, end) of `keyed`
  size_t group_pairs = 0;
  for (size_t begin = 0; begin < keyed.size();) {
    size_t end = begin + 1;
    while (end < keyed.size() && keyed[end].key == keyed[begin].key) ++end;
    ++group_pairs;
    if (end - begin >= 2) ranges.emplace_back(begin, end);
    begin = end;
  }

  // Each group pair builds and scores independently; results come back in
  // the sorted key order, so the kept-subgraph list below is identical to
  // the serial path for any thread count.
  std::vector<GroupPairSubgraph> built = ParallelMap<GroupPairSubgraph>(
      ranges.size(), "subgraph.build_chunk", [&](size_t i) {
        const auto [begin, end] = ranges[i];
        const uint64_t key = keyed[begin].key;
        const GroupId go = static_cast<GroupId>(key >> 32);
        const GroupId gn = static_cast<GroupId>(key & 0xFFFFFFFFu);
        std::vector<SubgraphVertex> candidates;
        candidates.reserve(end - begin);
        for (size_t k = begin; k < end; ++k) {
          candidates.push_back(keyed[k].vertex);
        }
        return ScoreGroupPair(go, gn, old_graphs[go], new_graphs[gn],
                              clustering, config, std::move(candidates));
      });
  std::vector<GroupPairSubgraph> subgraphs;
  for (GroupPairSubgraph& subgraph : built) {
    if (!subgraph.empty()) {
      TGLINK_HISTOGRAM_SIZE("subgraph.vertices", subgraph.vertices.size());
      subgraphs.push_back(std::move(subgraph));
    }
  }
  TGLINK_COUNTER_ADD("subgraph.miss_vertices", miss_vertices);
  TGLINK_COUNTER_ADD("subgraph.candidate_group_pairs", group_pairs);
  TGLINK_COUNTER_ADD("subgraph.built", subgraphs.size());
  TGLINK_COUNTER_ADD("subgraph.pruned_empty", group_pairs - subgraphs.size());
  return subgraphs;
}

}  // namespace tglink
