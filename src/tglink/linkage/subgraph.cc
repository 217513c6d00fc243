#include "tglink/linkage/subgraph.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/similarity/numeric.h"
#include "tglink/util/parallel.h"

namespace tglink {

namespace {

/// Relationship-property similarity of the old edge between member slots
/// old_i and old_j vs the new edge between new_i and new_j, both oriented
/// from the i to the j endpoint. Returns a negative value when the edges do
/// not match (missing, different type, or age differences deviating beyond
/// the tolerance). Both the edge screen and subgraph edge construction
/// decide a match here.
double EdgePropertySimilarity(const HouseholdGraph& old_graph,
                              const HouseholdGraph& new_graph, size_t old_i,
                              size_t old_j, size_t new_i, size_t new_j,
                              const LinkageConfig& config) {
  const RelEdge* old_edge = old_graph.EdgeAtSlots(old_i, old_j);
  const RelEdge* new_edge = new_graph.EdgeAtSlots(new_i, new_j);
  if (old_edge == nullptr || new_edge == nullptr) return -1.0;
  if (old_edge->type != new_edge->type) return -1.0;
  if (old_edge->age_diff_known && new_edge->age_diff_known) {
    // An edge's `a` sits in the lower slot: age_diff is oriented low -> high.
    const int d_old = old_i < old_j ? old_edge->age_diff : -old_edge->age_diff;
    const int d_new = new_i < new_j ? new_edge->age_diff : -new_edge->age_diff;
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
  struct PlacedVertex {
    SubgraphVertex vertex;
    size_t old_slot;  // of vertex.old_id in old_graph
    size_t new_slot;  // of vertex.new_id in new_graph
  };
  std::vector<PlacedVertex> vertices;
  for (const SubgraphVertex& cand : candidates) {
    const bool taken = std::any_of(
        vertices.begin(), vertices.end(), [&cand](const PlacedVertex& v) {
          return v.vertex.old_id == cand.old_id ||
                 v.vertex.new_id == cand.new_id;
        });
    if (!taken) {
      vertices.push_back({cand, old_graph.SlotOf(cand.old_id),
                          new_graph.SlotOf(cand.new_id)});
    }
  }

  // 3. Edges: vertex pairs whose old and new records are connected by
  // relationships agreeing in unified type and age difference.
  std::vector<SubgraphEdge> edges;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    for (uint32_t j = i + 1; j < vertices.size(); ++j) {
      const double rp_sim = EdgePropertySimilarity(
          old_graph, new_graph, vertices[i].old_slot, vertices[j].old_slot,
          vertices[i].new_slot, vertices[j].new_slot, config);
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
    subgraph.vertices.push_back(vertices[i].vertex);
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

/// An active, labelled new record in the per-label age index.
struct AgedNewRecord {
  int age;  // -1 = missing, so unaged records sort first
  GroupId group;
  RecordId id;
  uint32_t slot;  // in its household graph
};

/// The active, labelled new records sorted by (label, age, id): label L
/// spans [begin[L], begin[L + 1]) of `records`, its unaged records first,
/// then its aged ones from aged_begin[L].
struct NewLabelIndex {
  std::vector<AgedNewRecord> records;
  std::vector<size_t> begin;
  std::vector<size_t> aged_begin;
};

NewLabelIndex BuildNewLabelIndex(const CensusDataset& new_dataset,
                                 const std::vector<HouseholdGraph>& new_graphs,
                                 const Clustering& clustering) {
  NewLabelIndex index;
  index.begin.reserve(clustering.num_labels + 1);
  index.aged_begin.reserve(clustering.num_labels);
  index.begin.push_back(0);
  for (const std::vector<RecordId>& members : clustering.label_new_members) {
    for (RecordId n : members) {
      const PersonRecord& rec = new_dataset.record(n);
      index.records.push_back(
          {rec.age, rec.group, n,
           static_cast<uint32_t>(new_graphs[rec.group].SlotOf(n))});
    }
    const auto first = index.records.begin() + index.begin.back();
    std::sort(first, index.records.end(),
              [](const AgedNewRecord& a, const AgedNewRecord& b) {
                return a.age != b.age ? a.age < b.age : a.id < b.id;
              });
    index.aged_begin.push_back(static_cast<size_t>(
        std::partition_point(first, index.records.end(),
                             [](const AgedNewRecord& r) { return r.age < 0; }) -
        index.records.begin()));
    index.begin.push_back(index.records.size());
  }
  return index;
}

/// An equally labelled (old, new) pair whose ages pass the vertex gate's
/// age test: the new record's group and both records' slots in their
/// household graphs.
struct PotentialPair {
  GroupId new_group;
  uint32_t old_slot;
  uint32_t new_slot;
};

/// Appends the potential pairs within `label` of the old record o in
/// `old_slot`: every unaged new record, plus the aged ones inside
/// VertexGate's age window |age(o) + year_gap - age(n)| <= tolerance — all
/// aged ones when o is unaged or the gate is off (tolerance <= 0).
void AppendPotentialPairs(const NewLabelIndex& index, uint32_t label,
                          uint32_t old_slot, int old_age, int year_gap,
                          int tolerance, std::vector<PotentialPair>* out) {
  const auto unaged = index.records.begin() + index.begin[label];
  const auto aged = index.records.begin() + index.aged_begin[label];
  auto window_first = aged;
  auto window_last = index.records.begin() + index.begin[label + 1];
  if (old_age >= 0 && tolerance > 0) {
    const int expected = old_age + year_gap;
    window_first = std::lower_bound(
        aged, window_last, expected - tolerance,
        [](const AgedNewRecord& r, int age) { return r.age < age; });
    window_last = std::upper_bound(
        window_first, window_last, expected + tolerance,
        [](int age, const AgedNewRecord& r) { return age < r.age; });
  }
  for (auto it = unaged; it != aged; ++it) {
    out->push_back({it->group, old_slot, it->slot});
  }
  for (auto it = window_first; it != window_last; ++it) {
    out->push_back({it->group, old_slot, it->slot});
  }
}

/// The edge screen: true when two of one group pair's potential `pairs`
/// sit on distinct old and distinct new records and their old and new
/// edges match. Vertices are admitted potential pairs on distinct records,
/// and a vertex without a matching edge is pruned, so a group pair failing
/// the screen always builds an empty subgraph.
bool HasMatchingEdge(std::span<const PotentialPair> pairs,
                     const HouseholdGraph& old_graph,
                     const HouseholdGraph& new_graph,
                     const LinkageConfig& config) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PotentialPair& p = pairs[i];
    for (size_t j = i + 1; j < pairs.size(); ++j) {
      const PotentialPair& q = pairs[j];
      if (p.old_slot == q.old_slot || p.new_slot == q.new_slot) continue;
      if (EdgePropertySimilarity(old_graph, new_graph, p.old_slot, q.old_slot,
                                 p.new_slot, q.new_slot, config) >= 0.0) {
        return true;
      }
    }
  }
  return false;
}

/// What one old household's potential pairs into one new group span;
/// valid while `stamp` is that household's index + 1 (0: never set).
struct GroupTally {
  size_t stamp = 0;
  uint32_t first_old = 0;  // slot
  uint32_t first_new = 0;  // slot
  bool two_old = false;
  bool two_new = false;
  size_t size = 0;  // potential pairs into the group
  size_t end = 0;   // end of the group's slice of HouseholdScratch::grouped
};

/// Working memory one chunk of old households reuses.
struct HouseholdScratch {
  explicit HouseholdScratch(size_t num_new_groups) : tally(num_new_groups) {}

  std::vector<PotentialPair> potential;
  std::vector<GroupTally> tally;  // indexed by new group
  std::vector<GroupId> groups;  // new groups reached, then those evaluated
  std::vector<PotentialPair> grouped;  // evaluated pairs by new group
};

/// A group pair with >= 2 vertex candidates; they span [begin, end) of
/// its chunk's `candidates`.
struct CandidateRange {
  GroupId old_group;
  GroupId new_group;
  size_t begin;
  size_t end;
};

/// What the vertex pass found in one chunk of old households.
struct ChunkCandidates {
  std::vector<SubgraphVertex> candidates;
  std::vector<CandidateRange> ranges;  // ascending (old group, new group)
  uint64_t potential_pairs = 0;
  uint64_t evaluated = 0;  // group pairs passing the two-by-two rule
  uint64_t screened_out = 0;  // of those, group pairs failing the edge screen
  uint64_t miss_vertices = 0;
};

/// The vertex pass of one δ round, one old household at a time.
class VertexPass {
 public:
  VertexPass(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const std::vector<HouseholdGraph>& old_graphs,
             const std::vector<HouseholdGraph>& new_graphs,
             const Clustering& clustering, const PreMatcher& prematcher,
             const LinkageConfig& config, double delta)
      : old_dataset_(old_dataset),
        old_graphs_(old_graphs),
        new_graphs_(new_graphs),
        clustering_(clustering),
        config_(config),
        gate_(old_dataset, new_dataset, prematcher, config, delta),
        index_(BuildNewLabelIndex(new_dataset, new_graphs, clustering)),
        year_gap_(new_dataset.year() - old_dataset.year()),
        tolerance_(config.vertex_age_tolerance) {}

  /// Appends old household `og`'s group pairs with >= 2 vertex candidates
  /// to `*out`, in ascending new group order.
  void Run(size_t og, HouseholdScratch* scratch, ChunkCandidates* out) const {
    std::vector<PotentialPair>& potential = scratch->potential;
    potential.clear();
    const std::vector<RecordId>& members = old_graphs_[og].members();
    for (uint32_t slot = 0; slot < members.size(); ++slot) {
      const RecordId o = members[slot];
      const uint32_t label = clustering_.old_labels[o];
      if (label == Clustering::kNoLabel) continue;
      AppendPotentialPairs(index_, label, slot, old_dataset_.record(o).age,
                           year_gap_, tolerance_, &potential);
    }
    out->potential_pairs += potential.size();

    // The greedy 1:1 step keeps vertices on distinct records, and a single
    // vertex has no edge: a group pair whose potential pairs share one old
    // or one new record always prunes to empty. Only group pairs spanning
    // two old and two new records are evaluated.
    std::vector<GroupTally>& tally = scratch->tally;
    std::vector<GroupId>& groups = scratch->groups;
    groups.clear();
    for (const PotentialPair& p : potential) {
      GroupTally& t = tally[p.new_group];
      if (t.stamp != og + 1) {
        t = {og + 1, p.old_slot, p.new_slot, false, false, 0, 0};
        groups.push_back(p.new_group);
      }
      t.two_old = t.two_old || p.old_slot != t.first_old;
      t.two_new = t.two_new || p.new_slot != t.first_new;
      ++t.size;
    }
    const auto evaluated = [&tally](GroupId ng) {
      return tally[ng].two_old && tally[ng].two_new;
    };
    groups.erase(std::remove_if(groups.begin(), groups.end(),
                                [&](GroupId ng) { return !evaluated(ng); }),
                 groups.end());
    std::sort(groups.begin(), groups.end());
    // Counting sort of the evaluated pairs into ascending new group slices.
    size_t filled = 0;
    for (GroupId ng : groups) {
      tally[ng].end = filled;  // advanced to the slice's end by the scatter
      filled += tally[ng].size;
    }
    std::vector<PotentialPair>& grouped = scratch->grouped;
    grouped.resize(filled);
    for (const PotentialPair& p : potential) {
      if (evaluated(p.new_group)) grouped[tally[p.new_group].end++] = p;
    }

    for (GroupId ng : groups) {
      const auto end = grouped.begin() + tally[ng].end;
      const auto begin = end - tally[ng].size;
      ++out->evaluated;
      // Reads only the household graphs, so a group pair failing it costs
      // no similarity lookup.
      if (!HasMatchingEdge(std::span<const PotentialPair>(begin, end),
                           old_graphs_[og], new_graphs_[ng], config_)) {
        ++out->screened_out;
        continue;
      }
      const std::vector<RecordId>& new_members = new_graphs_[ng].members();
      const size_t first = out->candidates.size();
      for (auto it = begin; it != end; ++it) {
        SubgraphVertex vertex;
        bool miss = false;
        if (!gate_.Admit(members[it->old_slot], new_members[it->new_slot],
                         &vertex, &miss)) {
          continue;
        }
        out->candidates.push_back(vertex);
        out->miss_vertices += miss ? 1 : 0;
      }
      if (out->candidates.size() - first >= 2) {
        out->ranges.push_back({static_cast<GroupId>(og), ng, first,
                               out->candidates.size()});
      } else {
        out->candidates.resize(first);  // a lone vertex is always pruned
      }
    }
  }

 private:
  const CensusDataset& old_dataset_;
  const std::vector<HouseholdGraph>& old_graphs_;
  const std::vector<HouseholdGraph>& new_graphs_;
  const Clustering& clustering_;
  const LinkageConfig& config_;
  const VertexGate gate_;
  const NewLabelIndex index_;
  const int year_gap_;
  const int tolerance_;
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
  const VertexPass pass(old_dataset, new_dataset, old_graphs, new_graphs,
                        clustering, prematcher, config, delta);

  // Each chunk of old households fills the slot of its first household, so
  // reading the slots in order lists the group pairs in ascending (old
  // group, new group) order for any thread count.
  std::vector<ChunkCandidates> found(old_graphs.size());
  ParallelFor(old_graphs.size(), "subgraph.vertex_chunk",
              [&](size_t first, size_t last) {
                HouseholdScratch scratch(new_graphs.size());
                for (size_t og = first; og < last; ++og) {
                  pass.Run(og, &scratch, &found[first]);
                }
              });
  std::vector<std::pair<const ChunkCandidates*, CandidateRange>> work;
  uint64_t potential_pairs = 0;
  uint64_t evaluated = 0;
  uint64_t screened_out = 0;
  uint64_t miss_vertices = 0;
  for (const ChunkCandidates& chunk : found) {
    for (const CandidateRange& range : chunk.ranges) {
      work.emplace_back(&chunk, range);
    }
    potential_pairs += chunk.potential_pairs;
    evaluated += chunk.evaluated;
    screened_out += chunk.screened_out;
    miss_vertices += chunk.miss_vertices;
  }

  // Each group pair builds and scores independently; results come back in
  // `work` order.
  std::vector<GroupPairSubgraph> built = ParallelMap<GroupPairSubgraph>(
      work.size(), "subgraph.build_chunk", [&](size_t i) {
        const auto& [chunk, range] = work[i];
        return ScoreGroupPair(
            range.old_group, range.new_group, old_graphs[range.old_group],
            new_graphs[range.new_group], clustering, config,
            std::vector<SubgraphVertex>(
                chunk->candidates.begin() + range.begin,
                chunk->candidates.begin() + range.end));
      });
  std::vector<GroupPairSubgraph> subgraphs;
  for (GroupPairSubgraph& subgraph : built) {
    if (!subgraph.empty()) {
      TGLINK_HISTOGRAM_SIZE("subgraph.vertices", subgraph.vertices.size());
      subgraphs.push_back(std::move(subgraph));
    }
  }
  TGLINK_COUNTER_ADD("subgraph.potential_pairs", potential_pairs);
  TGLINK_COUNTER_ADD("subgraph.candidate_group_pairs", evaluated);
  TGLINK_COUNTER_ADD("subgraph.screened_out", screened_out);
  TGLINK_COUNTER_ADD("subgraph.miss_vertices", miss_vertices);
  TGLINK_COUNTER_ADD("subgraph.built", subgraphs.size());
  TGLINK_COUNTER_ADD("subgraph.pruned_empty", evaluated - subgraphs.size());
  return subgraphs;
}

}  // namespace tglink
