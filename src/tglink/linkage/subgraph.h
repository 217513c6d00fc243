// Subgraph matching (Section 3.3): for every pair of households linked by
// equally labeled record pairs whose direct similarity reaches δ, construct
// the common subgraph of those pairs whose relationships agree in unified
// type and age difference, and score it with the three criteria of
// Section 3.4.

#ifndef TGLINK_LINKAGE_SUBGRAPH_H_
#define TGLINK_LINKAGE_SUBGRAPH_H_

#include <vector>

#include "tglink/census/dataset.h"
#include "tglink/graph/household_graph.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/prematching.h"

namespace tglink {

/// A vertex of a common subgraph: a pair of equally labeled records.
struct SubgraphVertex {
  RecordId old_id;
  RecordId new_id;
  double sim;  // agg_sim(old, new) from pre-matching
  /// Temporal age plausibility (ordering aid for the within-pair 1:1
  /// assignment; 0.5 when either age is unknown). Not part of Eq. 5.
  double age_sim = 0.5;
};

/// An edge of a common subgraph connecting vertices `v1` and `v2` (indices
/// into GroupPairSubgraph::vertices); rp_sim is the relationship-property
/// similarity of the underlying old and new edges (age-difference agreement).
struct SubgraphEdge {
  uint32_t v1;
  uint32_t v2;
  double rp_sim;
};

/// The common subgraph of one candidate group pair, with its selection
/// scores (Equations 4-7).
struct GroupPairSubgraph {
  GroupId old_group = kInvalidGroup;
  GroupId new_group = kInvalidGroup;
  std::vector<SubgraphVertex> vertices;
  std::vector<SubgraphEdge> edges;

  double avg_sim = 0.0;     // Eq. 5
  double e_sim = 0.0;       // Eq. 6
  double uniqueness = 0.0;  // Eq. 7
  double g_sim = 0.0;       // Eq. 4

  bool empty() const { return vertices.empty(); }
};

/// Builds and scores the common subgraph for one group pair. Only active
/// records participate (inactive ones carry kNoLabel in the clustering).
/// Vertex candidates are the equally labelled (old, new) member pairs whose
/// recorded ages are temporally plausible and whose *direct* aggregated
/// similarity reaches `delta`, the current iteration's threshold — equal
/// labels alone can be the product of transitive chaining through
/// intermediate records and would otherwise let dissimilar records into
/// the mapping. A pair pre-matching kept takes its cached similarity; any
/// other pair (a prematch miss) is scored through
/// PreMatcher::PairSimilarity with cutoff delta - 2e-12, whose kPruned
/// answer fails the delta filter exactly as the true value would. A miss
/// that reaches `delta` is a vertex too: the vertex universe is not
/// restricted to blocking candidates. Records appearing in several candidates within the group
/// pair are resolved greedily 1:1 by descending record similarity.
/// Vertices without any matching incident edge are pruned (cf. Fig. 4 of
/// the paper); a pruned-empty subgraph means the group pair yields no
/// candidate — single-record overlaps are recovered later by residual
/// matching.
GroupPairSubgraph BuildGroupPairSubgraph(
    GroupId old_group, GroupId new_group, const HouseholdGraph& old_graph,
    const HouseholdGraph& new_graph, const Clustering& clustering,
    const PreMatcher& prematcher, const LinkageConfig& config,
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    double delta);

/// All non-empty scored subgraphs at `delta`, ordered by ascending (old
/// group, new group). Each built subgraph equals BuildGroupPairSubgraph's
/// for the same pair, bit for bit, at any thread count; the pairs left out
/// are exactly those whose subgraph is empty.
///
/// Enumeration, per old household (in parallel over chunks of households):
///  1. Potential pairs. For each active, labelled member o, every new
///     record of label(o) that is unaged, plus the aged ones with
///     |age(o) + year gap - age(n)| <= vertex_age_tolerance — the window
///     is exactly the vertex gate's age test. When o is unaged or the gate
///     is off (tolerance <= 0), every new record of the label. The new
///     side comes from an index of each label's active records sorted by
///     age, built once per call.
///  2. Skip rule. Potential pairs are grouped by new group; a group pair
///     is evaluated only when they span >= 2 distinct old and >= 2 distinct
///     new records. Otherwise the greedy 1:1 step leaves at most one
///     vertex, which has no edge and is always pruned.
///  3. Edge screen. An evaluated group pair goes on only when two of its
///     potential pairs sit on distinct old and distinct new records and
///     their old and new edges match — same unified RelType, and
///     AgeDiffSimilarity > 0 when both age differences are known: the test
///     subgraph edge construction applies. Vertices are potential pairs on
///     distinct records and a vertex without a matching edge is pruned, so
///     a group pair failing the screen always yields an empty subgraph; the
///     screen reads only the household graphs and costs no similarity
///     lookup.
///  4. Admission. Each potential pair of a screened-in group pair goes
///     through the vertex rule of BuildGroupPairSubgraph (kept-pair
///     binary search or screened miss lookup); group pairs with >= 2
///     admitted candidates are built and scored.
///
/// Counters: "subgraph.potential_pairs" counts the potential pairs of
/// step 1; "subgraph.candidate_group_pairs" the group pairs evaluated, i.e.
/// passing step 2; "subgraph.screened_out" those of them rejected by step
/// 3; "subgraph.built" those yielding a non-empty subgraph and
/// "subgraph.pruned_empty" the rest of the evaluated ones (screened-out
/// pairs included); "subgraph.miss_vertices" the admitted candidates of
/// group pairs passing step 3 whose pair pre-matching did not keep.
/// "simcache.prematch_miss" counts every miss lookup made, admitted or not.
std::vector<GroupPairSubgraph> BuildAllSubgraphs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<HouseholdGraph>& old_graphs,
    const std::vector<HouseholdGraph>& new_graphs,
    const Clustering& clustering, const PreMatcher& prematcher,
    const LinkageConfig& config, double delta);

}  // namespace tglink

#endif  // TGLINK_LINKAGE_SUBGRAPH_H_
