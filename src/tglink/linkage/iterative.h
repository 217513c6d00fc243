// The core contribution: iterative temporal record and group linkage
// (Algorithm 1 of the paper). Each round pre-matches the still-unmatched
// records at the current threshold δ, builds and scores common household
// subgraphs, greedily selects group links, and extracts the record links
// they imply; δ is then relaxed by Δ until δ_low is reached or no group
// links are found. Remaining records go through the residual matcher.

#ifndef TGLINK_LINKAGE_ITERATIVE_H_
#define TGLINK_LINKAGE_ITERATIVE_H_

#include <string>
#include <cstddef>
#include <vector>

#include "tglink/census/dataset.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/mapping.h"

namespace tglink {

/// Per-iteration diagnostics, one per δ round.
struct IterationStats {
  double delta = 0.0;
  size_t scored_pairs = 0;          // pre-match pairs accepted at this δ
                                    // (Clustering::admissible_pairs)
  size_t candidate_subgraphs = 0;   // non-empty common subgraphs built
  size_t accepted_subgraphs = 0;    // subgraphs accepted by Algorithm 2
  size_t new_group_links = 0;
  size_t new_record_links = 0;
};

/// Which phase of the pipeline produced a record link.
enum class LinkPhase : uint8_t {
  kSubgraph,         // accepted as part of a common-subgraph group match
  kContextResidual,  // placed within an already-linked household pair
  kGlobalResidual,   // attribute-only residual matching (line 17 of Alg. 1)
};

const char* LinkPhaseName(LinkPhase phase);

/// Provenance of one record link, parallel to
/// LinkageResult::record_mapping.links().
struct LinkProvenance {
  LinkPhase phase = LinkPhase::kSubgraph;
  /// The iteration threshold that produced the link (subgraph phase), or
  /// the matcher threshold (residual phases).
  double delta = 0.0;
};

struct LinkageResult {
  RecordMapping record_mapping;
  GroupMapping group_mapping;
  std::vector<IterationStats> iterations;
  /// Per-link provenance, index-parallel to record_mapping.links().
  std::vector<LinkProvenance> provenance;
  size_t context_record_links = 0;  // household-context residual (extension)
  size_t residual_record_links = 0;

  [[nodiscard]] std::string Summary() const;
};

/// Links two successive census snapshots. `config.sim_func.year_gap` is set
/// from the dataset years automatically. Deterministic for fixed inputs.
[[nodiscard]] LinkageResult LinkCensusPair(const CensusDataset& old_dataset,
                                           const CensusDataset& new_dataset,
                                           const LinkageConfig& config);

}  // namespace tglink

#endif  // TGLINK_LINKAGE_ITERATIVE_H_
