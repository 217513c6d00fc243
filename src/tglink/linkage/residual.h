// Residual record matching (line 17 of Algorithm 1): a greedy 1:1
// attribute-only matcher applied to records left unmatched after the
// iterative subgraph rounds — typically singletons, movers whose households
// dissolved, and records whose relationship evidence was too corrupted.
// Also reused as the seed / one-shot matcher by the baselines.

#ifndef TGLINK_LINKAGE_RESIDUAL_H_
#define TGLINK_LINKAGE_RESIDUAL_H_

#include <vector>
#include <cstddef>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"
#include "tglink/linkage/mapping.h"
#include "tglink/linkage/prematching.h"
#include "tglink/similarity/composite.h"
#include "tglink/similarity/sim_batch.h"

namespace tglink {

/// Greedy 1:1 matching: scores every candidate pair of active records with
/// `scorer` (a plan of the matching function), keeps pairs at or above the
/// function's threshold, and accepts them in descending similarity order
/// while both endpoints are free. Returns the accepted links (old, new,
/// sim), deterministically ordered. `candidates` must be deduplicated and
/// sorted by (old, new), as GenerateCandidatePairs and
/// PreMatcher::ActiveCandidates return them; the pairs of inactive records
/// are dropped in place.
std::vector<ScoredPair> GreedyOneToOneMatch(
    const SimBatch& scorer, std::vector<CandidatePair> candidates,
    const std::vector<bool>& active_old, const std::vector<bool>& active_new);

/// As above over GenerateCandidatePairs(old_dataset, new_dataset, blocking),
/// scored by a SimBatch of `sim_func` over its own tables.
std::vector<ScoredPair> GreedyOneToOneMatch(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const SimilarityFunction& sim_func, const BlockingConfig& blocking,
    const std::vector<bool>& active_old, const std::vector<bool>& active_new);

/// Applies GreedyOneToOneMatch and folds the result into the record and
/// group mappings (lines 17-19 of Algorithm 1): each accepted record link
/// also links the owning households. Newly matched records are deactivated.
/// Returns the number of record links added.
size_t MatchResidualRecords(const SimBatch& scorer,
                            std::vector<CandidatePair> candidates,
                            RecordMapping* record_mapping,
                            GroupMapping* group_mapping,
                            std::vector<bool>* active_old,
                            std::vector<bool>* active_new);

/// As above over GenerateCandidatePairs(old_dataset, new_dataset, blocking),
/// scored by a SimBatch of `sim_func` over its own tables.
size_t MatchResidualRecords(const CensusDataset& old_dataset,
                            const CensusDataset& new_dataset,
                            const SimilarityFunction& sim_func,
                            const BlockingConfig& blocking,
                            RecordMapping* record_mapping,
                            GroupMapping* group_mapping,
                            std::vector<bool>* active_old,
                            std::vector<bool>* active_new);

/// Household-context residual matching (extension; see
/// LinkageConfig::context_residual): for every already-linked household
/// pair, greedily 1:1-matches its still-unmatched members against each
/// other when their attribute similarity reaches `threshold` — a relaxed
/// bar justified by the surrounding matched household. The member pairs
/// of every linked household pair are scored as rows by `scorer`'s row
/// scorer. Extends the record mapping only (the group pair is already
/// linked). Returns links added.
size_t MatchWithinLinkedHouseholds(const SimBatch& scorer, double threshold,
                                   const GroupMapping& group_mapping,
                                   RecordMapping* record_mapping,
                                   std::vector<bool>* active_old,
                                   std::vector<bool>* active_new);

/// As above, scored by a SimBatch of `sim_func` over its own tables.
size_t MatchWithinLinkedHouseholds(const CensusDataset& old_dataset,
                                   const CensusDataset& new_dataset,
                                   const SimilarityFunction& sim_func,
                                   double threshold,
                                   const GroupMapping& group_mapping,
                                   RecordMapping* record_mapping,
                                   std::vector<bool>* active_old,
                                   std::vector<bool>* active_new);

}  // namespace tglink

#endif  // TGLINK_LINKAGE_RESIDUAL_H_
