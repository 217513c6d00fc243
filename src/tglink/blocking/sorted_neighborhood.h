// Sorted-neighborhood candidate generation (Hernández & Stolfo): records of
// both snapshots are sorted together by a sorting key and every
// cross-snapshot pair within a sliding window becomes a candidate. An
// alternative to standard blocking that bounds the per-record comparison
// count and is robust to key-value skew (no giant blocks); combinable with
// multi-pass blocking by unioning the candidate sets.

#ifndef TGLINK_BLOCKING_SORTED_NEIGHBORHOOD_H_
#define TGLINK_BLOCKING_SORTED_NEIGHBORHOOD_H_

#include <cstddef>
#include <vector>

#include "tglink/blocking/block_key.h"
#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"

namespace tglink {

struct SortedNeighborhoodConfig {
  /// Sorting key; records with empty keys are excluded.
  BlockKeyFn key;
  /// Window size over the merged sorted sequence; each record is paired
  /// with cross-snapshot records at distance < window.
  size_t window = 8;

  static SortedNeighborhoodConfig MakeDefault();
};

/// Generates deduplicated candidate pairs, sorted by (old_id, new_id),
/// over every record of both snapshots.
[[nodiscard]] std::vector<CandidatePair> SortedNeighborhoodPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const SortedNeighborhoodConfig& config);

/// As above over only the listed records of each side (the candidate
/// index's fallback runs it over the records that carried a pruned key).
[[nodiscard]] std::vector<CandidatePair> SortedNeighborhoodPairs(
    const CensusDataset& old_dataset, const std::vector<RecordId>& old_ids,
    const CensusDataset& new_dataset, const std::vector<RecordId>& new_ids,
    const SortedNeighborhoodConfig& config);

/// Sorting key "surname first_name" — the conventional choice for census
/// rosters.
[[nodiscard]] BlockKeyFn SurnameFirstNameSortKey();

/// Union of two candidate-pair sets (both must be sorted), deduplicated.
[[nodiscard]] std::vector<CandidatePair> UnionCandidatePairs(
    const std::vector<CandidatePair>& a, const std::vector<CandidatePair>& b);

}  // namespace tglink

#endif  // TGLINK_BLOCKING_SORTED_NEIGHBORHOOD_H_
