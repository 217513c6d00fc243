// Inverted-index candidate generation, the library's one candidate
// generator (Section 4.1 blocking): blocking-key tokens (phonetic name
// codes, prefix keys from block_key.h, or the cross product's single key)
// map to sorted posting lists of record ids, one list per census side.
// Candidate pairs for an old record are the multi-key union of the
// new-side posting lists of its tokens, emitted per record already sorted
// by (old_id, new_id), so no global sort-and-unique pass is needed.
//
//   * tokens are interned once (string -> dense token id); pair emission
//     walks integer posting lists only,
//   * emission is sharded over old records: each shard of
//     `batch_records` old records is an independent, sorted slice of the
//     pair space (ShardPairs), so consumers can take shards one at a time
//     on the shared pool (util/parallel.h) and GeneratePairs is their
//     ordered concatenation — deterministic for every thread count,
//   * pathological keys (posting list longer than `max_posting_len`) are
//     pruned instead of exploding quadratically; records that carried a
//     pruned key are routed through a sorted-neighborhood fallback window
//     (blocking/sorted_neighborhood.h) so true matches inside giant blocks
//     are still reachable.
//
// Correctness oracle (tests/candidate_index_property_test): with pruning
// disabled and `min_shared_passes == 1`, GeneratePairs() emits exactly the
// candidate-pair set of brute-force multi-pass hash blocking over the same
// key functions (tests/hash_blocking.h). See DESIGN.md §9.

#ifndef TGLINK_BLOCKING_CANDIDATE_INDEX_H_
#define TGLINK_BLOCKING_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"

namespace tglink {

/// Galloping (exponential-probe) intersection of two ascending id lists.
/// O(min * log(max/min)) — the right shape when one posting list is much
/// shorter than the other. Exposed for tests and reuse.
[[nodiscard]] std::vector<RecordId> GallopingIntersect(
    const std::vector<RecordId>& a, const std::vector<RecordId>& b);

/// K-way union of ascending id lists, deduplicated, ascending.
[[nodiscard]] std::vector<RecordId> UnionSortedPostings(
    const std::vector<const std::vector<RecordId>*>& lists);

class CandidateIndex {
 public:
  /// Builds the token table and posting lists for both snapshots and adds
  /// |old| x |new| to "blocking.cross_product_pairs" (the denominator of
  /// blocking's reduction ratio). The datasets must outlive the index.
  CandidateIndex(const CensusDataset& old_dataset,
                 const CensusDataset& new_dataset,
                 BlockingConfig config);

  /// All candidate pairs — index pairs unioned with the fallback pairs —
  /// deduplicated and sorted by (old_id, new_id): the ordered concatenation
  /// of every shard, emitted on the shared pool.
  [[nodiscard]] std::vector<CandidatePair> GeneratePairs() const;

  /// Old records per shard (the config's batch_records, at least 1); the
  /// last shard may hold fewer.
  [[nodiscard]] size_t batch_records() const { return config_.batch_records; }
  /// Number of emission shards: ceil(old records / batch_records).
  [[nodiscard]] size_t num_shards() const;

  /// The pairs of shard `shard` — every candidate whose old id lies in
  /// [shard * batch_records, (shard + 1) * batch_records), fallback pairs
  /// folded in — deduplicated and sorted by (old_id, new_id). Adds its
  /// size to "blocking.candidate_pairs". Safe to call concurrently for any
  /// shards.
  [[nodiscard]] std::vector<CandidatePair> ShardPairs(size_t shard) const;

  /// Distinct (pass, key) tokens indexed.
  [[nodiscard]] size_t num_tokens() const { return token_count_; }
  /// Total posting-list entries across both sides.
  [[nodiscard]] size_t num_postings() const { return posting_count_; }
  /// Tokens pruned for exceeding max_posting_len.
  [[nodiscard]] size_t num_pruned_tokens() const { return pruned_tokens_; }

 private:
  /// Sorted new-side candidates for one old record (union or >=k-shared
  /// filter over its tokens' posting lists).
  void AppendPairsForOldRecord(RecordId old_id,
                               std::vector<RecordId>* scratch,
                               std::vector<CandidatePair>* out) const;

  BlockingConfig config_;
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;

  /// Per old record: the distinct token ids it carries (ascending).
  std::vector<std::vector<uint32_t>> old_record_tokens_;
  /// Per token id: ascending new-side record ids.
  std::vector<std::vector<RecordId>> new_postings_;

  /// Sorted-neighborhood pairs over the records that carried a pruned
  /// token, sorted by (old_id, new_id); ShardPairs folds in its slice.
  std::vector<CandidatePair> fallback_pairs_;

  size_t token_count_ = 0;
  size_t posting_count_ = 0;
  size_t pruned_tokens_ = 0;
};

}  // namespace tglink

#endif  // TGLINK_BLOCKING_CANDIDATE_INDEX_H_
