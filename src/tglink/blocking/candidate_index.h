// Inverted-index candidate generation (the scale path for Section 4.1
// blocking): blocking-key tokens (phonetic name codes, prefix / q-gram
// style keys from block_key.h) map to sorted posting lists of record ids,
// one list per census side. Candidate pairs for an old record are the
// multi-key union of the new-side posting lists of its tokens — emitted
// per-record already sorted by (old_id, new_id), so the global
// sort-and-unique pass that dominates hash blocking at scale disappears.
//
// Differences from hash blocking (blocking.cc) that matter for scale:
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
//     so true matches inside giant blocks are still reachable.
//
// Equivalence guarantee (verified by tests/candidate_index_property_test):
// with pruning disabled and `min_shared_passes == 1`, GeneratePairs() emits
// exactly the candidate-pair set of multi-pass hash blocking over the same
// key functions. See DESIGN.md §9.

#ifndef TGLINK_BLOCKING_CANDIDATE_INDEX_H_
#define TGLINK_BLOCKING_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tglink/blocking/block_key.h"
#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"

namespace tglink {

struct CandidateIndexConfig {
  /// Key functions; a token is (pass, key-string). Defaults to the same
  /// three phonetic passes as BlockingConfig::MakeDefault().
  std::vector<BlockKeyFn> passes;

  /// Tokens whose total posting length (old side + new side) exceeds this
  /// are pruned from pair emission; 0 disables pruning. Pruned keys route
  /// their records into the sorted-neighborhood fallback below.
  size_t max_posting_len = 0;

  /// Window of the sorted-neighborhood fallback run over the records that
  /// carried at least one pruned token (0 disables the fallback).
  size_t fallback_window = 8;

  /// Minimum number of distinct tokens a pair must share to be emitted.
  /// 1 = plain multi-key union (the hash-blocking-equivalent default);
  /// >= 2 = conjunctive refinement via sorted-list galloping intersection —
  /// a precision knob benchmarked in bench/blocking_comparison.
  size_t min_shared_passes = 1;

  /// Old records per emission shard (ShardPairs); shards are also the
  /// unit of parallel generation.
  size_t batch_records = 2048;

  static CandidateIndexConfig MakeDefault();

  /// Mirrors the index-relevant fields of a BlockingConfig in
  /// Mode::kInvertedIndex (passes, max_posting_len, fallback_window,
  /// min_shared_passes).
  static CandidateIndexConfig FromBlocking(const BlockingConfig& blocking);
};

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
  /// Builds the token table and posting lists for both snapshots. The
  /// datasets must outlive the index.
  CandidateIndex(const CensusDataset& old_dataset,
                 const CensusDataset& new_dataset,
                 CandidateIndexConfig config);

  /// All candidate pairs — index pairs unioned with the fallback pairs —
  /// deduplicated and sorted by (old_id, new_id): the ordered concatenation
  /// of every shard, emitted on the shared pool. With pruning disabled this
  /// equals hash blocking's output over the same passes.
  [[nodiscard]] std::vector<CandidatePair> GeneratePairs() const;

  /// Number of emission shards: ceil(old records / batch_records).
  [[nodiscard]] size_t num_shards() const;

  /// The pairs of shard `shard` — every candidate whose old id lies in
  /// [shard * batch_records, (shard + 1) * batch_records), fallback pairs
  /// folded in — deduplicated and sorted by (old_id, new_id). Safe to call
  /// concurrently for any shards.
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

  /// Sorted-neighborhood pairs over the records flagged during pruning.
  [[nodiscard]] std::vector<CandidatePair> FallbackPairs(
      const std::vector<RecordId>& fallback_old,
      const std::vector<RecordId>& fallback_new) const;

  CandidateIndexConfig config_;
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
