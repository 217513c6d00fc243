// Candidate-pair generation between two census snapshots.
//
// The paper compares R_i × R_{i+1} exhaustively; at 30k × 30k records that
// is ~10^9 similarity computations per iteration. Multi-pass blocking keeps
// the semantics (the union of passes is a superset of every pair a sensible
// δ would accept — verified empirically in tests/blocking_test.cc) while
// reducing the candidate set by 3-4 orders of magnitude. kExhaustive mode
// reproduces the paper's cross product exactly and is used on small inputs.

#ifndef TGLINK_BLOCKING_BLOCKING_H_
#define TGLINK_BLOCKING_BLOCKING_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "tglink/blocking/block_key.h"
#include "tglink/census/dataset.h"

namespace tglink {

struct CandidatePair {
  RecordId old_id;
  RecordId new_id;
};

struct BlockingConfig {
  /// kMultiPass: per-pass hash blocks, global pair sort + dedup.
  /// kExhaustive: the paper's literal cross product.
  /// kInvertedIndex: token -> posting-list index with per-old-record union
  /// emission (see blocking/candidate_index.h) — same candidate set as
  /// kMultiPass over the same passes (when pruning is off), much faster at
  /// scale.
  enum class Mode { kMultiPass, kExhaustive, kInvertedIndex };
  Mode mode = Mode::kMultiPass;

  /// Key functions for kMultiPass / kInvertedIndex; a pair is a candidate
  /// if it shares a key in at least one pass. Default (set by MakeDefault)
  /// is the three phonetic-name passes.
  std::vector<BlockKeyFn> passes;

  /// kMultiPass: blocks larger than this (old-side count + new-side count)
  /// are skipped in a pass; 0 disables the cap. A safety valve against
  /// degenerate keys.
  size_t max_block_size = 0;

  /// kInvertedIndex only: posting lists longer than this (both sides
  /// summed) are pruned and their records routed to a sorted-neighborhood
  /// fallback; 0 disables pruning (exact kMultiPass equivalence).
  size_t max_posting_len = 0;

  /// kInvertedIndex only: window of the sorted-neighborhood fallback over
  /// records that carried a pruned key; 0 disables the fallback.
  size_t fallback_window = 8;

  /// kInvertedIndex only: minimum number of distinct blocking keys a pair
  /// must share (1 = plain union; >= 2 = conjunctive galloping-intersect
  /// refinement, a precision knob).
  size_t min_shared_passes = 1;

  static BlockingConfig MakeDefault();
  static BlockingConfig MakeExhaustive();
  /// The default passes served from the inverted candidate index. Pruning
  /// is off by default, so the candidate set is identical to MakeDefault().
  static BlockingConfig MakeInvertedIndex();
};

class CandidateIndex;

/// The candidate pairs of one census pair, handed over in batches so a
/// consumer can process and drop each batch before the next one exists.
/// Batch b holds every candidate whose old id lies in [b * batch_records(),
/// (b + 1) * batch_records()), deduplicated and sorted by (old_id, new_id),
/// so the batches in order are GenerateCandidatePairs's list. Every old
/// record falls in exactly one batch.
///
/// kInvertedIndex builds the index here and emits one batch per index
/// shard (CandidateIndexConfig::batch_records old records) on Take. The
/// other modes generate the whole list here, as a single batch.
class CandidateBatches {
 public:
  /// The datasets must outlive the batches.
  CandidateBatches(const CensusDataset& old_dataset,
                   const CensusDataset& new_dataset,
                   const BlockingConfig& config);
  ~CandidateBatches();

  CandidateBatches(const CandidateBatches&) = delete;
  CandidateBatches& operator=(const CandidateBatches&) = delete;

  /// Number of batches (0 when the old snapshot is empty).
  [[nodiscard]] size_t size() const { return num_batches_; }
  /// Old records per batch; the last batch may hold fewer.
  [[nodiscard]] size_t batch_records() const { return batch_records_; }

  /// Batch `b`. Each batch may be taken once; distinct batches may be
  /// taken concurrently.
  [[nodiscard]] std::vector<CandidatePair> Take(size_t b);

 private:
  std::unique_ptr<const CandidateIndex> index_;  // kInvertedIndex only
  std::vector<CandidatePair> whole_;             // the other modes' batch
  size_t batch_records_ = 1;
  size_t num_batches_ = 0;
};

/// Generates deduplicated candidate pairs, sorted by (old_id, new_id): the
/// concatenation of CandidateBatches's batches.
[[nodiscard]] std::vector<CandidatePair> GenerateCandidatePairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const BlockingConfig& config);

}  // namespace tglink

#endif  // TGLINK_BLOCKING_BLOCKING_H_
