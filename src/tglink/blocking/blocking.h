// Candidate-pair generation between two census snapshots (Section 4.1).
//
// The paper compares R_i × R_{i+1} exhaustively; at 30k × 30k records that
// is ~10^9 similarity computations per iteration. Multi-pass blocking keeps
// the semantics (the union of passes is a superset of every pair a sensible
// δ would accept — verified empirically in tests/blocking_test.cc) while
// reducing the candidate set by 3-4 orders of magnitude. One generator
// serves every configuration: the inverted candidate index
// (blocking/candidate_index.h). The paper's cross product is one more key
// function, a pass that keys every record alike (MakeExhaustive), and is
// used on small inputs.

#ifndef TGLINK_BLOCKING_BLOCKING_H_
#define TGLINK_BLOCKING_BLOCKING_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "tglink/blocking/block_key.h"
#include "tglink/census/dataset.h"

namespace tglink {

struct CandidatePair {
  RecordId old_id;
  RecordId new_id;
};

struct BlockingConfig {
  /// Key functions; a pair is a candidate if it shares a key in at least
  /// one pass. MakeDefault sets the three phonetic-name passes.
  std::vector<BlockKeyFn> passes;

  /// Keys whose posting lists (both sides summed) are longer than this are
  /// pruned and their records routed to a sorted-neighborhood fallback;
  /// 0 disables pruning (every key's full block is emitted).
  size_t max_posting_len = 0;

  /// Window of the sorted-neighborhood fallback over records that carried
  /// a pruned key; 0 disables the fallback.
  size_t fallback_window = 8;

  /// Minimum number of distinct blocking keys a pair must share (1 = plain
  /// union; >= 2 = conjunctive galloping-intersect refinement, a precision
  /// knob).
  size_t min_shared_passes = 1;

  /// Old records per emission shard (CandidateIndex::ShardPairs); shards
  /// are also the unit of parallel generation and of pre-matching's
  /// scoring batches.
  size_t batch_records = 2048;

  /// The three phonetic-name passes, pruning off.
  static BlockingConfig MakeDefault();
  /// The paper's literal cross product: one pass whose key is the same
  /// non-empty string for every record, so with pruning off every
  /// (old, new) pair is a candidate.
  static BlockingConfig MakeExhaustive();
};

/// Generates deduplicated candidate pairs, sorted by (old_id, new_id): the
/// ordered concatenation of the index's shards.
[[nodiscard]] std::vector<CandidatePair> GenerateCandidatePairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const BlockingConfig& config);

}  // namespace tglink

#endif  // TGLINK_BLOCKING_BLOCKING_H_
