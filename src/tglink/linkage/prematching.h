// Pre-matching (Section 3.2): scores candidate record pairs with the
// composite similarity function, then clusters records whose similarity
// exceeds the current threshold δ via transitive closure, assigning the
// cluster labels that drive subgraph matching.
//
// Because attribute similarities do not change across the iterations of
// Algorithm 1 (only δ and the set of still-unmatched records do), PreMatcher
// scores each candidate pair exactly once — at the lowest threshold the
// schedule will ever use — and each iteration's clustering is a cheap filter
// over the cached scores. Scoring fans out over the shared thread pool
// (util/parallel.h) with an ordered merge, so the output is bit-identical
// to a serial run.
//
// Scoring runs one old-record row at a time through the row scorer
// (SimCache::AggregateRowsWithThreshold) in parallel chunks, under the
// span "prematch.score"; the serial keep loop is "prematch.keep".
//
// Blocking candidates arrive sorted by (old, new), and the kept pairs stay
// in that order: one row of ascending new ids per old record, which is both
// the per-δ clustering input and the index behind PairSimilarity. A kept
// pair is served by a binary search in its row. Any other pair — a
// "prematch miss": not a blocking candidate, or one scored below
// min_threshold — is scored on demand through the thresholded kernels,
// which may answer SimCache::kPruned when the pair provably cannot reach
// the caller's cutoff. The candidate list itself is kept for the global
// residual pass, so a census pair is blocked once.

#ifndef TGLINK_LINKAGE_PREMATCHING_H_
#define TGLINK_LINKAGE_PREMATCHING_H_

#include <cstddef>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"
#include "tglink/similarity/composite.h"
#include "tglink/similarity/sim_cache.h"

namespace tglink {

struct ScoredPair {
  RecordId old_id;
  RecordId new_id;
  double sim;
};

/// The result of one clustering round: per-record cluster labels over both
/// snapshots. Records marked inactive (already matched in an earlier
/// iteration) carry kNoLabel and are absent from the member lists.
struct Clustering {
  static constexpr uint32_t kNoLabel = UINT32_MAX;

  std::vector<uint32_t> old_labels;  // per old record
  std::vector<uint32_t> new_labels;  // per new record
  size_t num_labels = 0;
  /// Kept pairs admissible at this round's δ between active records — the
  /// pairs the clustering unions; equals PreMatcher::CountPairsAtDelta.
  size_t admissible_pairs = 0;

  /// Active records per label, per side. Indexed by label.
  std::vector<std::vector<RecordId>> label_old_members;
  std::vector<std::vector<RecordId>> label_new_members;

  /// |label(r)| of Eq. 7: number of active records (both snapshots) that
  /// carry this label.
  size_t LabelSize(uint32_t label) const {
    return label_old_members[label].size() + label_new_members[label].size();
  }
};

class PreMatcher {
 public:
  /// Scores all blocking candidates once (in parallel over the shared
  /// pool); pairs below `min_threshold` (normally δ_low) are discarded.
  /// The datasets and similarity function must outlive the PreMatcher.
  PreMatcher(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const SimilarityFunction& sim_func, const BlockingConfig& blocking,
             double min_threshold);

  /// Cached pairs with sim >= min_threshold, in ascending (old, new)
  /// order.
  const std::vector<ScoredPair>& scored_pairs() const { return scored_pairs_; }

  /// Every blocking candidate, sorted by (old, new) — the list the global
  /// residual pass scores with its own matcher.
  const std::vector<CandidatePair>& candidates() const { return candidates_; }

  /// Pairs admissible at `delta` (sim within 1e-12 of it or above) between
  /// still-active records — the per-iteration "scored pairs" diagnostic.
  /// Equals Cluster(delta, active_old, active_new).admissible_pairs, which
  /// LinkCensusPair reads instead of scanning the kept pairs again.
  [[nodiscard]] size_t CountPairsAtDelta(
      double delta, const std::vector<bool>& active_old,
      const std::vector<bool>& active_new) const;

  /// A PairSimilarity answer and where it came from.
  struct PairSim {
    double sim;
    bool kept;  // true: the cached value of a kept pair; false: a miss
  };

  /// agg_sim for any record pair. A kept pair (a blocking candidate with
  /// sim >= min_threshold) returns its cached value, found by a binary
  /// search in the old record's row of scored_pairs(). Any other pair
  /// is a miss, counted as "simcache.prematch_miss" and scored through
  /// SimCache::AggregateWithThreshold(old_id, new_id, min_sim): the exact
  /// aggregate, or SimCache::kPruned when the batched bounds prove it is
  /// below `min_sim`. With min_sim <= 0 every answer is exact. Safe to
  /// call concurrently.
  [[nodiscard]] PairSim PairSimilarity(RecordId old_id, RecordId new_id,
                                       double min_sim) const;

  /// Clusters active records using pairs with sim >= delta (the
  /// `prematching` step of one Algorithm 1 iteration). `active_*[r]` is
  /// false for records already matched. Labels do not depend on the order
  /// of the unions (UnionFind::ComponentLabels numbers components by node
  /// index), so walking the pairs in (old, new) order is exact.
  Clustering Cluster(double delta, const std::vector<bool>& active_old,
                     const std::vector<bool>& active_new) const;

 private:
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  SimCache sim_cache_;
  std::vector<CandidatePair> candidates_;
  // Kept pairs in (old, new) order: row o spans [kept_row_[o],
  // kept_row_[o + 1]) of scored_pairs_.
  std::vector<ScoredPair> scored_pairs_;
  std::vector<size_t> kept_row_;
};

}  // namespace tglink

#endif  // TGLINK_LINKAGE_PREMATCHING_H_
