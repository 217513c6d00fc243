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
// (util/parallel.h) with an ordered merge, and individual string-measure
// results are memoized in a SimCache, so the output is bit-identical to a
// serial, uncached run. The kept pairs are then sorted by descending
// similarity once, so each δ round touches only the prefix of pairs at or
// above its threshold instead of rescanning everything.
//
// Subgraph construction also needs the direct similarity of equally
// labelled pairs. Blocking candidates arrive sorted by (old, new), so the
// keep loop also fills a flat row index over the kept pairs: one row of
// ascending new ids and their similarities per old record. PairSimilarity
// serves a kept pair by a binary search in its row. Any other pair — a
// "prematch miss": not a blocking candidate, or one scored below
// min_threshold — is scored on demand through the thresholded kernels,
// which may answer SimCache::kPruned when the pair provably cannot reach
// the caller's cutoff.

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

  /// Cached pairs with sim >= min_threshold, sorted by descending sim
  /// (ties by ascending (old, new)) so that the pairs admissible at any δ
  /// form a prefix — see PrefixAtDelta.
  const std::vector<ScoredPair>& scored_pairs() const { return scored_pairs_; }

  /// Number of leading scored_pairs() entries with sim >= delta (within
  /// the usual 1e-12 tolerance). O(log n).
  [[nodiscard]] size_t PrefixAtDelta(double delta) const;

  /// Pairs admissible at `delta` between still-active records — the
  /// per-iteration "scored pairs" diagnostic. Walks only the δ prefix.
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
  /// search in the old record's row of the kept-pair index. Any other pair
  /// is a miss, counted as "simcache.prematch_miss" and scored through
  /// SimCache::AggregateWithThreshold(old_id, new_id, min_sim): the exact
  /// aggregate, or SimCache::kPruned when the batched bounds prove it is
  /// below `min_sim`. With min_sim <= 0 every answer is exact. Safe to
  /// call concurrently.
  [[nodiscard]] PairSim PairSimilarity(RecordId old_id, RecordId new_id,
                                       double min_sim) const;

  /// Clusters active records using pairs with sim >= delta (the
  /// `prematching` step of one Algorithm 1 iteration). `active_*[r]` is
  /// false for records already matched.
  Clustering Cluster(double delta, const std::vector<bool>& active_old,
                     const std::vector<bool>& active_new) const;

 private:
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  SimCache sim_cache_;
  std::vector<ScoredPair> scored_pairs_;  // descending sim
  // Kept pairs indexed by old record: row o spans [kept_row_[o],
  // kept_row_[o + 1]) of kept_new_ / kept_sim_, in ascending new id.
  std::vector<size_t> kept_row_;
  std::vector<RecordId> kept_new_;
  std::vector<double> kept_sim_;
};

}  // namespace tglink

#endif  // TGLINK_LINKAGE_PREMATCHING_H_
