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
// to a serial run. The scorer is a SimBatch plan over SimTables the caller
// may share: LinkCensusPair builds one set of tables per census pair and
// hands it to pre-matching and to both residual passes.
//
// The pair store. Blocking hands the candidates over in (old, new)-ordered
// batches, one per candidate-index shard (CandidateIndex::ShardPairs). Each
// batch is scored one old-record row at a time by the row scorer
// (SimBatch::AggregateRowsWithThreshold) under the span "prematch.score",
// kept as one segment of the store, and freed. A
// segment holds, per old record of its batch, a row of the candidates' new
// ids (ascending, uint32_t) with their Ω2 values (double): 12 bytes per
// candidate, each candidate held once. A value below min_threshold is
// stored as SimBatch::kPruned. The serial tally after scoring is
// "prematch.keep"; the store's logical size is the "prematch.store_bytes"
// counter.
//
// Every reader walks rows. Cluster and CountPairsAtDelta skip the rows of
// inactive old records wholesale. PairSimilarity binary-searches a row: a
// kept pair (sim >= min_threshold) answers its stored value. Any other
// pair — a "prematch miss": not a blocking candidate, or one scored below
// min_threshold — is scored on demand through SimBatch's threshold entry
// point, which answers SimBatch::kPruned when the pair's exact aggregate
// is below the caller's cutoff.
//
// The residual hand-off. The global residual pass takes the candidates
// between still-active records (ActiveCandidates), so a census pair is
// blocked once. ActiveCandidates counts them before it fills the list, so
// the list is allocated once at its exact size while the store is live;
// LinkCensusPair then frees the PreMatcher — the store, not the shared
// tables — and the residual pass scores the list over the same tables.
// So the residual passes never raise the link's memory peak, which is set
// while the store is live.

#ifndef TGLINK_LINKAGE_PREMATCHING_H_
#define TGLINK_LINKAGE_PREMATCHING_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"
#include "tglink/similarity/composite.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/similarity/sim_tables.h"

namespace tglink {

class CandidateIndex;

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
  /// Scores all blocking candidates of the tables' census pair once (in
  /// parallel over the shared pool) with a plan of `sim_func` over
  /// `tables`, which must have been built for it; pairs below
  /// `min_threshold` (normally δ_low) are not kept. The datasets and
  /// similarity function must outlive the PreMatcher; it shares the tables.
  PreMatcher(std::shared_ptr<const SimTables> tables,
             const SimilarityFunction& sim_func, const BlockingConfig& blocking,
             double min_threshold);

  /// As above over tables built for `sim_func` alone.
  PreMatcher(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const SimilarityFunction& sim_func, const BlockingConfig& blocking,
             double min_threshold);

  /// One old record's row of the store: every blocking candidate of the
  /// record, new ids ascending, with its Ω2 value — SimBatch::kPruned when
  /// that is below min_threshold.
  struct Row {
    std::span<const RecordId> new_ids;
    std::span<const double> sims;
  };
  [[nodiscard]] Row row(RecordId old_id) const {
    const Segment& seg = segments_[old_id / batch_records_];
    const size_t r = old_id % batch_records_;
    const uint32_t begin = seg.row[r];
    const uint32_t len = seg.row[r + 1] - begin;
    return {{seg.new_ids.data() + begin, len}, {seg.sims.data() + begin, len}};
  }

  /// Read-only view of the kept pairs (sim >= min_threshold), iterated in
  /// ascending (old, new) order; size() is O(1).
  class KeptPairs {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = ScoredPair;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = ScoredPair;

      iterator() = default;
      ScoredPair operator*() const {
        return {old_id_, row_.new_ids[k_], row_.sims[k_]};
      }
      iterator& operator++() {
        ++k_;
        Settle();
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& other) const {
        return old_id_ == other.old_id_ && k_ == other.k_;
      }

     private:
      friend class KeptPairs;
      iterator(const PreMatcher* pm, RecordId old_id);
      /// Moves to the first kept pair at or after (old_id_, k_), or to the
      /// end position (num old records, 0).
      void Settle();

      const PreMatcher* pm_ = nullptr;
      RecordId old_id_ = 0;
      size_t k_ = 0;
      Row row_;
    };

    [[nodiscard]] size_t size() const { return pm_->num_kept_; }
    [[nodiscard]] iterator begin() const { return iterator(pm_, 0); }
    [[nodiscard]] iterator end() const {
      return iterator(pm_, static_cast<RecordId>(
                               pm_->old_dataset_.num_records()));
    }

   private:
    friend class PreMatcher;
    explicit KeptPairs(const PreMatcher* pm) : pm_(pm) {}
    const PreMatcher* pm_;
  };

  /// The kept pairs, in ascending (old, new) order.
  [[nodiscard]] KeptPairs scored_pairs() const { return KeptPairs(this); }

  /// Every blocking candidate, kept or not, between an active old and an
  /// active new record, sorted by (old, new) — the list the global residual
  /// pass scores. Counted before it is filled, so the vector is allocated
  /// once at its exact size.
  [[nodiscard]] std::vector<CandidatePair> ActiveCandidates(
      const std::vector<bool>& active_old,
      const std::vector<bool>& active_new) const;

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
  /// search in the old record's row. Any other pair is a miss, counted as
  /// "simcache.prematch_miss" and scored through
  /// SimBatch::AggregateWithThreshold(old_id, new_id, min_sim): the exact
  /// aggregate, or SimBatch::kPruned when it is below `min_sim`. With
  /// min_sim <= 0 every answer is exact. Safe to call concurrently.
  [[nodiscard]] PairSim PairSimilarity(RecordId old_id, RecordId new_id,
                                       double min_sim) const;

  /// Clusters active records using pairs with sim >= delta (the
  /// `prematching` step of one Algorithm 1 iteration). `active_*[r]` is
  /// false for records already matched. Labels do not depend on the order
  /// of the unions (UnionFind::ComponentLabels numbers components by node
  /// index), so walking the rows in (old, new) order is exact.
  Clustering Cluster(double delta, const std::vector<bool>& active_old,
                     const std::vector<bool>& active_new) const;

 private:
  /// One scored candidate batch: the rows of its old records, back to back.
  struct Segment {
    std::vector<uint32_t> row;      // per old record of the batch, + 1
    std::vector<RecordId> new_ids;  // row r spans [row[r], row[r + 1])
    std::vector<double> sims;       // parallel to new_ids
    size_t num_kept = 0;            // sims >= min_threshold
  };

  /// Scores shard `b` of `index` into a segment; the shard's pairs are
  /// freed on return.
  Segment ScoreBatch(const CandidateIndex& index, size_t b) const;

  [[nodiscard]] bool Kept(double sim) const { return sim >= min_threshold_; }
  /// A kept pair clustered at `delta`: sim within 1e-12 of it or above.
  [[nodiscard]] bool Admissible(double sim, double delta) const {
    return Kept(sim) && sim + 1e-12 >= delta;
  }

  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  SimBatch sim_batch_;
  double min_threshold_;
  // Old record o's row is row (o % batch_records_) of segment
  // (o / batch_records_).
  size_t batch_records_ = 1;
  std::vector<Segment> segments_;
  size_t num_kept_ = 0;
};

}  // namespace tglink

#endif  // TGLINK_LINKAGE_PREMATCHING_H_
