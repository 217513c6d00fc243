#include "tglink/linkage/prematching.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <span>

#include "tglink/graph/union_find.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/logging.h"
#include "tglink/util/parallel.h"

namespace tglink {

PreMatcher::PreMatcher(const CensusDataset& old_dataset,
                       const CensusDataset& new_dataset,
                       const SimilarityFunction& sim_func,
                       const BlockingConfig& blocking, double min_threshold)
    : old_dataset_(old_dataset),
      new_dataset_(new_dataset),
      sim_cache_(sim_func, old_dataset, new_dataset) {
  TGLINK_TRACE_SPAN("prematch.score_candidates");
  TGLINK_MEM_STAGE("prematch.score_candidates");
  candidates_ = GenerateCandidatePairs(old_dataset, new_dataset, blocking);
  // Score chunks in parallel, one old-record row at a time: each chunk
  // writes its own slice of `sims`, so the serial keep loop below is
  // bit-identical to the single-threaded path (a chunk may split a row; the
  // next chunk reloads the old side). Pairs below min_threshold come back
  // as SimCache::kPruned (-1), below every admissible threshold, so the
  // keep filter needs no extra branch and the kept set equals the exact
  // one. Each chunk tallies its kept similarities locally and adds them to
  // the histogram once.
  std::vector<double> sims(candidates_.size());
  std::atomic<size_t> num_kept{0};
  {
    TGLINK_TRACE_SPAN("prematch.score");
    const std::span<const CandidatePair> all(candidates_);
    ParallelFor(candidates_.size(), "prematch.score_chunk",
                [&](size_t begin, size_t end) {
                  const std::span<double> out(sims.data() + begin,
                                              end - begin);
                  sim_cache_.AggregateRowsWithThreshold(
                      all.subspan(begin, end - begin), min_threshold, out);
                  static obs::Histogram& kept_sim_histogram =
                      obs::GlobalMetrics().GetHistogram(
                          "prematch.kept_pair_sim",
                          obs::Histogram::UnitIntervalBounds());
                  obs::HistogramTally kept_sims(kept_sim_histogram);
                  for (const double sim : out) {
                    if (sim >= min_threshold) kept_sims.Observe(sim);
                  }
                  num_kept.fetch_add(kept_sims.count(),
                                     std::memory_order_relaxed);
                });
  }
  // Candidates arrive sorted by (old, new), so appending the kept ones in
  // candidate order fills each old record's row in ascending new id; the
  // row offsets are a prefix sum of the row sizes.
  TGLINK_TRACE_SPAN("prematch.keep");
  scored_pairs_.reserve(num_kept.load(std::memory_order_relaxed));
  kept_row_.assign(old_dataset.num_records() + 1, 0);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const double sim = sims[i];
    if (sim >= min_threshold) {
      const CandidatePair& cand = candidates_[i];
      TGLINK_DCHECK(i == 0 || candidates_[i - 1].old_id < cand.old_id ||
                    (candidates_[i - 1].old_id == cand.old_id &&
                     candidates_[i - 1].new_id < cand.new_id))
          << "blocking candidates not sorted by (old, new) at " << i;
      scored_pairs_.push_back({cand.old_id, cand.new_id, sim});
      ++kept_row_[cand.old_id + 1];
    }
  }
  for (size_t o = 0; o < old_dataset.num_records(); ++o) {
    kept_row_[o + 1] += kept_row_[o];
  }
  TGLINK_COUNTER_ADD("prematch.pairs_scored", candidates_.size());
  TGLINK_COUNTER_ADD("prematch.pairs_kept", scored_pairs_.size());
}

size_t PreMatcher::CountPairsAtDelta(double delta,
                                     const std::vector<bool>& active_old,
                                     const std::vector<bool>& active_new)
    const {
  size_t count = 0;
  for (const ScoredPair& p : scored_pairs_) {
    if (p.sim + 1e-12 >= delta && active_old[p.old_id] &&
        active_new[p.new_id]) {
      ++count;
    }
  }
  return count;
}

PreMatcher::PairSim PreMatcher::PairSimilarity(RecordId old_id,
                                               RecordId new_id,
                                               double min_sim) const {
  const auto row_begin = scored_pairs_.begin() + kept_row_[old_id];
  const auto row_end = scored_pairs_.begin() + kept_row_[old_id + 1];
  const auto it = std::lower_bound(
      row_begin, row_end, new_id,
      [](const ScoredPair& p, RecordId id) { return p.new_id < id; });
  if (it != row_end && it->new_id == new_id) return {it->sim, true};
  TGLINK_COUNTER_INC("simcache.prematch_miss");
  return {sim_cache_.AggregateWithThreshold(old_id, new_id, min_sim), false};
}

Clustering PreMatcher::Cluster(double delta,
                               const std::vector<bool>& active_old,
                               const std::vector<bool>& active_new) const {
  TGLINK_TRACE_SPAN("prematch.cluster", delta);
  const size_t n_old = old_dataset_.num_records();
  const size_t n_new = new_dataset_.num_records();
  assert(active_old.size() == n_old && active_new.size() == n_new);

  // Transitive closure over accepted pairs; node space is old records
  // followed by new records.
  Clustering clustering;
  UnionFind uf(n_old + n_new);
  for (const ScoredPair& pair : scored_pairs_) {
    if (pair.sim + 1e-12 < delta || !active_old[pair.old_id] ||
        !active_new[pair.new_id]) {
      continue;
    }
    ++clustering.admissible_pairs;
    uf.Union(pair.old_id, n_old + pair.new_id);
  }
  std::vector<uint32_t> labels = uf.ComponentLabels();

  clustering.old_labels.assign(n_old, Clustering::kNoLabel);
  clustering.new_labels.assign(n_new, Clustering::kNoLabel);
  clustering.num_labels = uf.num_components();
  clustering.label_old_members.resize(clustering.num_labels);
  clustering.label_new_members.resize(clustering.num_labels);
  for (size_t r = 0; r < n_old; ++r) {
    if (!active_old[r]) continue;
    const uint32_t label = labels[r];
    clustering.old_labels[r] = label;
    clustering.label_old_members[label].push_back(static_cast<RecordId>(r));
  }
  for (size_t r = 0; r < n_new; ++r) {
    if (!active_new[r]) continue;
    const uint32_t label = labels[n_old + r];
    clustering.new_labels[r] = label;
    clustering.label_new_members[label].push_back(static_cast<RecordId>(r));
  }
  return clustering;
}

}  // namespace tglink
