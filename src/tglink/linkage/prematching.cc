#include "tglink/linkage/prematching.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <initializer_list>
#include <span>
#include <utility>

#include "tglink/blocking/candidate_index.h"
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
    : PreMatcher(std::make_shared<const SimTables>(
                     std::initializer_list<const SimilarityFunction*>{
                         &sim_func},
                     old_dataset, new_dataset),
                 sim_func, blocking, min_threshold) {}

PreMatcher::PreMatcher(std::shared_ptr<const SimTables> tables,
                       const SimilarityFunction& sim_func,
                       const BlockingConfig& blocking, double min_threshold)
    : old_dataset_(tables->old_dataset()),
      new_dataset_(tables->new_dataset()),
      sim_batch_(sim_func, std::move(tables)),
      min_threshold_(min_threshold) {
  TGLINK_TRACE_SPAN("prematch.score_candidates");
  TGLINK_MEM_STAGE("prematch.score_candidates");
  const CandidateIndex index = [&] {
    TGLINK_TRACE_SPAN("blocking.generate_candidates");
    TGLINK_MEM_STAGE("blocking.generate_candidates");
    return CandidateIndex(old_dataset_, new_dataset_, blocking);
  }();
  batch_records_ = index.batch_records();
  {
    // A lone batch is scored from this thread, so its chunks spread over
    // the pool. Several batches are scored one per pool task; their chunks
    // then run inline on that worker. Either way each segment is a
    // function of its batch alone, so the store is bit-identical for every
    // thread count.
    TGLINK_TRACE_SPAN("prematch.score");
    if (index.num_shards() == 1) {
      segments_.push_back(ScoreBatch(index, 0));
    } else {
      segments_ = ParallelMap<Segment>(
          index.num_shards(), "prematch.score_batch",
          [this, &index](size_t b) { return ScoreBatch(index, b); });
    }
  }
  TGLINK_TRACE_SPAN("prematch.keep");
  size_t num_candidates = 0;
  uint64_t store_bytes = 0;
  for (const Segment& seg : segments_) {
    num_candidates += seg.new_ids.size();
    num_kept_ += seg.num_kept;
    store_bytes += seg.row.size() * sizeof(uint32_t) +
                   seg.new_ids.size() * sizeof(RecordId) +
                   seg.sims.size() * sizeof(double);
  }
  TGLINK_COUNTER_ADD("prematch.pairs_scored", num_candidates);
  TGLINK_COUNTER_ADD("prematch.pairs_kept", num_kept_);
  TGLINK_COUNTER_ADD("prematch.store_bytes", store_bytes);
}

PreMatcher::Segment PreMatcher::ScoreBatch(const CandidateIndex& index,
                                           size_t b) const {
  const std::vector<CandidatePair> pairs = index.ShardPairs(b);
  TGLINK_CHECK(pairs.size() <= UINT32_MAX)
      << "candidate batch of " << pairs.size() << " pairs";
  // Score chunks in parallel, one old-record row at a time: each chunk
  // writes its own slice of the segment (a chunk may split a row; the next
  // chunk reloads the old side). Pairs below min_threshold come back as
  // SimBatch::kPruned, which is what the store holds for them. Each chunk
  // tallies its kept similarities locally and adds them to the histogram
  // and the kept count once.
  Segment seg;
  seg.sims.resize(pairs.size());
  seg.new_ids.resize(pairs.size());
  std::atomic<size_t> num_kept{0};
  ParallelFor(pairs.size(), "prematch.score_chunk",
              [&](size_t begin, size_t end) {
                const std::span<double> out(seg.sims.data() + begin,
                                            end - begin);
                sim_batch_.AggregateRowsWithThreshold(
                    std::span<const CandidatePair>(pairs).subspan(
                        begin, end - begin),
                    min_threshold_, out);
                static obs::Histogram& kept_sim_histogram =
                    obs::GlobalMetrics().GetHistogram(
                        "prematch.kept_pair_sim",
                        obs::Histogram::UnitIntervalBounds());
                obs::HistogramTally kept_sims(kept_sim_histogram);
                for (const double sim : out) {
                  if (Kept(sim)) {
                    kept_sims.Observe(sim);
                  } else {
                    TGLINK_DCHECK(sim == SimBatch::kPruned)
                        << "row scorer returned " << sim << " below "
                        << min_threshold_;
                  }
                }
                for (size_t i = begin; i < end; ++i) {
                  TGLINK_DCHECK(i == 0 ||
                                pairs[i - 1].old_id < pairs[i].old_id ||
                                (pairs[i - 1].old_id == pairs[i].old_id &&
                                 pairs[i - 1].new_id < pairs[i].new_id))
                      << "blocking candidates not sorted by (old, new) at "
                      << i;
                  seg.new_ids[i] = pairs[i].new_id;
                }
                num_kept.fetch_add(kept_sims.count(),
                                   std::memory_order_relaxed);
              });
  seg.num_kept = num_kept.load(std::memory_order_relaxed);
  // The batch is sorted by (old, new), so old record o's row begins at its
  // first pair: one binary search per old record of the batch.
  const size_t old_begin = b * batch_records_;
  const size_t old_end =
      std::min(old_dataset_.num_records(), old_begin + batch_records_);
  seg.row.resize(old_end - old_begin + 1);
  for (size_t r = 0; r < seg.row.size(); ++r) {
    seg.row[r] = static_cast<uint32_t>(
        std::lower_bound(pairs.begin(), pairs.end(), old_begin + r,
                         [](const CandidatePair& p, size_t old_id) {
                           return p.old_id < old_id;
                         }) -
        pairs.begin());
  }
  TGLINK_DCHECK(seg.row.front() == 0 && seg.row.back() == pairs.size())
      << "batch " << b << " holds old ids outside its range";
  return seg;
}

PreMatcher::KeptPairs::iterator::iterator(const PreMatcher* pm,
                                          RecordId old_id)
    : pm_(pm), old_id_(old_id) {
  if (old_id_ < pm_->old_dataset_.num_records()) {
    row_ = pm_->row(old_id_);
    Settle();
  }
}

void PreMatcher::KeptPairs::iterator::Settle() {
  const size_t n_old = pm_->old_dataset_.num_records();
  while (old_id_ < n_old) {
    for (; k_ < row_.sims.size(); ++k_) {
      if (pm_->Kept(row_.sims[k_])) return;
    }
    k_ = 0;
    if (++old_id_ < n_old) row_ = pm_->row(old_id_);
  }
  row_ = {};
}

std::vector<CandidatePair> PreMatcher::ActiveCandidates(
    const std::vector<bool>& active_old,
    const std::vector<bool>& active_new) const {
  // Count, then fill an exact-size vector: while the store is live the
  // list must not grow geometrically, or its spare capacity and the copy
  // of a doubling set the link's memory peak.
  const auto for_each_active = [&](auto&& visit) {
    for (RecordId o = 0; o < old_dataset_.num_records(); ++o) {
      if (!active_old[o]) continue;
      for (const RecordId n : row(o).new_ids) {
        if (active_new[n]) visit(o, n);
      }
    }
  };
  size_t count = 0;
  for_each_active([&count](RecordId, RecordId) { ++count; });
  std::vector<CandidatePair> out;
  out.reserve(count);
  for_each_active([&out](RecordId o, RecordId n) { out.push_back({o, n}); });
  return out;
}

size_t PreMatcher::CountPairsAtDelta(double delta,
                                     const std::vector<bool>& active_old,
                                     const std::vector<bool>& active_new)
    const {
  size_t count = 0;
  for (RecordId o = 0; o < old_dataset_.num_records(); ++o) {
    if (!active_old[o]) continue;
    const Row r = row(o);
    for (size_t k = 0; k < r.sims.size(); ++k) {
      if (Admissible(r.sims[k], delta) && active_new[r.new_ids[k]]) ++count;
    }
  }
  return count;
}

PreMatcher::PairSim PreMatcher::PairSimilarity(RecordId old_id,
                                               RecordId new_id,
                                               double min_sim) const {
  const Row r = row(old_id);
  const auto it = std::lower_bound(r.new_ids.begin(), r.new_ids.end(), new_id);
  if (it != r.new_ids.end() && *it == new_id) {
    const double sim = r.sims[static_cast<size_t>(it - r.new_ids.begin())];
    if (Kept(sim)) return {sim, true};
  }
  TGLINK_COUNTER_INC("simcache.prematch_miss");
  return {sim_batch_.AggregateWithThreshold(old_id, new_id, min_sim), false};
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
  for (RecordId o = 0; o < n_old; ++o) {
    if (!active_old[o]) continue;
    const Row r = row(o);
    for (size_t k = 0; k < r.sims.size(); ++k) {
      const RecordId n = r.new_ids[k];
      if (!Admissible(r.sims[k], delta) || !active_new[n]) continue;
      ++clustering.admissible_pairs;
      uf.Union(o, n_old + n);
    }
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
