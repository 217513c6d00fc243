#include "tglink/similarity/sim_cache.h"

#include <string_view>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/util/logging.h"
#include "tglink/util/thread_annotations.h"

namespace tglink {

SimCache::SimCache(const SimilarityFunction& fn,
                   const CensusDataset& old_dataset,
                   const CensusDataset& new_dataset)
    : fn_(fn),
      old_dataset_(old_dataset),
      new_dataset_(new_dataset),
      use_batch_(BatchKernelsEnabled()),
      batch_(fn, old_dataset, new_dataset) {
  spec_caches_.resize(fn.specs().size());
  for (size_t i = 0; i < fn.specs().size(); ++i) {
    const AttributeSpec& spec = fn.specs()[i];
    if (spec.field == Field::kAge) continue;  // temporal arithmetic, no memo
    // Scalar mode memoizes everything but exact equality (cheaper than the
    // lookup); batched mode memoizes only the measures without a kernel.
    const bool memoize = use_batch_ ? !simkernel::HasBatchKernel(spec.measure)
                                    : spec.measure != Measure::kExact;
    if (!memoize) continue;
    spec_caches_[i].enabled = true;
    spec_caches_[i].shards = std::make_unique<Shard[]>(kNumShards);
  }
  fallback_ = [this](size_t i, uint32_t old_vid, uint32_t new_vid,
                     std::string_view a, std::string_view b) {
    return MemoizedMeasure(i, old_vid, new_vid, a, b);
  };
}

SimCache::~SimCache() {
  // Logical footprint only — per-spec bookkeeping plus entry payloads and
  // fixed shard headers, excluding hash-table load-factor slack — so the
  // figure is deterministic and bench_diff.py can gate it exactly. The memo
  // only grows, so the destructor sees the true maximum.
  uint64_t memo_bytes = spec_caches_.size() * sizeof(SpecCache);
  for (const SpecCache& cache : spec_caches_) {
    if (!cache.enabled) continue;
    memo_bytes += kNumShards * sizeof(Shard);
    for (size_t s = 0; s < kNumShards; ++s) {
      Shard& shard = cache.shards[s];
      ReaderMutexLock read(shard.mu);
      memo_bytes +=
          shard.memo.size() * (sizeof(uint64_t) + sizeof(double));
    }
  }
  obs::ReportArenaBytes("simcache", memo_bytes);
}

double SimCache::MemoizedMeasure(size_t spec_index, uint32_t old_vid,
                                 uint32_t new_vid, std::string_view a,
                                 std::string_view b) const {
  const SpecCache& cache = spec_caches_[spec_index];
  TGLINK_DCHECK(cache.enabled);
  const uint64_t key = (static_cast<uint64_t>(old_vid) << 32) | new_vid;
  Shard& shard = cache.shards[ShardIndex(key)];
  {
    ReaderMutexLock read(shard.mu);
    const auto it = shard.memo.find(key);
    if (it != shard.memo.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      TGLINK_COUNTER_INC("simcache.hits");
      return it->second;
    }
  }
  const AttributeSpec& spec = fn_.specs()[spec_index];
  const double s = ComputeMeasure(spec.measure, a, b);
  TGLINK_DCHECK(s >= 0.0 && s <= 1.0)
      << "measure " << MeasureName(spec.measure) << " on "
      << FieldName(spec.field) << " returned " << s;
  {
    WriterMutexLock write(shard.mu);
    shard.memo.emplace(key, s);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  TGLINK_COUNTER_INC("simcache.misses");
  return s;
}

double SimCache::Aggregate(RecordId old_id, RecordId new_id) const {
  TGLINK_COUNTER_INC("similarity.agg_calls");
  if (use_batch_) return batch_.Aggregate(old_id, new_id, fallback_);
  return ScalarAggregate(old_id, new_id);
}

double SimCache::AggregateWithThreshold(RecordId old_id, RecordId new_id,
                                        double min_sim) const {
  TGLINK_COUNTER_INC("similarity.agg_calls");
  if (!use_batch_) return ScalarAggregate(old_id, new_id);
  return batch_.AggregateWithThreshold(old_id, new_id, min_sim, fallback_);
}

void SimCache::AggregateRowsWithThreshold(std::span<const CandidatePair> pairs,
                                          double min_sim,
                                          std::span<double> out) const {
  TGLINK_COUNTER_ADD("similarity.agg_calls", pairs.size());
  if (use_batch_) {
    batch_.AggregateRowsWithThreshold(pairs, min_sim, out, fallback_);
    return;
  }
  TGLINK_CHECK(out.size() == pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    out[k] = ScalarAggregate(pairs[k].old_id, pairs[k].new_id);
  }
}

double SimCache::ScalarAggregate(RecordId old_id, RecordId new_id) const {
  const PersonRecord& a = old_dataset_.record(old_id);
  const PersonRecord& b = new_dataset_.record(new_id);
  return fn_.AggregateWith([this, old_id, new_id, &a, &b](
                               size_t i, bool* missing_one,
                               bool* missing_both) {
    const AttributeSpec& spec = fn_.specs()[i];
    if (!spec_caches_[i].enabled) {
      return fn_.ComponentSimilarity(spec, a, b, missing_one, missing_both);
    }
    // Mirror ComponentSimilarity's missing-value protocol exactly; the
    // memo only ever holds both-present measure results.
    const bool ma = IsFieldMissing(a, spec.field);
    const bool mb = IsFieldMissing(b, spec.field);
    *missing_both = ma && mb;
    *missing_one = (ma || mb) && !*missing_both;
    if (ma || mb) return 0.0;
    // The arena views hold the same bytes GetFieldValue returns, without
    // re-materializing the strings per pair.
    const uint32_t va = batch_.OldValueId(i, old_id);
    const uint32_t vb = batch_.NewValueId(i, new_id);
    return MemoizedMeasure(i, va, vb, batch_.ValueRef(i, va).view(),
                           batch_.ValueRef(i, vb).view());
  });
}

}  // namespace tglink
