#include "tglink/blocking/candidate_index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "tglink/blocking/sorted_neighborhood.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/logging.h"
#include "tglink/util/parallel.h"

namespace tglink {

std::vector<RecordId> GallopingIntersect(const std::vector<RecordId>& a,
                                         const std::vector<RecordId>& b) {
  TGLINK_DCHECK(std::is_sorted(a.begin(), a.end()))
      << "GallopingIntersect: left posting list not ascending";
  TGLINK_DCHECK(std::is_sorted(b.begin(), b.end()))
      << "GallopingIntersect: right posting list not ascending";
  // Probe from the shorter list into the longer one: double the step until
  // overshooting, then binary-search the bracketed range.
  const std::vector<RecordId>& small = a.size() <= b.size() ? a : b;
  const std::vector<RecordId>& large = a.size() <= b.size() ? b : a;
  std::vector<RecordId> out;
  out.reserve(small.size());
  size_t lo = 0;
  for (RecordId id : small) {
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < id) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    const auto first = large.begin() + static_cast<ptrdiff_t>(lo);
    const auto last =
        large.begin() + static_cast<ptrdiff_t>(std::min(hi + 1, large.size()));
    const auto it = std::lower_bound(first, last, id);
    lo = static_cast<size_t>(it - large.begin());
    if (lo < large.size() && large[lo] == id) out.push_back(id);
  }
  return out;
}

std::vector<RecordId> UnionSortedPostings(
    const std::vector<const std::vector<RecordId>*>& lists) {
  std::vector<RecordId> out;
  for (const std::vector<RecordId>* list : lists) {
    TGLINK_DCHECK(list != nullptr) << "UnionSortedPostings: null list";
    TGLINK_DCHECK(std::is_sorted(list->begin(), list->end()))
        << "UnionSortedPostings: posting list not ascending";
    out.insert(out.end(), list->begin(), list->end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

CandidateIndex::CandidateIndex(const CensusDataset& old_dataset,
                               const CensusDataset& new_dataset,
                               BlockingConfig config)
    : config_(std::move(config)),
      old_dataset_(old_dataset),
      new_dataset_(new_dataset) {
  TGLINK_TRACE_SPAN("candindex.build");
  TGLINK_MEM_STAGE("candindex.build");
  config_.batch_records = std::max<size_t>(1, config_.batch_records);
  const size_t num_old = old_dataset_.num_records();
  const size_t num_new = new_dataset_.num_records();
  TGLINK_COUNTER_ADD("blocking.cross_product_pairs",
                     static_cast<uint64_t>(num_old) * num_new);
  old_record_tokens_.resize(num_old);

  std::vector<uint32_t> old_posting_len;  // per token, old-side list length
  // Token interning is per pass: a key string produced by two different
  // passes is two distinct tokens, exactly as hash blocking treats each
  // pass's block space independently.
  for (const BlockKeyFn& pass : config_.passes) {
    std::unordered_map<std::string, uint32_t> intern;
    // Key computation dominates build cost (soundex + string assembly per
    // record); it is pure per record, so fan it out over the pool.
    std::vector<std::string> old_keys = ParallelMap<std::string>(
        num_old, "candindex.keys",
        [&](size_t r) { return pass(old_dataset_.record(RecordId(r))); });
    std::vector<std::string> new_keys = ParallelMap<std::string>(
        num_new, "candindex.keys",
        [&](size_t r) { return pass(new_dataset_.record(RecordId(r))); });
    for (RecordId r = 0; r < num_old; ++r) {
      std::string& key = old_keys[r];
      if (key.empty()) continue;
      const auto [it, inserted] = intern.try_emplace(
          std::move(key), static_cast<uint32_t>(new_postings_.size()));
      if (inserted) {
        new_postings_.emplace_back();
        old_posting_len.push_back(0);
      }
      old_record_tokens_[r].push_back(it->second);
      ++old_posting_len[it->second];
    }
    for (RecordId r = 0; r < num_new; ++r) {
      std::string& key = new_keys[r];
      if (key.empty()) continue;
      const auto [it, inserted] = intern.try_emplace(
          std::move(key), static_cast<uint32_t>(new_postings_.size()));
      if (inserted) {
        new_postings_.emplace_back();
        old_posting_len.push_back(0);
      }
      new_postings_[it->second].push_back(r);
    }
  }
  token_count_ = new_postings_.size();
  for (size_t t = 0; t < token_count_; ++t) {
    posting_count_ += old_posting_len[t] + new_postings_[t].size();
  }

  // A record may produce the same token through two passes (e.g. identical
  // first name and surname); emission must see each token once.
  for (std::vector<uint32_t>& tokens : old_record_tokens_) {
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  }

  // Records that carried a pruned token, per side (ascending ids).
  std::vector<RecordId> fallback_old;
  std::vector<RecordId> fallback_new;
  if (config_.max_posting_len > 0) {
    std::vector<bool> pruned(token_count_, false);
    std::vector<bool> fb_new(num_new, false);
    for (size_t t = 0; t < token_count_; ++t) {
      if (old_posting_len[t] + new_postings_[t].size() >
          config_.max_posting_len) {
        pruned[t] = true;
        ++pruned_tokens_;
        for (RecordId r : new_postings_[t]) fb_new[r] = true;
        new_postings_[t].clear();
        new_postings_[t].shrink_to_fit();
      }
    }
    if (pruned_tokens_ > 0) {
      for (RecordId r = 0; r < num_old; ++r) {
        std::vector<uint32_t>& tokens = old_record_tokens_[r];
        const auto dead = std::remove_if(
            tokens.begin(), tokens.end(),
            [&](uint32_t t) { return pruned[t]; });
        if (dead != tokens.end()) {
          tokens.erase(dead, tokens.end());
          fallback_old.push_back(r);
        }
      }
      for (RecordId r = 0; r < num_new; ++r) {
        if (fb_new[r]) fallback_new.push_back(r);
      }
    }
  }
  TGLINK_COUNTER_ADD("candindex.postings", posting_count_);
  TGLINK_COUNTER_ADD("candindex.pruned_keys", pruned_tokens_);

  // Logical posting/token footprint (element counts, not capacities) so the
  // figure is deterministic and bench_diff.py can gate it exactly.
  uint64_t index_bytes = 0;
  for (const std::vector<RecordId>& posting : new_postings_) {
    index_bytes += posting.size() * sizeof(RecordId);
  }
  for (const std::vector<uint32_t>& tokens : old_record_tokens_) {
    index_bytes += tokens.size() * sizeof(uint32_t);
  }
  index_bytes += fallback_old.size() * sizeof(RecordId);
  index_bytes += fallback_new.size() * sizeof(RecordId);
  obs::ReportArenaBytes("candindex", index_bytes);
  if (config_.fallback_window > 0) {
    // The recall net for pairs that lived exclusively in pruned blocks.
    SortedNeighborhoodConfig snm = SortedNeighborhoodConfig::MakeDefault();
    snm.window = config_.fallback_window;
    fallback_pairs_ = SortedNeighborhoodPairs(old_dataset_, fallback_old,
                                              new_dataset_, fallback_new, snm);
  }
}

void CandidateIndex::AppendPairsForOldRecord(
    RecordId old_id, std::vector<RecordId>* scratch,
    std::vector<CandidatePair>* out) const {
  const std::vector<uint32_t>& tokens = old_record_tokens_[old_id];
  if (tokens.empty()) return;
  const size_t min_shared = std::max<size_t>(1, config_.min_shared_passes);
  if (min_shared > 1 && tokens.size() < min_shared) return;
  if (min_shared == 1) {
    // The emission hot path. Posting lists are sorted, so the union is a
    // k-pointer merge emitting straight into `out` — O(total postings),
    // no per-record sort, no scratch buffer. With the default three passes
    // k <= 3.
    constexpr size_t kMaxMergeLists = 8;
    if (tokens.size() == 1) {
      for (RecordId n : new_postings_[tokens[0]]) out->push_back({old_id, n});
      return;
    }
    if (tokens.size() <= kMaxMergeLists) {
      const std::vector<RecordId>* lists[kMaxMergeLists];
      size_t idx[kMaxMergeLists];
      const size_t k = tokens.size();
      for (size_t i = 0; i < k; ++i) {
        lists[i] = &new_postings_[tokens[i]];
        idx[i] = 0;
      }
      for (;;) {
        constexpr RecordId kDone = std::numeric_limits<RecordId>::max();
        RecordId min_id = kDone;
        for (size_t i = 0; i < k; ++i) {
          if (idx[i] < lists[i]->size() && (*lists[i])[idx[i]] < min_id) {
            min_id = (*lists[i])[idx[i]];
          }
        }
        if (min_id == kDone) break;
        out->push_back({old_id, min_id});
        for (size_t i = 0; i < k; ++i) {
          if (idx[i] < lists[i]->size() && (*lists[i])[idx[i]] == min_id) {
            ++idx[i];
          }
        }
      }
      return;
    }
  }
  scratch->clear();
  if (min_shared == 2 && tokens.size() == 2) {
    // The common conjunctive case: one galloping intersection, no sort.
    *scratch = GallopingIntersect(new_postings_[tokens[0]],
                                  new_postings_[tokens[1]]);
  } else {
    for (uint32_t t : tokens) {
      const std::vector<RecordId>& posting = new_postings_[t];
      scratch->insert(scratch->end(), posting.begin(), posting.end());
    }
    std::sort(scratch->begin(), scratch->end());
    if (min_shared == 1) {
      scratch->erase(std::unique(scratch->begin(), scratch->end()),
                     scratch->end());
    } else {
      // Keep ids occurring in >= min_shared distinct posting lists (tokens
      // are distinct per record, so run length == shared-token count).
      size_t kept = 0;
      for (size_t i = 0; i < scratch->size();) {
        size_t j = i;
        while (j < scratch->size() && (*scratch)[j] == (*scratch)[i]) ++j;
        if (j - i >= min_shared) (*scratch)[kept++] = (*scratch)[i];
        i = j;
      }
      scratch->resize(kept);
    }
  }
  for (RecordId n : *scratch) out->push_back({old_id, n});
}

size_t CandidateIndex::num_shards() const {
  const size_t batch = config_.batch_records;
  return (old_dataset_.num_records() + batch - 1) / batch;
}

// Concurrency contract: shards share no mutable state — each call builds
// its own output and reads the posting lists and fallback pairs, which are
// frozen after single-threaded construction. There is deliberately no lock
// here; determinism comes from the callers' ordered merge of shards,
// statically checked by the lint's nondeterministic-iteration rule (the
// interner map above is lookup-only, never iterated).
std::vector<CandidatePair> CandidateIndex::ShardPairs(size_t shard) const {
  const size_t batch = config_.batch_records;
  const size_t begin = shard * batch;
  const size_t end = std::min(old_dataset_.num_records(), begin + batch);
  std::vector<CandidatePair> pairs;
  std::vector<RecordId> scratch;
  for (size_t r = begin; r < end; ++r) {
    AppendPairsForOldRecord(static_cast<RecordId>(r), &scratch, &pairs);
  }
  // Fold in the fallback pairs of this shard's old records. Both inputs are
  // sorted and duplicate-free, so their union is too.
  const auto by_old = [](const CandidatePair& p, size_t old_id) {
    return p.old_id < old_id;
  };
  const auto fb_begin = std::lower_bound(
      fallback_pairs_.begin(), fallback_pairs_.end(), begin, by_old);
  const auto fb_end =
      std::lower_bound(fb_begin, fallback_pairs_.end(), end, by_old);
  if (fb_begin != fb_end) {
    std::vector<CandidatePair> merged;
    merged.reserve(pairs.size() + static_cast<size_t>(fb_end - fb_begin));
    std::set_union(pairs.begin(), pairs.end(), fb_begin, fb_end,
                   std::back_inserter(merged),
                   [](const CandidatePair& a, const CandidatePair& b) {
                     return a.old_id != b.old_id ? a.old_id < b.old_id
                                                 : a.new_id < b.new_id;
                   });
    pairs = std::move(merged);
  }
  TGLINK_COUNTER_ADD("blocking.candidate_pairs", pairs.size());
  return pairs;
}

std::vector<CandidatePair> CandidateIndex::GeneratePairs() const {
  TGLINK_TRACE_SPAN("candindex.emit");
  std::vector<std::vector<CandidatePair>> shards =
      ParallelMap<std::vector<CandidatePair>>(
          num_shards(), "candindex.shard",
          [this](size_t s) { return ShardPairs(s); });
  size_t total = 0;
  for (const std::vector<CandidatePair>& shard : shards) {
    total += shard.size();
  }
  std::vector<CandidatePair> pairs;
  pairs.reserve(total);
  for (const std::vector<CandidatePair>& shard : shards) {
    pairs.insert(pairs.end(), shard.begin(), shard.end());
  }
  return pairs;
}

}  // namespace tglink
