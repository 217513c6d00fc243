#include "tglink/blocking/blocking.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "tglink/blocking/candidate_index.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/logging.h"

namespace tglink {

BlockingConfig BlockingConfig::MakeDefault() {
  BlockingConfig config;
  config.mode = Mode::kMultiPass;
  config.passes = {SoundexSurnameFirstInitial(),
                   SoundexFirstNameSurnameInitial(), SoundexFirstNameSex()};
  return config;
}

BlockingConfig BlockingConfig::MakeExhaustive() {
  BlockingConfig config;
  config.mode = Mode::kExhaustive;
  return config;
}

BlockingConfig BlockingConfig::MakeInvertedIndex() {
  BlockingConfig config = MakeDefault();
  config.mode = Mode::kInvertedIndex;
  return config;
}

namespace {

struct Block {
  std::vector<RecordId> old_ids;
  std::vector<RecordId> new_ids;
};

void RunPass(const CensusDataset& old_dataset, const CensusDataset& new_dataset,
             const BlockKeyFn& key_fn, size_t max_block_size,
             std::vector<uint64_t>* pair_keys) {
  std::unordered_map<std::string, Block> blocks;
  for (RecordId r = 0; r < old_dataset.num_records(); ++r) {
    std::string key = key_fn(old_dataset.record(r));
    if (!key.empty()) blocks[std::move(key)].old_ids.push_back(r);
  }
  for (RecordId r = 0; r < new_dataset.num_records(); ++r) {
    std::string key = key_fn(new_dataset.record(r));
    if (!key.empty()) blocks[std::move(key)].new_ids.push_back(r);
  }
  // Emits into pair_keys, which the caller sorts and dedups before any
  // output-facing use; the histogram/counter updates commute.
  // tglink-lint: nondeterministic-iteration-ok(pair_keys sorted downstream)
  for (const auto& [key, block] : blocks) {
    TGLINK_HISTOGRAM_SIZE("blocking.block_size",
                          block.old_ids.size() + block.new_ids.size());
    if (max_block_size > 0 &&
        block.old_ids.size() + block.new_ids.size() > max_block_size) {
      TGLINK_COUNTER_INC("blocking.oversize_blocks_skipped");
      continue;
    }
    for (RecordId o : block.old_ids) {
      for (RecordId n : block.new_ids) {
        pair_keys->push_back((static_cast<uint64_t>(o) << 32) | n);
      }
    }
  }
}

/// Hash or exhaustive blocking's candidates, deduplicated and sorted by
/// (old_id, new_id).
std::vector<CandidatePair> ListPairs(const CensusDataset& old_dataset,
                                     const CensusDataset& new_dataset,
                                     const BlockingConfig& config) {
  std::vector<uint64_t> pair_keys;
  if (config.mode == BlockingConfig::Mode::kExhaustive) {
    pair_keys.reserve(old_dataset.num_records() * new_dataset.num_records());
    for (RecordId o = 0; o < old_dataset.num_records(); ++o) {
      for (RecordId n = 0; n < new_dataset.num_records(); ++n) {
        pair_keys.push_back((static_cast<uint64_t>(o) << 32) | n);
      }
    }
  } else {
    for (const BlockKeyFn& pass : config.passes) {
      RunPass(old_dataset, new_dataset, pass, config.max_block_size,
              &pair_keys);
    }
    std::sort(pair_keys.begin(), pair_keys.end());
    pair_keys.erase(std::unique(pair_keys.begin(), pair_keys.end()),
                    pair_keys.end());
  }
  std::vector<CandidatePair> pairs;
  pairs.reserve(pair_keys.size());
  for (uint64_t key : pair_keys) {
    pairs.push_back({static_cast<RecordId>(key >> 32),
                     static_cast<RecordId>(key & 0xFFFFFFFFu)});
  }
  return pairs;
}

// Candidate-pair reduction: cross_product_pairs / candidate_pairs is the
// reduction ratio blocking buys over the paper's exhaustive comparison.
void CountCrossProduct(const CensusDataset& old_dataset,
                       const CensusDataset& new_dataset) {
  TGLINK_COUNTER_ADD("blocking.cross_product_pairs",
                     static_cast<uint64_t>(old_dataset.num_records()) *
                         new_dataset.num_records());
}

}  // namespace

CandidateBatches::CandidateBatches(const CensusDataset& old_dataset,
                                   const CensusDataset& new_dataset,
                                   const BlockingConfig& config) {
  TGLINK_TRACE_SPAN("blocking.generate_candidates");
  TGLINK_MEM_STAGE("blocking.generate_candidates");
  const size_t num_old = old_dataset.num_records();
  if (config.mode == BlockingConfig::Mode::kInvertedIndex) {
    const CandidateIndexConfig index_config =
        CandidateIndexConfig::FromBlocking(config);
    batch_records_ = std::max<size_t>(1, index_config.batch_records);
    index_ = std::make_unique<const CandidateIndex>(old_dataset, new_dataset,
                                                    index_config);
    num_batches_ = index_->num_shards();
  } else {
    whole_ = ListPairs(old_dataset, new_dataset, config);
    TGLINK_COUNTER_ADD("blocking.candidate_pairs", whole_.size());
    batch_records_ = std::max<size_t>(1, num_old);
    num_batches_ = num_old > 0 ? 1 : 0;
  }
  CountCrossProduct(old_dataset, new_dataset);
}

CandidateBatches::~CandidateBatches() = default;

std::vector<CandidatePair> CandidateBatches::Take(size_t b) {
  TGLINK_CHECK(b < num_batches_)
      << "candidate batch " << b << " of " << num_batches_;
  if (index_ == nullptr) return std::move(whole_);
  std::vector<CandidatePair> pairs = index_->ShardPairs(b);
  TGLINK_COUNTER_ADD("blocking.candidate_pairs", pairs.size());
  return pairs;
}

std::vector<CandidatePair> GenerateCandidatePairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const BlockingConfig& config) {
  TGLINK_TRACE_SPAN("blocking.generate_candidates");
  TGLINK_MEM_STAGE("blocking.generate_candidates");
  std::vector<CandidatePair> pairs =
      config.mode == BlockingConfig::Mode::kInvertedIndex
          ? CandidateIndex(old_dataset, new_dataset,
                           CandidateIndexConfig::FromBlocking(config))
                .GeneratePairs()
          : ListPairs(old_dataset, new_dataset, config);
  CountCrossProduct(old_dataset, new_dataset);
  TGLINK_COUNTER_ADD("blocking.candidate_pairs", pairs.size());
  return pairs;
}

}  // namespace tglink
