// Multi-pass hash blocking: the brute-force oracle the candidate index is
// checked against. Each pass buckets both snapshots by key (an empty key
// leaves the record out of the pass); every (old, new) pair sharing a
// bucket in some pass is a candidate. A bucket holding more than
// `max_block_size` records, both sides summed, is skipped (0 = no cap) —
// the same condition under which the index prunes a key.

#ifndef TGLINK_TESTS_HASH_BLOCKING_H_
#define TGLINK_TESTS_HASH_BLOCKING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"

namespace tglink {
namespace testing_oracle {

/// Hash blocking's candidates over `passes`, deduplicated and sorted by
/// (old_id, new_id).
inline std::vector<CandidatePair> HashBlockingPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const std::vector<BlockKeyFn>& passes, size_t max_block_size = 0) {
  struct Block {
    std::vector<RecordId> old_ids;
    std::vector<RecordId> new_ids;
  };
  std::vector<uint64_t> pair_keys;
  for (const BlockKeyFn& pass : passes) {
    std::map<std::string, Block> blocks;
    for (RecordId r = 0; r < old_dataset.num_records(); ++r) {
      std::string key = pass(old_dataset.record(r));
      if (!key.empty()) blocks[std::move(key)].old_ids.push_back(r);
    }
    for (RecordId r = 0; r < new_dataset.num_records(); ++r) {
      std::string key = pass(new_dataset.record(r));
      if (!key.empty()) blocks[std::move(key)].new_ids.push_back(r);
    }
    for (const auto& [key, block] : blocks) {
      if (max_block_size > 0 &&
          block.old_ids.size() + block.new_ids.size() > max_block_size) {
        continue;
      }
      for (RecordId o : block.old_ids) {
        for (RecordId n : block.new_ids) {
          pair_keys.push_back((static_cast<uint64_t>(o) << 32) | n);
        }
      }
    }
  }
  std::sort(pair_keys.begin(), pair_keys.end());
  pair_keys.erase(std::unique(pair_keys.begin(), pair_keys.end()),
                  pair_keys.end());
  std::vector<CandidatePair> pairs;
  pairs.reserve(pair_keys.size());
  for (uint64_t key : pair_keys) {
    pairs.push_back({static_cast<RecordId>(key >> 32),
                     static_cast<RecordId>(key & 0xFFFFFFFFu)});
  }
  return pairs;
}

}  // namespace testing_oracle
}  // namespace tglink

#endif  // TGLINK_TESTS_HASH_BLOCKING_H_
