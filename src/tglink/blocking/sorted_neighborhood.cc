#include "tglink/blocking/sorted_neighborhood.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"

namespace tglink {

BlockKeyFn SurnameFirstNameSortKey() {
  return [](const PersonRecord& r) -> std::string {
    if (r.surname.empty() && r.first_name.empty()) return "";
    return r.surname + " " + r.first_name;
  };
}

SortedNeighborhoodConfig SortedNeighborhoodConfig::MakeDefault() {
  SortedNeighborhoodConfig config;
  config.key = SurnameFirstNameSortKey();
  return config;
}

std::vector<CandidatePair> SortedNeighborhoodPairs(
    const CensusDataset& old_dataset, const std::vector<RecordId>& old_ids,
    const CensusDataset& new_dataset, const std::vector<RecordId>& new_ids,
    const SortedNeighborhoodConfig& config) {
  struct Entry {
    std::string key;
    RecordId id;
    bool is_old;
  };
  std::vector<Entry> entries;
  entries.reserve(old_ids.size() + new_ids.size());
  for (RecordId r : old_ids) {
    std::string key = config.key(old_dataset.record(r));
    if (!key.empty()) entries.push_back({std::move(key), r, true});
  }
  for (RecordId r : new_ids) {
    std::string key = config.key(new_dataset.record(r));
    if (!key.empty()) entries.push_back({std::move(key), r, false});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.is_old != b.is_old) return a.is_old;
              return a.id < b.id;
            });

  std::vector<uint64_t> pair_keys;
  const size_t w = std::max<size_t>(2, config.window);
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size() && j < i + w; ++j) {
      if (entries[i].is_old == entries[j].is_old) continue;
      const RecordId o = entries[i].is_old ? entries[i].id : entries[j].id;
      const RecordId n = entries[i].is_old ? entries[j].id : entries[i].id;
      pair_keys.push_back((static_cast<uint64_t>(o) << 32) | n);
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

std::vector<CandidatePair> SortedNeighborhoodPairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const SortedNeighborhoodConfig& config) {
  TGLINK_TRACE_SPAN("blocking.sorted_neighborhood");
  const auto all_ids = [](const CensusDataset& dataset) {
    std::vector<RecordId> ids(dataset.num_records());
    std::iota(ids.begin(), ids.end(), RecordId{0});
    return ids;
  };
  std::vector<CandidatePair> pairs =
      SortedNeighborhoodPairs(old_dataset, all_ids(old_dataset), new_dataset,
                              all_ids(new_dataset), config);
  TGLINK_COUNTER_ADD("blocking.snm_candidate_pairs", pairs.size());
  return pairs;
}

std::vector<CandidatePair> UnionCandidatePairs(
    const std::vector<CandidatePair>& a, const std::vector<CandidatePair>& b) {
  std::vector<uint64_t> keys;
  keys.reserve(a.size() + b.size());
  for (const CandidatePair& p : a) {
    keys.push_back((static_cast<uint64_t>(p.old_id) << 32) | p.new_id);
  }
  for (const CandidatePair& p : b) {
    keys.push_back((static_cast<uint64_t>(p.old_id) << 32) | p.new_id);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<CandidatePair> out;
  out.reserve(keys.size());
  for (uint64_t key : keys) {
    out.push_back({static_cast<RecordId>(key >> 32),
                   static_cast<RecordId>(key & 0xFFFFFFFFu)});
  }
  return out;
}

}  // namespace tglink
