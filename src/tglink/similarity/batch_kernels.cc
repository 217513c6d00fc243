#include "tglink/similarity/batch_kernels.h"

#include <algorithm>
#include <bit>

#include "tglink/util/logging.h"

namespace tglink {
namespace simkernel {

double DiceProfileKernel(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb) {
  TGLINK_DCHECK(na > 0 && nb > 0) << "Dice profiles must be non-empty";
  // Branchless merge: the order of two profile codes is unpredictable, so
  // each step advances by comparison results instead of branching on them.
  // The steps (and so the count) are those of the three-way merge.
  size_t i = 0, j = 0, common = 0;
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    common += x == y;
    i += x <= y;
    j += y <= x;
  }
  return DiceFromCommon(common, na, nb);
}

GramPostings::GramPostings(std::span<const uint32_t> data,
                           std::span<const uint32_t> starts,
                           const std::vector<bool>& posted) {
  const size_t num_values = starts.empty() ? 0 : starts.size() - 1;
  TGLINK_CHECK(posted.size() == num_values)
      << "posted flags for " << posted.size() << " of " << num_values
      << " values";
  // Gram index = order of first appearance, through a flat open-addressing
  // table of (code, index + 1) slots at most half full.
  struct Slot {
    uint32_t code = 0;
    uint32_t index_plus_one = 0;  // 0 = empty
  };
  const size_t capacity = std::bit_ceil(2 * data.size() + 2);
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<Slot> slots(capacity);
  uint32_t num_grams = 0;
  const auto gram_index = [&](uint32_t code) {
    for (uint64_t h = (code * 0x9E3779B97F4A7C15ull) >> shift;; ++h) {
      Slot& slot = slots[h & (capacity - 1)];
      if (slot.index_plus_one == 0) slot = {code, ++num_grams};
      if (slot.code == code) return slot.index_plus_one - 1;
    }
  };
  // Each profile is sorted, so equal codes are adjacent: one entry per run.
  value_starts_.reserve(num_values + 1);
  value_starts_.push_back(0);
  for (size_t v = 0; v < num_values; ++v) {
    for (uint32_t k = starts[v]; k < starts[v + 1];) {
      uint32_t end = k + 1;
      while (end < starts[v + 1] && data[end] == data[k]) ++end;
      value_grams_.push_back({gram_index(data[k]), end - k});
      k = end;
    }
    value_starts_.push_back(static_cast<uint32_t>(value_grams_.size()));
  }
  // Postings by counting sort over the posted values, filled in value order.
  posting_starts_.assign(num_grams + 1, 0);
  for (size_t v = 0; v < num_values; ++v) {
    if (!posted[v]) continue;
    for (uint32_t k = value_starts_[v]; k < value_starts_[v + 1]; ++k) {
      ++posting_starts_[value_grams_[k].id + 1];
    }
  }
  for (size_t g = 0; g < num_grams; ++g) {
    posting_starts_[g + 1] += posting_starts_[g];
  }
  postings_.resize(posting_starts_.back());
  std::vector<uint32_t> fill(posting_starts_.begin(), posting_starts_.end() - 1);
  for (size_t v = 0; v < num_values; ++v) {
    if (!posted[v]) continue;
    for (uint32_t k = value_starts_[v]; k < value_starts_[v + 1]; ++k) {
      const Entry& gram = value_grams_[k];
      postings_[fill[gram.id]++] = {static_cast<uint32_t>(v), gram.count};
    }
  }
  walk_cost_.resize(num_values);
  for (size_t v = 0; v < num_values; ++v) {
    uint32_t cost = 0;
    for (uint32_t k = value_starts_[v]; k < value_starts_[v + 1]; ++k) {
      const uint32_t g = value_grams_[k].id;
      cost += posting_starts_[g + 1] - posting_starts_[g];
    }
    walk_cost_[v] = cost;
  }
}

void GramPostings::Accumulate(uint32_t va, uint32_t* common) const {
  for (uint32_t k = value_starts_[va]; k < value_starts_[va + 1]; ++k) {
    const Entry gram = value_grams_[k];
    const Entry* p = postings_.data() + posting_starts_[gram.id];
    const Entry* const end = postings_.data() + posting_starts_[gram.id + 1];
    for (; p != end; ++p) common[p->id] += std::min(gram.count, p->count);
  }
}

void GramPostings::Clear(uint32_t va, uint32_t* common) const {
  for (uint32_t k = value_starts_[va]; k < value_starts_[va + 1]; ++k) {
    const uint32_t g = value_grams_[k].id;
    for (uint32_t p = posting_starts_[g]; p < posting_starts_[g + 1]; ++p) {
      common[postings_[p].id] = 0;
    }
  }
}

uint64_t GramPostings::LogicalBytes() const {
  return (value_starts_.size() + posting_starts_.size() + walk_cost_.size()) *
             sizeof(uint32_t) +
         (value_grams_.size() + postings_.size()) * sizeof(Entry);
}

void BuildPaddedGramProfile(std::string_view s, std::vector<uint32_t>* out) {
  // Bigrams of the virtual padded string '#' + s + '$', no
  // materialization: |s| + 1 codes. No reserve here: callers append many
  // profiles to one arena, and an exact-size reserve per profile would
  // defeat geometric growth.
  const size_t start = out->size();
  uint32_t prev = '#';
  for (const char c : s) {
    const uint32_t next = static_cast<unsigned char>(c);
    out->push_back((prev << 8) | next);
    prev = next;
  }
  out->push_back((prev << 8) | '$');
  std::sort(out->begin() + static_cast<ptrdiff_t>(start), out->end());
}

}  // namespace simkernel
}  // namespace tglink
