// Allocation-free bigram Dice kernels over precomputed gram profiles.
//
// The linkage functions (Ω1, Ω2, the residual function) compare names,
// address and occupation with bigram Dice and sex with exact agreement.
// SimTables (sim_tables.h) builds each interned value's sorted packed gram
// profile once; the kernels here score Dice from two such profiles, or from
// a multiset intersection a GramPostings walk accumulated, with the same
// expression as qgram.cc, so they return the scalar measure's exact double
// and do no heap work per pair. Every other measure has one implementation,
// its scalar one, which SimBatch calls on the arena views.
//
// The scalar measure remains the reference oracle; see
// tests/similarity_kernel_property_test.cc.

#ifndef TGLINK_SIMILARITY_BATCH_KERNELS_H_
#define TGLINK_SIMILARITY_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace tglink {
namespace simkernel {

/// Offset+length view into a contiguous arena (half the size of a
/// std::string_view so per-value tables stay cache-dense).
struct StringRef {
  const char* data = nullptr;
  uint32_t len = 0;

  [[nodiscard]] std::string_view view() const { return {data, len}; }
};

/// Dice coefficient from two precomputed sorted gram profiles (see
/// BuildPaddedGramProfile) via a branchless sorted merge. Both profiles
/// must be non-empty (padded profiles always are).
[[nodiscard]] double DiceProfileKernel(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb);

/// Dice from a multiset intersection size and the two profile sizes: the
/// expression of qgram.cc, 2|A∩B| / (|A|+|B|), shared by DiceProfileKernel
/// and the GramPostings callers so both give the same bits.
[[nodiscard]] inline double DiceFromCommon(size_t common, size_t na,
                                           size_t nb) {
  return 2.0 * static_cast<double>(common) / static_cast<double>(na + nb);
}

/// Gram postings over a table of sorted gram profiles, for scoring one
/// value against many. Per value: its distinct grams with their counts.
/// Per gram: the posted values holding it, with their counts, in value
/// order. Accumulate(va, common) walks the postings of va's grams once and
/// adds min(count in va, count in vb) into common[vb] — the multiset
/// intersection a sorted merge of the two profiles counts — for every
/// posted vb at once, so DiceFromCommon(common[vb], |A|, |B|) equals
/// DiceProfileKernel(A, B) bit for bit. Counts are 32-bit, like the
/// profile offsets, so no value's gram count can overflow them.
class GramPostings {
 public:
  GramPostings() = default;

  /// Value v's sorted profile is data[starts[v], starts[v+1]); only values
  /// with posted[v] appear in the postings (are counted into `common`),
  /// every value can be walked.
  GramPostings(std::span<const uint32_t> data,
               std::span<const uint32_t> starts,
               const std::vector<bool>& posted);

  /// Posting entries Accumulate(va) walks: the sum over va's distinct
  /// grams of their posting list lengths.
  [[nodiscard]] uint32_t WalkCost(uint32_t va) const {
    return walk_cost_[va];
  }

  /// common[vb] += |grams(va) ∩ grams(vb)| for every posted vb sharing a
  /// gram with va; `common` holds one entry per value.
  void Accumulate(uint32_t va, uint32_t* common) const;

  /// Zeroes every entry Accumulate(va, common) touched.
  void Clear(uint32_t va, uint32_t* common) const;

  /// Logical size in bytes (element counts, not capacities).
  [[nodiscard]] uint64_t LogicalBytes() const;

 private:
  /// A gram index with its count in a value, or a posted value id with
  /// its count of one gram.
  struct Entry {
    uint32_t id;
    uint32_t count;
  };

  std::vector<uint32_t> value_starts_;  // per value, size values + 1
  std::vector<Entry> value_grams_;      // (gram index, count)
  std::vector<uint32_t> posting_starts_;  // per gram, size grams + 1
  std::vector<Entry> postings_;           // (posted value id, count)
  std::vector<uint32_t> walk_cost_;       // per value
};

// ---------------------------------------------------------------------------
// Precomputed per-string profiles.

/// Appends the sorted, packed padded bigram profile of `s` (big-endian
/// byte packing, one uint32_t per bigram) to `*out`. The multiset of codes
/// corresponds 1:1 to QGrams(s, {2, padded=true}), so sorted-merge
/// intersection counts are identical to the scalar string-gram counts.
/// Appends without reserving, so building many profiles into one arena
/// keeps the vector's geometric growth.
void BuildPaddedGramProfile(std::string_view s, std::vector<uint32_t>* out);

}  // namespace simkernel
}  // namespace tglink

#endif  // TGLINK_SIMILARITY_BATCH_KERNELS_H_
