// Allocation-free batched similarity kernels with threshold-aware pruning.
//
// The scalar measures in edit_distance/jaro/qgram are exact but allocate on
// every call (DP rows, matched-flag vectors, q-gram string multisets). The
// kernels here compute the *same doubles* — every arithmetic expression is
// copied from the scalar implementation, and the integer intermediates
// (edit distances, match/transposition counts, gram intersection sizes) are
// provably equal — while reading flat `StringRef` views and reusing
// thread-local scratch buffers, so the pre-matching hot loop does no heap
// work per pair.
//
// Threshold-aware pruning: each kernel takes a `min_sim` cutoff. When an
// O(1) upper bound (length difference for the edit/Jaro family, gram-profile
// counts for Dice) already proves the similarity cannot reach `min_sim`,
// the kernel returns `kBelowMinSim` without running the comparison. The
// bounds are evaluated with a `kPruneMargin` safety margin so floating-point
// rounding can never reject a pair whose true similarity is >= min_sim
// (pruned ⇒ true sim < min_sim, the invariant the property tests pin).
// `min_sim <= 0` disables pruning and the kernels are then total functions,
// bit-identical to their scalar counterparts.
//
// The scalar kernels remain the reference oracle; see
// tests/similarity_kernel_property_test.cc.

#ifndef TGLINK_SIMILARITY_BATCH_KERNELS_H_
#define TGLINK_SIMILARITY_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "tglink/similarity/field_similarity.h"

namespace tglink {
namespace simkernel {

/// Offset+length view into a contiguous arena (half the size of a
/// std::string_view so per-value tables stay cache-dense).
struct StringRef {
  const char* data = nullptr;
  uint32_t len = 0;

  [[nodiscard]] std::string_view view() const { return {data, len}; }
  [[nodiscard]] bool empty() const { return len == 0; }
};

inline StringRef MakeRef(std::string_view s) {
  return {s.data(), static_cast<uint32_t>(s.size())};
}

/// Sentinel for "provably below the min_sim cutoff". Real similarities are
/// always in [0, 1], so the sentinel never collides with a value.
inline constexpr double kBelowMinSim = -1.0;

/// Safety margin for every pruning comparison: a bound only rejects when it
/// is below `min_sim - kPruneMargin`, absorbing the (≤ a few ulps) rounding
/// of the bound arithmetic so pruning is sound, never merely probable.
inline constexpr double kPruneMargin = 1e-9;

// ---------------------------------------------------------------------------
// O(1) upper bounds. Each returns a value >= the corresponding similarity
// as computed by the scalar kernel (in the same floating-point arithmetic,
// so `computed_sim <= bound` holds ulp-for-ulp for the monotone formulas;
// the kPruneMargin above covers the rest).

/// Levenshtein/Damerau: dist >= |la - lb|, so sim <= 1 - |la-lb|/max.
[[nodiscard]] double EditUpperBound(size_t la, size_t lb);

/// Jaro: matches m <= min(la, lb) and the transposition term is <= 1, so
/// jaro <= (2 + min/max) / 3.
[[nodiscard]] double JaroUpperBound(size_t la, size_t lb);

/// Jaro-Winkler with the default 0.1 prefix scale (the only configuration
/// ComputeMeasure uses): jw = j + p*0.1*(1-j) is nondecreasing in both j
/// and p, so plugging in the Jaro bound and p = 4 bounds it.
[[nodiscard]] double JaroWinklerUpperBound(size_t la, size_t lb);

/// Dice over gram profiles of sizes na, nb: |A∩B| <= min(na, nb), so
/// dice <= 2*min/(na+nb).
[[nodiscard]] double DiceUpperBound(size_t na, size_t nb);

// ---------------------------------------------------------------------------
// Kernels. Empty-string conventions mirror ComputeMeasure (both empty -> 1,
// one empty -> 0); for non-empty inputs each returns exactly the scalar
// measure's double, or kBelowMinSim when an O(1) bound (or the banded DP's
// band overflow) proves the result is below min_sim.

/// Myers bit-parallel edit distance when the shorter string fits one 64-bit
/// word ("simkernel.myers_hits"), banded dynamic programming otherwise
/// ("simkernel.fallback_hits"); the band is derived from min_sim.
[[nodiscard]] double LevenshteinKernel(StringRef a, StringRef b,
                                       double min_sim);

/// Optimal-string-alignment distance on thread-local rolling rows (Myers
/// has no transposition term, so Damerau stays a scratch-buffer DP).
[[nodiscard]] double DamerauKernel(StringRef a, StringRef b, double min_sim);

/// Jaro with thread-local matched-flag scratch instead of per-call
/// std::vector<bool>.
[[nodiscard]] double JaroKernel(StringRef a, StringRef b, double min_sim);

/// Jaro-Winkler over JaroKernel with the default 0.1 prefix scale.
[[nodiscard]] double JaroWinklerKernel(StringRef a, StringRef b,
                                       double min_sim);

/// Dice coefficient from two precomputed sorted gram profiles (see
/// BuildPaddedGramProfile) via a branchless sorted merge. Both profiles
/// must be non-empty (padded grams of non-empty strings always are).
[[nodiscard]] double DiceProfileKernel(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb,
                                       double min_sim);

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
/// DiceProfileKernel(A, B, 0) bit for bit. Counts are 32-bit, like the
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
// Precomputed per-string signatures.

/// Appends the sorted, packed padded q-gram profile of `s` (q in {2, 3}:
/// big-endian byte packing, one uint32_t per gram) to `*out`. The multiset
/// of codes corresponds 1:1 to QGrams(s, {q, padded=true}), so sorted-merge
/// intersection counts are identical to the scalar string-gram counts.
/// Appends without reserving, so building many profiles into one arena
/// keeps the vector's geometric growth.
void BuildPaddedGramProfile(std::string_view s, int q,
                            std::vector<uint32_t>* out);

/// Packs a Soundex code (<= 8 chars, never containing NUL) into one
/// uint64_t; equality of packed codes ⟺ equality of the code strings.
[[nodiscard]] uint64_t PackPhoneticCode(std::string_view code);

// ---------------------------------------------------------------------------
// Standalone dispatch for property tests and microbenches: evaluates
// `measure` on two plain strings through the batched kernels (building gram
// profiles in thread-local scratch), with the same result as
// ComputeMeasure(measure, a, b) or kBelowMinSim under pruning. Measures
// without a batched kernel (Monge-Elkan, metaphone, Smith-Waterman, LCS)
// fall through to ComputeMeasure and never prune.
[[nodiscard]] double BatchMeasure(Measure measure, std::string_view a,
                                  std::string_view b, double min_sim);

/// True when `measure` has a batched kernel (and an O(1) upper bound).
[[nodiscard]] bool HasBatchKernel(Measure measure);

}  // namespace simkernel
}  // namespace tglink

#endif  // TGLINK_SIMILARITY_BATCH_KERNELS_H_
