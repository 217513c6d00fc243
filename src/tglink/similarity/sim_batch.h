// SimBatch — the similarity scorer behind every Eq. 3 aggregate of the
// pipeline (pre-matching Ω2, the residual passes, the collective baseline).
//
// Per field referenced by a SimilarityFunction, SimBatch interns the values
// of both snapshots into a contiguous arena (offset+length StringRef views,
// cached lengths and first chars, precomputed padded q-gram profiles and
// packed Soundex signatures), then evaluates whole-pair aggregate
// similarities by dispatching each component to an allocation-free kernel
// (batch_kernels.h) that reads those flat tables. Aggregation runs through
// SimilarityFunction::AggregateWith — the same arithmetic as the scalar
// path — so Aggregate(o, n) is bit-identical to
// fn.AggregateSimilarity(old.record(o), new.record(n)).
//
// Every entry point first loads the old record's side of each component
// once — value id, missing flag, arena view, gram-profile span, Soundex
// code, and the memo key and this thread's memo row — and then reads only
// the new record's side per pair. Aggregate and AggregateWithThreshold are
// rows of one.
//
// Two evaluators score a pair of a loaded row, with the same answer: the
// exact aggregate if it reaches min_sim, else kPruned.
//
// One-pass (Aggregate, and rows where most pairs are kept): the O(1)
// components (missing flags, age, exact id, Soundex, equal value ids) and
// then the string kernels through the value-pair memo, aggregated by
// AggregateWith in spec order; a result below min_sim becomes kPruned.
//
// Pruned (AggregateWithThreshold, and rows where most pairs fall below
// min_sim): phase one evaluates the missing pattern — which fixes the Eq. 3
// denominator and the coverage floor ("simkernel.pruned_by_coverage") —
// the O(1) component values, and O(1) upper bounds for the rest (length
// difference, gram-profile counts). If even the optimistic aggregate
// cannot reach min_sim, the pair is rejected without touching a string
// ("simkernel.pruned_by_length" / "simkernel.pruned_by_profile"). Phase
// two evaluates the rest component by component with a running cutoff —
// the minimum value component i must reach given the exact sum so far and
// the bounds of the remaining components — passed down as each kernel's
// min_sim, so a kernel can still bail in O(1), and the pair is dropped
// once the sum cannot recover ("simkernel.pruned_by_cutoff"). Every
// rejection is sound: the result is kPruned exactly when the exact
// aggregate is < min_sim (the property tests pin this), so callers that
// keep pairs with sim >= min_sim keep exactly the pairs whose exact
// aggregate reaches it. The bookkeeping costs more than the kernels it
// skips when most pairs are kept.
//
// Row scorer (AggregateRowsWithThreshold): scores a span of candidates
// sorted by (old, new) — the order blocking emits — reloading the old side
// only where the old id changes, so a span may start or end mid-row. Each
// row uses the one-pass evaluator if all its components are O(1) (below)
// or at least half of the previous row's pairs reached min_sim, else the
// pruned one (a span's first row counts as favouring pruning):
// pre-matching at δ_low keeps about 91% of its candidates, the global
// residual pass far fewer. The output equals AggregateWithThreshold pair
// for pair. "simkernel.screened" is added once per call, by the span
// length; callers that histogram the results tally them per chunk (see
// PreMatcher).
//
// Dice from gram postings: at construction each Dice table also gets
// simkernel::GramPostings — per value its distinct (gram, count) list,
// per gram the new-side values holding it with their counts, and per
// value the walk cost Σ|postings(g)| over its grams. Consecutive old
// records share surname, address and occupation, so a run of candidates
// often shares one old value va. For such a run the row scorer walks va's
// postings once into this thread's accumulator, common[vb] += min(count in
// va, count in vb) — the multiset intersection the merge counts — and the
// component becomes O(1): DiceFromCommon(common[vb], |A|, |B|), the
// kernel's exact expression. Run rule: where a Dice spec's old value
// changes, the scorer scans ahead over the pairs sharing va and builds the
// accumulator only when merging them, about Σ(|A| + |B|) steps, would cost
// more than the walk; short runs (sparse residual rows, first names) keep
// the merge and the memo. The rule reads only the input, so it has no
// knob. An accumulator is keyed by (batch generation, spec index, va), as
// the memo is, so it is reused across spans and never crosses batches;
// the next build for the spec in the same batch first zeroes it by walking
// the previous value's postings again (a new batch zero-fills it). The
// gain needs such runs; an input whose candidates rarely share an old
// value pays for the postings and the scan-ahead and keeps the merge.
// Per call the scorer adds "simkernel.dice_acc_builds",
// "simkernel.dice_postings_walked" and "simkernel.dice_row_merges"
// (profile merges run); construction adds
// the postings' logical bytes to "simkernel.posting_bytes", outside the
// gated "simbatch" arena. The single-pair entry points keep the merge.
//
// Measures without a batched kernel (Monge-Elkan, double-metaphone,
// Smith-Waterman, LCS) call ComputeMeasure on the two arena views,
// unmemoized, and never prune.
//
// Value-pair memo: the string-kernel plans (Dice, edit and Jaro family —
// not exact, Soundex, age or fallback) consult a per-thread direct-mapped
// table per spec index, indexed by the new value id, before running the
// kernel. A slot holds the exact kernel result for one (batch generation,
// old value id) key; the generation is unique per process, so a batch
// built at a destroyed batch's address never sees its entries. Only exact
// results are stored, never kBelowMinSim, and a hit is an exact value, so
// pruning stays sound and every result is unchanged. Candidates sorted by
// old record make the memo pay: household members are adjacent and share
// surname, address and often occupation.
//
// Thread safety: construction is single-threaded; every scoring entry
// point is lock-free over immutable tables (plus thread-local row state,
// memo and Dice accumulators) and safe to call concurrently from pool
// workers.

#ifndef TGLINK_SIMILARITY_SIM_BATCH_H_
#define TGLINK_SIMILARITY_SIM_BATCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/composite.h"

namespace tglink {

class SimBatch {
 public:
  /// "Provably below min_sim" sentinel returned by AggregateWithThreshold;
  /// real aggregates are in [0, 1].
  static constexpr double kPruned = simkernel::kBelowMinSim;

  /// Interns every string field referenced by `fn` over both datasets and
  /// precomputes the per-value signatures the kernels need. All arguments
  /// must outlive the batch.
  SimBatch(const SimilarityFunction& fn, const CensusDataset& old_dataset,
           const CensusDataset& new_dataset);

  SimBatch(const SimBatch&) = delete;
  SimBatch& operator=(const SimBatch&) = delete;

  /// Exact aggregate; bit-identical to
  /// fn.AggregateSimilarity(old.record(o), new.record(n)). Each entry point
  /// counts "similarity.agg_calls" once per pair.
  [[nodiscard]] double Aggregate(RecordId old_id, RecordId new_id) const;

  /// Exact aggregate if it reaches min_sim, else kPruned (proved by the
  /// bounds as early as possible). min_sim <= 0 disables pruning
  /// (identical to Aggregate).
  [[nodiscard]] double AggregateWithThreshold(RecordId old_id,
                                              RecordId new_id,
                                              double min_sim) const;

  /// out[k] = AggregateWithThreshold(pairs[k], min_sim) for every k, each
  /// pair evaluated exactly in one pass, with the old record's side loaded
  /// once per run of equal old ids (any order is correct; (old, new) order
  /// is the fast one). out.size() must equal pairs.size().
  void AggregateRowsWithThreshold(std::span<const CandidatePair> pairs,
                                  double min_sim,
                                  std::span<double> out) const;

  [[nodiscard]] const SimilarityFunction& fn() const { return fn_; }

  // -- Substrate introspection (tests, benches) ----------------------------

  /// Total distinct values interned across all field tables.
  [[nodiscard]] size_t num_interned_values() const;

 private:
  /// How one component of fn.specs() is evaluated.
  enum class Plan : uint8_t {
    kAge,          // TemporalAgeSimilarity on record ints
    kExactId,      // interned-id equality
    kBigramDice,   // precomputed padded bigram profiles
    kTrigramDice,  // precomputed padded trigram profiles
    kLevenshtein,
    kDamerau,
    kJaro,
    kJaroWinkler,
    kSoundex,    // packed precomputed Soundex codes
    kFallback,   // no batched kernel: ComputeMeasure on the arena views
  };

  struct SpecPlan {
    Plan plan = Plan::kFallback;
    int table = -1;  // index into tables_; -1 for age components
  };

  /// A value's sorted packed gram profile.
  struct GramSpan {
    const uint32_t* data = nullptr;
    uint32_t size = 0;
  };

  /// One field's interned values over both snapshots: a contiguous arena
  /// plus flat per-value signature arrays.
  struct FieldTable {
    std::string arena;
    std::vector<uint32_t> offsets;  // per value id, size num_values()+1
    std::vector<uint32_t> old_ids;  // per old record
    std::vector<uint32_t> new_ids;  // per new record
    // Sorted packed gram profiles, concatenated; gramN_starts has
    // num_values()+1 entries. Built only when a spec on this field needs
    // them; same for soundex_codes.
    std::vector<uint32_t> gram2_data;
    std::vector<uint32_t> gram2_starts;
    std::vector<uint32_t> gram3_data;
    std::vector<uint32_t> gram3_starts;
    std::vector<uint64_t> soundex_codes;
    // Postings over the new-side values, built with each gram profile.
    simkernel::GramPostings gram2_postings;
    simkernel::GramPostings gram3_postings;

    [[nodiscard]] size_t num_values() const { return offsets.size() - 1; }
    [[nodiscard]] simkernel::StringRef Ref(uint32_t vid) const {
      return {arena.data() + offsets[vid], offsets[vid + 1] - offsets[vid]};
    }
    /// Missing ⟺ empty holds for every non-age field (sex renders
    /// kUnknown as ""), so the arena length doubles as the missing flag.
    [[nodiscard]] bool Missing(uint32_t vid) const {
      return offsets[vid + 1] == offsets[vid];
    }
    /// Gram profile of a value for a kBigramDice or kTrigramDice plan.
    [[nodiscard]] GramSpan Profile(Plan plan, uint32_t vid) const {
      const bool bigram = plan == Plan::kBigramDice;
      const std::vector<uint32_t>& data = bigram ? gram2_data : gram3_data;
      const std::vector<uint32_t>& starts =
          bigram ? gram2_starts : gram3_starts;
      return {data.data() + starts[vid], starts[vid + 1] - starts[vid]};
    }
    [[nodiscard]] const simkernel::GramPostings& Postings(Plan plan) const {
      return plan == Plan::kBigramDice ? gram2_postings : gram3_postings;
    }
  };

  /// One spec's side of a row's old record, and the per-thread row state
  /// holding them with the current pair's per-spec evaluation (both
  /// defined in sim_batch.cc).
  struct OldSide;
  struct RowScratch;

  int BuildFieldTable(Field field);

  /// This thread's row state, sized to the specs and bound to this batch's
  /// memo rows; valid until the next call on this thread.
  RowScratch& BindRowScratch() const;

  /// Loads the old side of every spec for pairs with old record `old_id`.
  void LoadOldRecord(RecordId old_id, RowScratch* row) const;

  /// Component `spec_index` of the pair (row's old record, new_id) as far
  /// as O(1) work goes: sets the new value id and ComponentSimilarity's
  /// missing flags, and returns 0 for a missing component, the exact value
  /// of an age, exact-id or Soundex component or of a string component
  /// with equal value ids, and kNeedsKernel (sim_batch.cc) otherwise.
  [[nodiscard]] double O1Value(size_t spec_index, const RowScratch& row,
                               RecordId new_id, const PersonRecord& rb,
                               uint32_t* vb, bool* missing_one,
                               bool* missing_both) const;

  /// The exact aggregate of (row's old record, new_id), in one pass.
  [[nodiscard]] double ExactInRow(RowScratch* row, RecordId new_id) const;

  /// The exact aggregate of (row's old record, new_id) if it reaches
  /// min_sim > 0, else kPruned — early, as soon as the bounds prove it.
  [[nodiscard]] double PrunedInRow(RowScratch* row, RecordId new_id,
                                   double min_sim) const;

  /// O(1) upper bound on a component O1Value left to a kernel (1 for the
  /// fallback); *len_ub gets the bound with gram-profile counts relaxed to
  /// 1, which tells the length and profile prune counters apart.
  [[nodiscard]] double UpperBound(size_t spec_index, const OldSide& a,
                                  uint32_t vb, double* len_ub) const;

  /// Exact value of a component O1Value left to a kernel, for the row's old
  /// record and new value `vb` (string kernels through the value-pair
  /// memo), or kBelowMinSim when kernel_min > 0 proves it below. Counts
  /// the Dice merges it runs in side->merges.
  [[nodiscard]] double PresentValue(size_t spec_index, OldSide* side,
                                    uint32_t vb, double kernel_min) const;

  /// Row scorer, on loading an old record whose `rest` of the span starts
  /// with its first pair: gives each Dice spec whose old value starts a
  /// new run an accumulator or the merge (see DiceSource). True when every
  /// component of the row is then O(1).
  [[nodiscard]] bool ChooseDiceSources(std::span<const CandidatePair> rest,
                                       RowScratch* row) const;

  /// This thread's accumulator for Dice spec `spec_index` and old value
  /// a.va — reused if it already holds that value, else built when the
  /// run of pairs in `rest` sharing a.va costs more to merge than to walk
  /// — or null to merge the run.
  [[nodiscard]] const uint32_t* DiceSource(size_t spec_index,
                                           const OldSide& a,
                                           std::span<const CandidatePair> rest,
                                           RowScratch* row) const;

  const SimilarityFunction& fn_;
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  // Names this batch in the per-thread value-pair memo; unique per process.
  const uint64_t generation_;
  double weight_total_ = 0.0;  // sum of the spec weights, in spec order
  std::vector<FieldTable> tables_;
  std::vector<SpecPlan> plans_;  // parallel to fn.specs()
  int field_table_[6] = {-1, -1, -1, -1, -1, -1};  // Field -> tables_ index
};

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_SIM_BATCH_H_
