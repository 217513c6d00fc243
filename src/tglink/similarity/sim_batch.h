// SimBatch — the similarity scorer behind every Eq. 3 aggregate of the
// pipeline (pre-matching Ω2, the residual passes, the collective baseline).
//
// A SimBatch is a thin plan of one SimilarityFunction over SimTables
// (sim_tables.h): the interned values of both snapshots per field, with the
// bigram profiles and postings its Dice components read. The plan maps
// each component to one of four evaluations — the temporal age measure,
// interned-id equality for kExact, the allocation-free bigram Dice kernels
// (batch_kernels.h) for kQGramDice, and ComputeMeasure on the two arena
// views for every other measure — and evaluates whole-pair aggregates.
// The paper's functions (Ω1, Ω2, the residual function) use only Dice,
// exact agreement and age, so only those have a batched path; a measure
// gets one when a configuration uses it and a profile shows its scalar
// cost. Several plans can share one set of tables through a shared_ptr;
// LinkCensusPair builds the tables once per census pair and plans Ω2 and
// the residual function over them. The three-argument constructor builds
// tables for its function alone. Aggregation runs through SimilarityFunction::AggregateWith — the
// same arithmetic as the scalar path — so Aggregate(o, n) is bit-identical
// to fn.AggregateSimilarity(old.record(o), new.record(n)).
//
// Every entry point first loads the old record's side of each component
// once — value id, missing flag, arena view, bigram-profile span, and the
// memo key and this thread's memo row — and then reads only the new
// record's side per pair. Aggregate and AggregateWithThreshold are rows of
// one.
//
// One evaluator scores a pair of a loaded row, in one pass: the O(1)
// components (missing flags, age, exact id, equal Dice value ids, Dice
// from an accumulator), then the Dice merge through the value-pair memo
// and ComputeMeasure for the other measures, aggregated by AggregateWith
// in spec order. The threshold entry points compare that exact aggregate
// with min_sim, so they return kPruned exactly when it is below min_sim;
// callers that keep pairs with sim >= min_sim keep exactly the pairs whose
// exact aggregate reaches it.
//
// Row scorer (AggregateRowsWithThreshold): scores a span of candidates
// sorted by (old, new) — the order blocking emits — reloading the old side
// only where the old id changes, so a span may start or end mid-row. The
// output equals AggregateWithThreshold pair for pair. "simkernel.screened"
// is added once per call, by the span length; callers that histogram the
// results tally them per chunk (see PreMatcher).
//
// Dice from gram postings: each bigram table of SimTables carries
// simkernel::GramPostings over its new-side values. Consecutive old
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
// (profile merges run). The single-pair entry points keep the merge.
//
// Every measure but Dice and exact agreement (trigram Dice, the edit and
// Jaro families, Soundex, Monge-Elkan, double metaphone, Smith-Waterman,
// LCS) calls ComputeMeasure on the two arena views, unmemoized.
//
// Value-pair memo (Dice only): a Dice component consults a per-thread
// direct-mapped table per spec index, indexed by the new value id, before
// merging profiles. A slot holds the exact Dice value for one (batch
// generation, old value id) key, so a hit changes no result; the
// generation is unique per plan and process, so neither another plan over
// the same tables nor a batch built at a destroyed batch's address ever
// sees its entries. Candidates sorted by old record make the memo pay:
// household members are adjacent and share surname, address and often
// occupation. Every entry point adds "simkernel.memo_lookups" (Dice values
// looked up) and "simkernel.memo_hits" (found there) once per call.
//
// Thread safety: construction is single-threaded; every scoring entry
// point is lock-free over immutable tables (plus thread-local row state,
// memo and Dice accumulators) and safe to call concurrently from pool
// workers.

#ifndef TGLINK_SIMILARITY_SIM_BATCH_H_
#define TGLINK_SIMILARITY_SIM_BATCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tglink/blocking/blocking.h"
#include "tglink/census/dataset.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/composite.h"
#include "tglink/similarity/sim_tables.h"

namespace tglink {

class SimBatch {
 public:
  /// "Below min_sim" answer of the threshold entry points; real aggregates
  /// are in [0, 1].
  static constexpr double kPruned = -1.0;

  /// A plan for `fn` over `tables`, which must hold every field and bigram
  /// profile `fn` reads (build them with fn among their functions). Builds
  /// nothing; `fn` must outlive the plan, which shares the tables.
  SimBatch(const SimilarityFunction& fn,
           std::shared_ptr<const SimTables> tables);

  /// A plan for `fn` over tables built for `fn` alone. All arguments must
  /// outlive the batch.
  SimBatch(const SimilarityFunction& fn, const CensusDataset& old_dataset,
           const CensusDataset& new_dataset);

  SimBatch(const SimBatch&) = delete;
  SimBatch& operator=(const SimBatch&) = delete;

  /// Exact aggregate; bit-identical to
  /// fn.AggregateSimilarity(old.record(o), new.record(n)). Each entry point
  /// counts "similarity.agg_calls" once per pair.
  [[nodiscard]] double Aggregate(RecordId old_id, RecordId new_id) const;

  /// Exact aggregate if it reaches min_sim, else kPruned. With min_sim <= 0
  /// every aggregate reaches it (identical to Aggregate).
  [[nodiscard]] double AggregateWithThreshold(RecordId old_id,
                                              RecordId new_id,
                                              double min_sim) const;

  /// out[k] = AggregateWithThreshold(pairs[k], min_sim) for every k, with
  /// the old record's side loaded once per run of equal old ids (any order
  /// is correct; (old, new) order is the fast one). out.size() must equal
  /// pairs.size().
  void AggregateRowsWithThreshold(std::span<const CandidatePair> pairs,
                                  double min_sim,
                                  std::span<double> out) const;

  [[nodiscard]] const SimilarityFunction& fn() const { return fn_; }
  [[nodiscard]] const CensusDataset& old_dataset() const {
    return old_dataset_;
  }
  [[nodiscard]] const CensusDataset& new_dataset() const {
    return new_dataset_;
  }

  /// Total distinct values interned across the tables (tests, benches).
  [[nodiscard]] size_t num_interned_values() const {
    return tables_->num_interned_values();
  }

 private:
  /// How one component of fn.specs() is evaluated.
  enum class Plan : uint8_t {
    kAge,         // TemporalAgeSimilarity on record ints
    kExactId,     // interned-id equality
    kBigramDice,  // precomputed padded bigram profiles
    kFallback,    // every other measure: ComputeMeasure on the arena views
  };

  using FieldTable = SimTables::FieldTable;
  using GramSpan = SimTables::GramSpan;

  struct SpecPlan {
    Plan plan = Plan::kFallback;
    const FieldTable* table = nullptr;  // null for age components
  };

  /// One spec's side of a row's old record, and the per-thread row state
  /// holding them with the current call's counts (both defined in
  /// sim_batch.cc).
  struct OldSide;
  struct RowScratch;

  /// This thread's row state, sized to the specs, bound to this batch's
  /// memo rows and with zeroed counts; valid until the next call on this
  /// thread.
  RowScratch& BindRowScratch() const;

  /// Loads the old side of every spec for pairs with old record `old_id`.
  void LoadOldRecord(RecordId old_id, RowScratch* row) const;

  /// Component `spec_index` of the pair (row's old record, new_id) as far
  /// as O(1) work goes: sets the new value id and ComponentSimilarity's
  /// missing flags, and returns 0 for a missing component, the exact value
  /// of an age or exact-id component, of a Dice component with equal value
  /// ids or an accumulator, and kNeedsKernel (sim_batch.cc) otherwise.
  [[nodiscard]] double O1Value(size_t spec_index, const RowScratch& row,
                               RecordId new_id, const PersonRecord& rb,
                               uint32_t* vb, bool* missing_one,
                               bool* missing_both) const;

  /// The exact aggregate of (row's old record, new_id), in one pass.
  [[nodiscard]] double ExactInRow(RowScratch* row, RecordId new_id) const;

  /// Exact value of a component O1Value left to a kernel, for the row's old
  /// record and new value `vb` (Dice through the value-pair memo, every
  /// other measure by ComputeMeasure). Counts memo lookups, hits and Dice
  /// merges in `row`.
  [[nodiscard]] double PresentValue(size_t spec_index, RowScratch* row,
                                    uint32_t vb) const;

  /// Row scorer, on loading an old record whose `rest` of the span starts
  /// with its first pair: gives each Dice spec whose old value starts a
  /// new run an accumulator or the merge (see DiceSource).
  void ChooseDiceSources(std::span<const CandidatePair> rest,
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
  const std::shared_ptr<const SimTables> tables_;
  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  // Names this plan in the per-thread value-pair memo; unique per process.
  const uint64_t generation_;
  std::vector<SpecPlan> plans_;  // parallel to fn.specs()
};

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_SIM_BATCH_H_
