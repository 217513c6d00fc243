#include "tglink/similarity/sim_batch.h"

#include <algorithm>
#include <atomic>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/similarity/numeric.h"
#include "tglink/similarity/phonetic.h"
#include "tglink/util/logging.h"

namespace tglink {

namespace {

/// Source of SimBatch generations. A new batch can reuse a destroyed
/// batch's address, so memo entries name their batch by generation, which
/// is never reused; 0 marks an empty slot.
std::atomic<uint64_t> g_next_generation{1};

/// O1Value's answer for a present component whose value needs a kernel or
/// ComputeMeasure; real values are in [0, 1].
constexpr double kNeedsKernel = -2.0;

/// OldSide::run_va before a span's first Dice choice. Never a value id:
/// 2^32 - 1 distinct values would overflow the uint32 arena offsets.
constexpr uint32_t kNoRun = UINT32_MAX;

/// One slot of a value-pair memo: the exact kernel value of (old value
/// id, the slot's new value id) under one batch generation.
struct MemoSlot {
  uint64_t key = 0;  // (generation << 32) | old value id; 0 = empty
  double value = 0.0;
};

// The per-thread value-pair memo of the string-kernel plans: per spec
// index, a direct-mapped table indexed by the new value id.
//
// Concurrency contract: the memo (like the row state in BindRowScratch) is
// thread-owned, never shared — each pool worker mutates only its own copy,
// so no capability annotation applies (thread_local IS the discipline).
// The batch tables it caches are frozen after single-threaded
// construction; any future mutable sharing here must move behind an
// annotated lock from util/thread_annotations.h.
std::vector<std::vector<MemoSlot>>& ThreadValuePairMemo() {
  thread_local std::vector<std::vector<MemoSlot>> memo;
  return memo;
}

/// One Dice spec's accumulator: common[vb] = |grams(va) ∩ grams(vb)| for
/// every new-side value vb, valid for old value `va` of the batch named by
/// `generation` (0 = none). Thread-owned, like the memo; one per spec
/// index, so a spec's next build first zeroes the previous value's entries.
struct DiceAccumulator {
  uint64_t generation = 0;
  uint32_t va = 0;
  std::vector<uint32_t> common;
};

std::vector<DiceAccumulator>& ThreadDiceAccumulators() {
  thread_local std::vector<DiceAccumulator> accumulators;
  return accumulators;
}

/// What one scoring call did, added to the counters once at its end.
struct CallTally {
  uint64_t builds = 0;        // Dice accumulators built
  uint64_t walked = 0;        // posting entries they walked
  uint64_t merges = 0;        // Dice profile merges run
  uint64_t memo_lookups = 0;  // string-kernel values looked up in the memo
  uint64_t memo_hits = 0;     // ... and found there
};

void AddMemoCounters(const CallTally& tally) {
  TGLINK_COUNTER_ADD("simkernel.memo_lookups", tally.memo_lookups);
  TGLINK_COUNTER_ADD("simkernel.memo_hits", tally.memo_hits);
}

}  // namespace

struct SimBatch::OldSide {
  uint32_t va = 0;  // value id (table specs)
  bool missing = false;
  simkernel::StringRef ref;  // the value (table specs)
  GramSpan grams;            // Dice plans
  uint64_t soundex = 0;      // kSoundex
  // String-kernel plans: this thread's memo row for the spec and the key a
  // slot holds when it caches (this batch, va, the slot's new value id).
  MemoSlot* memo = nullptr;
  uint64_t memo_key = 0;
  // Dice plans in the row scorer: this thread's accumulator for va, or
  // null where the run of pairs sharing va is merged pair by pair; and the
  // value whose run that choice covers (kNoRun before the first).
  const uint32_t* common = nullptr;
  uint32_t run_va = kNoRun;
};

struct SimBatch::RowScratch {
  const PersonRecord* old_record = nullptr;
  std::vector<OldSide> old_side;  // per spec
  CallTally tally;                // of the current call
};

SimBatch::SimBatch(const SimilarityFunction& fn,
                   const CensusDataset& old_dataset,
                   const CensusDataset& new_dataset)
    : fn_(fn),
      old_dataset_(old_dataset),
      new_dataset_(new_dataset),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {
  TGLINK_CHECK(generation_ <= UINT32_MAX)
      << "SimBatch generation " << generation_ << " overflows the memo key";
  TGLINK_TRACE_SPAN("simkernel.build_batch");
  TGLINK_MEM_STAGE("simkernel.build_batch");
  const std::vector<AttributeSpec>& specs = fn.specs();
  plans_.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const AttributeSpec& spec = specs[i];
    if (spec.field == Field::kAge) {
      // ComponentSimilarity routes every age-field component to
      // TemporalAgeSimilarity regardless of the configured measure.
      plans_[i] = {Plan::kAge, -1};
      continue;
    }
    Plan plan = Plan::kFallback;
    switch (spec.measure) {
      case Measure::kExact:
        plan = Plan::kExactId;
        break;
      case Measure::kQGramDice:
        plan = Plan::kBigramDice;
        break;
      case Measure::kTrigramDice:
        plan = Plan::kTrigramDice;
        break;
      case Measure::kLevenshtein:
        plan = Plan::kLevenshtein;
        break;
      case Measure::kDamerau:
        plan = Plan::kDamerau;
        break;
      case Measure::kJaro:
        plan = Plan::kJaro;
        break;
      case Measure::kJaroWinkler:
        plan = Plan::kJaroWinkler;
        break;
      case Measure::kSoundexEqual:
        plan = Plan::kSoundex;
        break;
      case Measure::kMongeElkan:
      case Measure::kDoubleMetaphone:
      case Measure::kSmithWaterman:
      case Measure::kLcsSubstring:
        plan = Plan::kFallback;
        break;
    }
    plans_[i] = {plan, BuildFieldTable(spec.field)};
  }
  // Build the per-value signatures each table actually needs (a field can
  // be referenced by several specs with different measures).
  for (size_t i = 0; i < specs.size(); ++i) {
    const SpecPlan& plan = plans_[i];
    if (plan.table < 0) continue;
    FieldTable& table = tables_[plan.table];
    const size_t n = table.num_values();
    // One exact reserve per profile arena (a value of length l has l + q - 1
    // padded grams), so the arena is allocated once and carries no growth
    // slack for the batch's lifetime.
    const auto build_profiles = [&table, n](int q, std::vector<uint32_t>* data,
                                            std::vector<uint32_t>* starts) {
      size_t grams = 0;
      for (uint32_t vid = 0; vid < n; ++vid) {
        grams += table.Ref(vid).len + static_cast<size_t>(q - 1);
      }
      data->reserve(grams);
      starts->reserve(n + 1);
      starts->push_back(0);
      for (uint32_t vid = 0; vid < n; ++vid) {
        simkernel::BuildPaddedGramProfile(table.Ref(vid).view(), q, data);
        starts->push_back(static_cast<uint32_t>(data->size()));
      }
    };
    // Postings list only new-side values: the row scorer walks them for an
    // old value against the new values of its candidates.
    const auto build_postings = [&table, n](const std::vector<uint32_t>& data,
                                            const std::vector<uint32_t>& starts,
                                            simkernel::GramPostings* out) {
      std::vector<bool> new_side(n, false);
      for (const uint32_t vid : table.new_ids) new_side[vid] = true;
      *out = simkernel::GramPostings(data, starts, new_side);
    };
    if (plan.plan == Plan::kBigramDice && table.gram2_starts.empty()) {
      build_profiles(2, &table.gram2_data, &table.gram2_starts);
      build_postings(table.gram2_data, table.gram2_starts,
                     &table.gram2_postings);
    }
    if (plan.plan == Plan::kTrigramDice && table.gram3_starts.empty()) {
      build_profiles(3, &table.gram3_data, &table.gram3_starts);
      build_postings(table.gram3_data, table.gram3_starts,
                     &table.gram3_postings);
    }
    if (plan.plan == Plan::kSoundex && table.soundex_codes.empty()) {
      table.soundex_codes.reserve(n);
      for (uint32_t vid = 0; vid < n; ++vid) {
        table.soundex_codes.push_back(
            simkernel::PackPhoneticCode(Soundex(table.Ref(vid).view())));
      }
    }
  }
  // Logical sizes (element counts, not capacities) so the figure is a pure
  // function of the inputs and bench_diff.py can gate it exactly. The
  // postings are a counter, not part of the gated arena.
  uint64_t arena_bytes = 0;
  uint64_t posting_bytes = 0;
  for (const FieldTable& table : tables_) {
    posting_bytes += table.gram2_postings.LogicalBytes();
    posting_bytes += table.gram3_postings.LogicalBytes();
    arena_bytes += table.arena.size();
    arena_bytes += table.offsets.size() * sizeof(uint32_t);
    arena_bytes += table.old_ids.size() * sizeof(uint32_t);
    arena_bytes += table.new_ids.size() * sizeof(uint32_t);
    arena_bytes += table.gram2_data.size() * sizeof(uint32_t);
    arena_bytes += table.gram2_starts.size() * sizeof(uint32_t);
    arena_bytes += table.gram3_data.size() * sizeof(uint32_t);
    arena_bytes += table.gram3_starts.size() * sizeof(uint32_t);
    arena_bytes += table.soundex_codes.size() * sizeof(uint64_t);
  }
  obs::ReportArenaBytes("simbatch", arena_bytes);
  TGLINK_COUNTER_ADD("simkernel.posting_bytes", posting_bytes);
}

int SimBatch::BuildFieldTable(Field field) {
  int& index = field_table_[static_cast<size_t>(field)];
  if (index >= 0) return index;
  index = static_cast<int>(tables_.size());
  tables_.emplace_back();
  FieldTable& table = tables_.back();
  table.offsets.push_back(0);
  std::unordered_map<std::string, uint32_t> interner;
  const auto intern = [&](const PersonRecord& record) {
    const auto [it, inserted] = interner.emplace(
        GetFieldValue(record, field), static_cast<uint32_t>(interner.size()));
    if (inserted) {
      table.arena.append(it->first);
      table.offsets.push_back(static_cast<uint32_t>(table.arena.size()));
    }
    return it->second;
  };
  table.old_ids.reserve(old_dataset_.num_records());
  for (const PersonRecord& record : old_dataset_.records()) {
    table.old_ids.push_back(intern(record));
  }
  table.new_ids.reserve(new_dataset_.num_records());
  for (const PersonRecord& record : new_dataset_.records()) {
    table.new_ids.push_back(intern(record));
  }
  TGLINK_COUNTER_ADD("simcache.interned_values", interner.size());
  return index;
}

size_t SimBatch::num_interned_values() const {
  size_t total = 0;
  for (const FieldTable& table : tables_) total += table.num_values();
  return total;
}

SimBatch::RowScratch& SimBatch::BindRowScratch() const {
  thread_local RowScratch row;
  const size_t n = plans_.size();
  row.old_record = nullptr;
  row.old_side.resize(n);
  row.tally = {};
  std::vector<std::vector<MemoSlot>>& memo = ThreadValuePairMemo();
  if (memo.size() < n) memo.resize(n);
  for (size_t i = 0; i < n; ++i) {
    OldSide& side = row.old_side[i];
    side.common = nullptr;  // single pairs always merge
    side.run_va = kNoRun;
    MemoSlot*& slots = side.memo;
    slots = nullptr;
    switch (plans_[i].plan) {
      case Plan::kAge:
      case Plan::kExactId:
      case Plan::kSoundex:
      case Plan::kFallback:
        continue;  // O(1) or ComputeMeasure: no value-pair memo
      case Plan::kBigramDice:
      case Plan::kTrigramDice:
      case Plan::kLevenshtein:
      case Plan::kDamerau:
      case Plan::kJaro:
      case Plan::kJaroWinkler:
        break;
    }
    const size_t values = tables_[plans_[i].table].num_values();
    if (memo[i].size() < values) memo[i].resize(values);
    slots = memo[i].data();
  }
  return row;
}

void SimBatch::LoadOldRecord(RecordId old_id, RowScratch* row) const {
  const PersonRecord& record = old_dataset_.record(old_id);
  row->old_record = &record;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const SpecPlan& plan = plans_[i];
    OldSide& side = row->old_side[i];
    if (plan.table < 0) {
      side.missing = !record.has_age();
      continue;
    }
    const FieldTable& t = tables_[plan.table];
    side.va = t.old_ids[old_id];
    side.missing = t.Missing(side.va);
    side.ref = t.Ref(side.va);
    side.memo_key = (generation_ << 32) | side.va;
    if (plan.plan == Plan::kBigramDice || plan.plan == Plan::kTrigramDice) {
      side.grams = t.Profile(plan.plan, side.va);
    } else if (plan.plan == Plan::kSoundex) {
      side.soundex = t.soundex_codes[side.va];
    }
  }
}

double SimBatch::O1Value(size_t spec_index, const RowScratch& row,
                         RecordId new_id, const PersonRecord& rb,
                         uint32_t* vb, bool* missing_one,
                         bool* missing_both) const {
  const SpecPlan& plan = plans_[spec_index];
  const OldSide& a = row.old_side[spec_index];
  const FieldTable* t = nullptr;
  bool mb = false;
  if (plan.table < 0) {
    mb = !rb.has_age();
  } else {
    t = &tables_[plan.table];
    *vb = t->new_ids[new_id];
    mb = t->Missing(*vb);
  }
  // ComponentSimilarity's missing-value protocol, verbatim.
  *missing_both = a.missing && mb;
  *missing_one = (a.missing || mb) && !*missing_both;
  if (a.missing || mb) return 0.0;
  switch (plan.plan) {
    case Plan::kAge:
      return TemporalAgeSimilarity(row.old_record->age, rb.age,
                                   fn_.year_gap(), fn_.age_tolerance());
    case Plan::kExactId:
      return a.va == *vb ? 1.0 : 0.0;
    case Plan::kSoundex:
      return a.soundex == t->soundex_codes[*vb] ? 1.0 : 0.0;
    case Plan::kBigramDice:
    case Plan::kTrigramDice:
      if (a.va == *vb) return 1.0;
      if (a.common != nullptr) {
        return simkernel::DiceFromCommon(a.common[*vb], a.grams.size,
                                         t->Profile(plan.plan, *vb).size);
      }
      break;
    case Plan::kLevenshtein:
    case Plan::kDamerau:
    case Plan::kJaro:
    case Plan::kJaroWinkler:
      // Every string kernel scores a value against itself as 1.
      if (a.va == *vb) return 1.0;
      break;
    case Plan::kFallback:
      break;
  }
  return kNeedsKernel;
}

double SimBatch::ExactInRow(RowScratch* row, RecordId new_id) const {
  const PersonRecord& rb = new_dataset_.record(new_id);
  return fn_.AggregateWith([&](size_t i, bool* missing_one,
                               bool* missing_both) -> double {
    uint32_t vb = 0;
    double s = O1Value(i, *row, new_id, rb, &vb, missing_one, missing_both);
    if (s == kNeedsKernel) {
      s = PresentValue(i, row, vb);
      TGLINK_DCHECK(s >= 0.0 && s <= 1.0)
          << "batched measure " << MeasureName(fn_.specs()[i].measure)
          << " on " << FieldName(fn_.specs()[i].field) << " returned " << s;
    }
    return s;
  });
}

double SimBatch::PresentValue(size_t spec_index, RowScratch* row,
                              uint32_t vb) const {
  const OldSide& a = row->old_side[spec_index];
  const SpecPlan& plan = plans_[spec_index];
  const FieldTable& t = tables_[plan.table];
  if (plan.plan == Plan::kFallback) {
    // The arena views hold the bytes GetFieldValue returns, so this is
    // ComponentSimilarity's value for a present pair.
    return ComputeMeasure(fn_.specs()[spec_index].measure, a.ref.view(),
                          t.Ref(vb).view());
  }
  ++row->tally.memo_lookups;
  MemoSlot& slot = a.memo[vb];
  if (slot.key == a.memo_key) {
    ++row->tally.memo_hits;
    return slot.value;
  }
  double s = 0.0;
  switch (plan.plan) {
    case Plan::kBigramDice:
    case Plan::kTrigramDice: {
      const GramSpan b = t.Profile(plan.plan, vb);
      s = simkernel::DiceProfileKernel(a.grams.data, a.grams.size, b.data,
                                       b.size);
      ++row->tally.merges;
      break;
    }
    case Plan::kLevenshtein:
      s = simkernel::LevenshteinKernel(a.ref, t.Ref(vb));
      break;
    case Plan::kDamerau:
      s = simkernel::DamerauKernel(a.ref, t.Ref(vb));
      break;
    case Plan::kJaro:
      s = simkernel::JaroKernel(a.ref, t.Ref(vb));
      break;
    case Plan::kJaroWinkler:
      s = simkernel::JaroWinklerKernel(a.ref, t.Ref(vb));
      break;
    case Plan::kAge:
    case Plan::kExactId:
    case Plan::kSoundex:
    case Plan::kFallback:
      TGLINK_DCHECK(false) << "no kernel for this plan";
      break;
  }
  slot = {a.memo_key, s};
  return s;
}

double SimBatch::Aggregate(RecordId old_id, RecordId new_id) const {
  return AggregateWithThreshold(old_id, new_id, 0.0);
}

double SimBatch::AggregateWithThreshold(RecordId old_id, RecordId new_id,
                                        double min_sim) const {
  TGLINK_COUNTER_INC("similarity.agg_calls");
  if (min_sim > 0.0) TGLINK_COUNTER_INC("simkernel.screened");
  RowScratch& row = BindRowScratch();
  LoadOldRecord(old_id, &row);
  const double agg = ExactInRow(&row, new_id);
  AddMemoCounters(row.tally);
  return agg < min_sim ? kPruned : agg;
}

const uint32_t* SimBatch::DiceSource(size_t spec_index, const OldSide& a,
                                     std::span<const CandidatePair> rest,
                                     RowScratch* row) const {
  const Plan plan = plans_[spec_index].plan;
  const FieldTable& t = tables_[plans_[spec_index].table];
  DiceAccumulator& acc = ThreadDiceAccumulators()[spec_index];
  if (acc.generation == generation_ && acc.va == a.va) {
    return acc.common.data();
  }
  // Merging costs about |A| + |B| steps per pair of the run (the pairs
  // from here on whose old value is va); the walk costs WalkCost(va).
  // Scan only as far as it takes to tell which is cheaper.
  const simkernel::GramPostings& postings = t.Postings(plan);
  const uint64_t walk = postings.WalkCost(a.va);
  uint64_t merge = 0;
  for (const CandidatePair& pair : rest) {
    if (merge > walk || t.old_ids[pair.old_id] != a.va) break;
    merge += a.grams.size + t.Profile(plan, t.new_ids[pair.new_id]).size;
  }
  if (merge <= walk) return nullptr;
  // Within one batch, zero only the previous value's entries (walking its
  // postings again); a new batch starts from a zeroed table of its size.
  if (acc.generation == generation_) {
    TGLINK_DCHECK(acc.common.size() == t.num_values())
        << "accumulator sized for another table";
    postings.Clear(acc.va, acc.common.data());
  } else {
    acc.common.assign(t.num_values(), 0);
  }
  postings.Accumulate(a.va, acc.common.data());
  acc.generation = generation_;
  acc.va = a.va;
  ++row->tally.builds;
  row->tally.walked += walk;
  return acc.common.data();
}

void SimBatch::ChooseDiceSources(std::span<const CandidatePair> rest,
                                 RowScratch* row) const {
  for (size_t i = 0; i < plans_.size(); ++i) {
    const Plan plan = plans_[i].plan;
    OldSide& side = row->old_side[i];
    if ((plan != Plan::kBigramDice && plan != Plan::kTrigramDice) ||
        side.run_va == side.va) {
      continue;
    }
    side.common = side.missing ? nullptr : DiceSource(i, side, rest, row);
    side.run_va = side.va;
  }
}

void SimBatch::AggregateRowsWithThreshold(std::span<const CandidatePair> pairs,
                                          double min_sim,
                                          std::span<double> out) const {
  TGLINK_CHECK(out.size() == pairs.size())
      << "row scorer output holds " << out.size() << " values for "
      << pairs.size() << " pairs";
  TGLINK_COUNTER_ADD("similarity.agg_calls", pairs.size());
  if (pairs.empty()) return;
  if (min_sim > 0.0) TGLINK_COUNTER_ADD("simkernel.screened", pairs.size());
  RowScratch& row = BindRowScratch();
  std::vector<DiceAccumulator>& accumulators = ThreadDiceAccumulators();
  if (accumulators.size() < plans_.size()) accumulators.resize(plans_.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (k == 0 || pairs[k].old_id != pairs[k - 1].old_id) {
      LoadOldRecord(pairs[k].old_id, &row);
      ChooseDiceSources(pairs.subspan(k), &row);
    }
    const double agg = ExactInRow(&row, pairs[k].new_id);
    out[k] = agg < min_sim ? kPruned : agg;
  }
  TGLINK_COUNTER_ADD("simkernel.dice_acc_builds", row.tally.builds);
  TGLINK_COUNTER_ADD("simkernel.dice_postings_walked", row.tally.walked);
  TGLINK_COUNTER_ADD("simkernel.dice_row_merges", row.tally.merges);
  AddMemoCounters(row.tally);
}

}  // namespace tglink
