#include "tglink/similarity/sim_tables.h"

#include <unordered_map>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"

namespace tglink {

namespace {

/// Fills `grams` with the padded bigram profile of every value of `table`
/// and the postings of its new-side values. One exact reserve (a value of
/// length l has l + 1 padded bigrams), so the profile arena is allocated
/// once and carries no growth slack for the tables' lifetime.
void BuildGramTable(const SimTables::FieldTable& table,
                    SimTables::GramTable* grams) {
  const size_t n = table.num_values();
  size_t total = 0;
  for (uint32_t vid = 0; vid < n; ++vid) total += table.Ref(vid).len + 1;
  grams->data.reserve(total);
  grams->starts.reserve(n + 1);
  grams->starts.push_back(0);
  for (uint32_t vid = 0; vid < n; ++vid) {
    simkernel::BuildPaddedGramProfile(table.Ref(vid).view(), &grams->data);
    grams->starts.push_back(static_cast<uint32_t>(grams->data.size()));
  }
  std::vector<bool> new_side(n, false);
  for (const uint32_t vid : table.new_ids) new_side[vid] = true;
  grams->postings =
      simkernel::GramPostings(grams->data, grams->starts, new_side);
}

}  // namespace

SimTables::SimTables(std::initializer_list<const SimilarityFunction*> fns,
                     const CensusDataset& old_dataset,
                     const CensusDataset& new_dataset)
    : old_dataset_(old_dataset), new_dataset_(new_dataset) {
  TGLINK_TRACE_SPAN("simkernel.build_batch");
  TGLINK_MEM_STAGE("simkernel.build_batch");
  // Intern every field first: tables_ grows while fields are added, so the
  // profiles are built over a settled vector.
  for (const SimilarityFunction* fn : fns) {
    for (const AttributeSpec& spec : fn->specs()) {
      // ComponentSimilarity routes every age-field component to
      // TemporalAgeSimilarity regardless of the configured measure.
      if (spec.field != Field::kAge) Intern(spec.field);
    }
  }
  for (const SimilarityFunction* fn : fns) {
    for (const AttributeSpec& spec : fn->specs()) {
      if (spec.field == Field::kAge) continue;
      FieldTable& table = Intern(spec.field);  // already interned
      if (spec.measure == Measure::kQGramDice && !table.gram2.built()) {
        BuildGramTable(table, &table.gram2);
      }
    }
  }
  uint64_t arena_bytes = 0;
  uint64_t posting_bytes = 0;
  for (const FieldTable& table : tables_) {
    posting_bytes += table.gram2.postings.LogicalBytes();
    arena_bytes += table.arena.size();
    arena_bytes += table.offsets.size() * sizeof(uint32_t);
    arena_bytes += table.old_ids.size() * sizeof(uint32_t);
    arena_bytes += table.new_ids.size() * sizeof(uint32_t);
    arena_bytes += table.gram2.data.size() * sizeof(uint32_t);
    arena_bytes += table.gram2.starts.size() * sizeof(uint32_t);
  }
  obs::ReportArenaBytes("simbatch", arena_bytes);
  TGLINK_COUNTER_ADD("simkernel.posting_bytes", posting_bytes);
}

SimTables::FieldTable& SimTables::Intern(Field field) {
  int& index = field_table_[static_cast<size_t>(field)];
  if (index >= 0) return tables_[index];
  index = static_cast<int>(tables_.size());
  FieldTable& table = tables_.emplace_back();
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
  return table;
}

size_t SimTables::num_interned_values() const {
  size_t total = 0;
  for (const FieldTable& table : tables_) total += table.num_values();
  return total;
}

}  // namespace tglink
