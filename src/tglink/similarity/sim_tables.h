// SimTables — the per-field tables of one census pair, built once and read
// by every similarity function scored over that pair.
//
// Per field referenced by any of the functions it is built for, SimTables
// interns the values of both snapshots into a contiguous arena
// (offset+length StringRef views), maps every record to its value id, and
// builds, for a field some function compares with kQGramDice, the sorted
// packed padded bigram profile of every value with its gram postings. No
// other measure has a per-value signature: exact agreement compares value
// ids and every other measure runs its scalar implementation on the arena
// views. A field has one table whatever measures read it, and its profiles
// are built once however many specs read it.
//
// SimBatch (sim_batch.h) is the evaluator: a thin plan of one
// SimilarityFunction over shared tables. LinkCensusPair builds one
// SimTables for Ω2 and the residual function together and hands it to
// pre-matching and to both residual passes, so a census pair is interned
// and profiled once.
//
// Dice postings: per value its distinct (gram, count) list, per gram the
// new-side values holding it with their counts, and per value the walk
// cost Σ|postings(g)| over its grams (simkernel::GramPostings). They list
// only new-side values, since the row scorer walks them for an old value
// against the new values of its candidates.
//
// Construction runs under the span and memory stage
// "simkernel.build_batch"; it reports the tables' logical size (element
// counts, not capacities, so the figure is a pure function of the inputs)
// as the "simbatch" arena, adds the postings' logical bytes to the
// "simkernel.posting_bytes" counter (outside the gated arena) and the
// interned values to "simcache.interned_values".
//
// Thread safety: construction is single-threaded; the tables are immutable
// afterwards and safe to read from any thread.

#ifndef TGLINK_SIMILARITY_SIM_TABLES_H_
#define TGLINK_SIMILARITY_SIM_TABLES_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "tglink/census/dataset.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/composite.h"

namespace tglink {

class SimTables {
 public:
  /// A value's sorted packed gram profile.
  struct GramSpan {
    const uint32_t* data = nullptr;
    uint32_t size = 0;
  };

  /// The bigram profiles of a field's values, with their postings.
  struct GramTable {
    std::vector<uint32_t> data;    // profiles, concatenated
    std::vector<uint32_t> starts;  // num_values()+1 entries once built
    simkernel::GramPostings postings;

    [[nodiscard]] bool built() const { return !starts.empty(); }
    [[nodiscard]] GramSpan Profile(uint32_t vid) const {
      return {data.data() + starts[vid], starts[vid + 1] - starts[vid]};
    }
  };

  /// One field's interned values over both snapshots: a contiguous arena
  /// plus the values' bigram profiles (unbuilt where no spec reads the
  /// field with kQGramDice).
  struct FieldTable {
    std::string arena;
    std::vector<uint32_t> offsets;  // per value id, size num_values()+1
    std::vector<uint32_t> old_ids;  // per old record
    std::vector<uint32_t> new_ids;  // per new record
    GramTable gram2;                // kQGramDice

    [[nodiscard]] size_t num_values() const { return offsets.size() - 1; }
    [[nodiscard]] simkernel::StringRef Ref(uint32_t vid) const {
      return {arena.data() + offsets[vid], offsets[vid + 1] - offsets[vid]};
    }
    /// Missing ⟺ empty holds for every non-age field (sex renders
    /// kUnknown as ""), so the arena length doubles as the missing flag.
    [[nodiscard]] bool Missing(uint32_t vid) const {
      return offsets[vid + 1] == offsets[vid];
    }
  };

  /// Builds the tables every function of `fns` reads over both datasets.
  /// The datasets must outlive the tables; the functions need not.
  SimTables(std::initializer_list<const SimilarityFunction*> fns,
            const CensusDataset& old_dataset,
            const CensusDataset& new_dataset);

  SimTables(const SimTables&) = delete;
  SimTables& operator=(const SimTables&) = delete;

  [[nodiscard]] const CensusDataset& old_dataset() const {
    return old_dataset_;
  }
  [[nodiscard]] const CensusDataset& new_dataset() const {
    return new_dataset_;
  }

  /// The table of `field`, or null when no function the tables were built
  /// for reads it (kAge never has one).
  [[nodiscard]] const FieldTable* table(Field field) const {
    const int index = field_table_[static_cast<size_t>(field)];
    return index < 0 ? nullptr : &tables_[index];
  }

  /// Total distinct values interned across all field tables.
  [[nodiscard]] size_t num_interned_values() const;

 private:
  /// The table of `field`, interning it on first use.
  FieldTable& Intern(Field field);

  const CensusDataset& old_dataset_;
  const CensusDataset& new_dataset_;
  std::vector<FieldTable> tables_;
  int field_table_[6] = {-1, -1, -1, -1, -1, -1};  // Field -> tables_ index
};

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_SIM_TABLES_H_
