// A composite similarity function touching every SimBatch plan, shared by
// the similarity tests.

#ifndef TGLINK_TESTS_ALL_PLAN_FUNCTION_H_
#define TGLINK_TESTS_ALL_PLAN_FUNCTION_H_

#include "tglink/similarity/composite.h"

namespace tglink {
namespace testing_example {

/// Every plan: bigram Dice, exact sex and the temporal age component, and
/// measures SimBatch scores with ComputeMeasure (trigram Dice, the
/// edit/Jaro family, Soundex, Monge-Elkan). Several specs share a field,
/// some with Dice and some without, so the per-field table reuse is
/// exercised too.
inline SimilarityFunction AllPlanFunction() {
  return SimilarityFunction(
      {
          {Field::kFirstName, Measure::kJaroWinkler, 0.20},
          {Field::kFirstName, Measure::kSoundexEqual, 0.05},
          {Field::kFirstName, Measure::kQGramDice, 0.05},
          {Field::kSurname, Measure::kTrigramDice, 0.15},
          {Field::kSurname, Measure::kJaro, 0.05},
          {Field::kSex, Measure::kExact, 0.10},
          {Field::kAddress, Measure::kLevenshtein, 0.15},
          {Field::kOccupation, Measure::kDamerau, 0.10},
          {Field::kOccupation, Measure::kMongeElkan, 0.05},
          {Field::kAge, Measure::kExact, 0.10},
      },
      /*threshold=*/0.7);
}

}  // namespace testing_example
}  // namespace tglink

#endif  // TGLINK_TESTS_ALL_PLAN_FUNCTION_H_
