// The paper's running example (Fig. 1): two census snapshots, 1871 and
// 1881, built exactly so that the hand-computed values of Sections 3.2-3.4
// (Fig. 3 clusters, Fig. 4 subgraphs, Eq. 8 scores) are reproducible in
// tests.
//
// 1871:
//   g_a: John Ashworth (head, 39), Elizabeth Ashworth (wife, 37),
//        Alice Ashworth (daughter, 8), William Ashworth (son, 2),
//        John Riley (lodger, 62)                         -- dies
//   g_b: John Smith (head, 41), Elizabeth Smith (wife, 40),
//        Steve Smith (son, 17)
// 1881:
//   g_a: John Ashworth (head, 49), Elizabeth Ashworth (wife, 47),
//        William Ashworth (son, 12)
//   g_b: John Smith (head, 51), Elizabeth Smith (wife, 50)
//   g_c: Steve Smith (head, 27), Alice Smith (wife, 18),
//        Mary Smith (daughter, 2)                        -- born
//   g_d: John Ashworth (head, 30), Elizabeth Ashworth (wife, 28),
//        William Ashworth (brother, 25)                  -- new family;
//        same names as g_a but different relationship structure, so only
//        the John-Elizabeth edge can match g_a's spouse edge.

#ifndef TGLINK_TESTS_PAPER_EXAMPLE_H_
#define TGLINK_TESTS_PAPER_EXAMPLE_H_

#include <string>
#include <vector>

#include "tglink/census/dataset.h"

namespace tglink {
namespace testing_example {

inline PersonRecord MakeRecord(const std::string& id, const std::string& fn,
                               const std::string& sn, Sex sex, int age,
                               Role role, const std::string& address,
                               const std::string& occupation) {
  PersonRecord r;
  r.external_id = id;
  r.first_name = fn;
  r.surname = sn;
  r.sex = sex;
  r.age = age;
  r.role = role;
  r.address = address;
  r.occupation = occupation;
  return r;
}

/// `prefix` followed by `n` in decimal. Spelled without the
/// `const char* + std::string&&` overload, whose inlined insert GCC 12
/// flags with a false-positive -Wrestrict.
inline std::string NumberedId(std::string prefix, int n) {
  prefix += std::to_string(n);
  return prefix;
}

inline CensusDataset MakeCensus1871() {
  CensusDataset d(1871);
  d.AddHousehold(
      "g1871_a",
      {
          MakeRecord("1871_1", "john", "ashworth", Sex::kMale, 39, Role::kHead,
                     "12 mill street", "cotton weaver"),
          MakeRecord("1871_2", "elizabeth", "ashworth", Sex::kFemale, 37,
                     Role::kWife, "12 mill street", ""),
          MakeRecord("1871_3", "alice", "ashworth", Sex::kFemale, 8,
                     Role::kDaughter, "12 mill street", "scholar"),
          MakeRecord("1871_4", "william", "ashworth", Sex::kMale, 2,
                     Role::kSon, "12 mill street", ""),
          MakeRecord("1871_5", "john", "riley", Sex::kMale, 62, Role::kLodger,
                     "12 mill street", "farm labourer"),
      });
  d.AddHousehold(
      "g1871_b",
      {
          MakeRecord("1871_6", "john", "smith", Sex::kMale, 41, Role::kHead,
                     "3 bank street", "coal miner"),
          MakeRecord("1871_7", "elizabeth", "smith", Sex::kFemale, 40,
                     Role::kWife, "3 bank street", ""),
          MakeRecord("1871_8", "steve", "smith", Sex::kMale, 17, Role::kSon,
                     "3 bank street", "cotton piecer"),
      });
  return d;
}

inline CensusDataset MakeCensus1881() {
  CensusDataset d(1881);
  d.AddHousehold(
      "g1881_a",
      {
          MakeRecord("1881_1", "john", "ashworth", Sex::kMale, 49, Role::kHead,
                     "12 mill street", "cotton weaver"),
          MakeRecord("1881_2", "elizabeth", "ashworth", Sex::kFemale, 47,
                     Role::kWife, "12 mill street", ""),
          MakeRecord("1881_3", "william", "ashworth", Sex::kMale, 12,
                     Role::kSon, "12 mill street", "scholar"),
      });
  d.AddHousehold(
      "g1881_b",
      {
          MakeRecord("1881_4", "john", "smith", Sex::kMale, 51, Role::kHead,
                     "3 bank street", "coal miner"),
          MakeRecord("1881_5", "elizabeth", "smith", Sex::kFemale, 50,
                     Role::kWife, "3 bank street", ""),
      });
  d.AddHousehold(
      "g1881_c",
      {
          MakeRecord("1881_6", "steve", "smith", Sex::kMale, 27, Role::kHead,
                     "7 dale street", "coal miner"),
          MakeRecord("1881_7", "alice", "smith", Sex::kFemale, 18, Role::kWife,
                     "7 dale street", ""),
          MakeRecord("1881_8", "mary", "smith", Sex::kFemale, 2,
                     Role::kDaughter, "7 dale street", ""),
      });
  d.AddHousehold(
      "g1881_d",
      {
          MakeRecord("1881_9", "john", "ashworth", Sex::kMale, 30, Role::kHead,
                     "44 burnley road", "grocer"),
          MakeRecord("1881_10", "elizabeth", "ashworth", Sex::kFemale, 28,
                     Role::kWife, "44 burnley road", "dressmaker"),
          MakeRecord("1881_11", "william", "ashworth", Sex::kMale, 25,
                     Role::kBrother, "44 burnley road", "clerk"),
      });
  return d;
}

/// GroupIds in construction order.
inline constexpr GroupId kG1871A = 0, kG1871B = 1;
inline constexpr GroupId kG1881A = 0, kG1881B = 1, kG1881C = 2, kG1881D = 3;

}  // namespace testing_example
}  // namespace tglink

#endif  // TGLINK_TESTS_PAPER_EXAMPLE_H_
