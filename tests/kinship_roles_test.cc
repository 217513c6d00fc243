// Kinship-consistency properties of the population simulator's snapshots:
// the roles the census-taker writes down must be derivable from the true
// family links, across several simulated decades and seeds.

#include <memory>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "tglink/synth/population.h"

namespace tglink {
namespace {

class KinshipRolesTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  KinshipRolesTest() : rng_(GetParam()) {
    PopulationConfig config;
    config.household_targets = {150, 190, 230};
    population_ = std::make_unique<Population>(config, &rng_);
    population_->AdvanceDecade(&rng_);
    population_->AdvanceDecade(&rng_);
    CorruptionConfig clean;
    clean.noise_scale = 0.0;
    snapshot_ = population_->TakeSnapshot(CorruptionModel(clean), &rng_);
  }

  const SimPerson& PersonOf(RecordId r) const {
    return population_->persons().at(snapshot_.record_pids[r]);
  }

  Rng rng_;
  std::unique_ptr<Population> population_;
  Population::Snapshot snapshot_;
};

TEST_P(KinshipRolesTest, WivesAreFemaleSpousesOfTheHead) {
  for (const Household& hh : snapshot_.dataset.households()) {
    // Identify the head's pid.
    uint64_t head_pid = 0;
    for (RecordId r : hh.members) {
      if (snapshot_.dataset.record(r).role == Role::kHead) {
        head_pid = snapshot_.record_pids[r];
      }
    }
    ASSERT_NE(head_pid, 0u);
    for (RecordId r : hh.members) {
      if (snapshot_.dataset.record(r).role != Role::kWife) continue;
      const SimPerson& wife = PersonOf(r);
      EXPECT_EQ(wife.sex, Sex::kFemale);
      EXPECT_EQ(wife.spouse, head_pid);
    }
  }
}

TEST_P(KinshipRolesTest, ChildRolesImplyParentage) {
  for (const Household& hh : snapshot_.dataset.households()) {
    uint64_t head_pid = 0, spouse_pid = 0;
    for (RecordId r : hh.members) {
      if (snapshot_.dataset.record(r).role == Role::kHead) {
        head_pid = snapshot_.record_pids[r];
        spouse_pid = PersonOf(r).spouse;
      }
    }
    for (RecordId r : hh.members) {
      const Role role = snapshot_.dataset.record(r).role;
      if (role != Role::kSon && role != Role::kDaughter) continue;
      const SimPerson& child = PersonOf(r);
      const bool child_of_head =
          child.father == head_pid || child.mother == head_pid ||
          (spouse_pid != 0 &&
           (child.father == spouse_pid || child.mother == spouse_pid));
      EXPECT_TRUE(child_of_head) << "record " << r;
      // Sex agrees with the gendered role.
      EXPECT_EQ(child.sex,
                role == Role::kDaughter ? Sex::kFemale : Sex::kMale);
    }
  }
}

TEST_P(KinshipRolesTest, ServantsAndLodgersAreNotFamily) {
  for (RecordId r = 0; r < snapshot_.dataset.num_records(); ++r) {
    const Role role = snapshot_.dataset.record(r).role;
    if (role == Role::kServant) {
      EXPECT_TRUE(PersonOf(r).is_servant);
    }
    if (role == Role::kLodger) {
      // Lodger role is also the fallback for non-kin; at minimum the person
      // must not be the head's spouse or child.
      const SimPerson& person = PersonOf(r);
      EXPECT_FALSE(person.is_servant);
    }
  }
}

TEST_P(KinshipRolesTest, SpouseLinksAreSymmetricAndCrossSex) {
  for (const auto& [pid, person] : population_->persons()) {
    if (!person.present || person.spouse == 0) continue;
    const SimPerson& partner = population_->persons().at(person.spouse);
    EXPECT_EQ(partner.spouse, pid);
    EXPECT_NE(partner.sex, person.sex);
  }
}

TEST_P(KinshipRolesTest, ParentsAreOlderThanChildren) {
  for (const auto& [pid, person] : population_->persons()) {
    for (uint64_t parent_pid : {person.father, person.mother}) {
      if (parent_pid == 0) continue;
      const SimPerson& parent = population_->persons().at(parent_pid);
      EXPECT_LT(parent.birth_year, person.birth_year)
          << "parent " << parent_pid << " born after child " << pid;
    }
  }
}

TEST_P(KinshipRolesTest, GrandchildRolesImplyTwoGenerations) {
  for (const Household& hh : snapshot_.dataset.households()) {
    uint64_t head_pid = 0;
    for (RecordId r : hh.members) {
      if (snapshot_.dataset.record(r).role == Role::kHead) {
        head_pid = snapshot_.record_pids[r];
      }
    }
    for (RecordId r : hh.members) {
      const Role role = snapshot_.dataset.record(r).role;
      if (role != Role::kGrandson && role != Role::kGranddaughter) continue;
      const SimPerson& grandchild = PersonOf(r);
      bool grandparent_is_head = false;
      for (uint64_t parent_pid : {grandchild.father, grandchild.mother}) {
        if (parent_pid == 0) continue;
        const SimPerson& parent = population_->persons().at(parent_pid);
        if (parent.father == head_pid || parent.mother == head_pid) {
          grandparent_is_head = true;
        }
      }
      EXPECT_TRUE(grandparent_is_head);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KinshipRolesTest,
                         ::testing::Values(3u, 21u, 77u));

}  // namespace
}  // namespace tglink
