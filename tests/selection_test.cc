#include "tglink/linkage/selection.h"

#include <gtest/gtest.h>

namespace tglink {
namespace {

GroupPairSubgraph MakeSubgraph(GroupId old_g, GroupId new_g, double g_sim,
                               std::vector<SubgraphVertex> vertices) {
  GroupPairSubgraph s;
  s.old_group = old_g;
  s.new_group = new_g;
  s.g_sim = g_sim;
  s.vertices = std::move(vertices);
  return s;
}

struct SelectionFixture {
  GroupMapping groups;
  RecordMapping records{20, 20};
  std::vector<bool> active_old = std::vector<bool>(20, true);
  std::vector<bool> active_new = std::vector<bool>(20, true);

  SelectionResult Run(std::vector<GroupPairSubgraph> subgraphs) {
    return SelectGroupLinks(std::move(subgraphs), &groups, &records,
                            &active_old, &active_new);
  }
};

TEST(SelectionTest, AcceptsHighestScoringOfConflictingPairs) {
  // Two subgraphs compete for old records {0,1}: the higher g_sim wins,
  // the other is rejected (the paper's (a,a) vs (a,d) situation).
  SelectionFixture fx;
  const SelectionResult result = fx.Run({
      MakeSubgraph(0, 0, 0.9, {{0, 0, 1.0}, {1, 1, 1.0}}),
      MakeSubgraph(0, 1, 0.5, {{0, 5, 1.0}, {1, 6, 1.0}}),
  });
  EXPECT_EQ(result.accepted_subgraphs, 1u);
  EXPECT_TRUE(fx.groups.Contains(0, 0));
  EXPECT_FALSE(fx.groups.Contains(0, 1));
  EXPECT_EQ(fx.records.NewFor(0), 0u);
  EXPECT_EQ(fx.records.NewFor(1), 1u);
  EXPECT_FALSE(fx.active_old[0]);
  EXPECT_TRUE(fx.active_old[2]);
}

TEST(SelectionTest, DisjointSubgraphsOfSameGroupBothAccepted) {
  // A household split: g_old 0 links to two new groups via disjoint members
  // — both links enter the N:M mapping.
  SelectionFixture fx;
  const SelectionResult result = fx.Run({
      MakeSubgraph(0, 0, 0.9, {{0, 0, 1.0}, {1, 1, 1.0}}),
      MakeSubgraph(0, 1, 0.8, {{2, 5, 1.0}, {3, 6, 1.0}}),
  });
  EXPECT_EQ(result.accepted_subgraphs, 2u);
  EXPECT_TRUE(fx.groups.Contains(0, 0));
  EXPECT_TRUE(fx.groups.Contains(0, 1));
  EXPECT_EQ(fx.records.size(), 4u);
}

TEST(SelectionTest, PartialOverlapRejectsWholeSubgraph) {
  // Overlap in even one record rejects the whole candidate subgraph.
  SelectionFixture fx;
  const SelectionResult result = fx.Run({
      MakeSubgraph(0, 0, 0.9, {{0, 0, 1.0}, {1, 1, 1.0}}),
      MakeSubgraph(1, 1, 0.8, {{5, 1, 1.0}, {6, 6, 1.0}}),  // new 1 reused
  });
  EXPECT_EQ(result.accepted_subgraphs, 1u);
  EXPECT_FALSE(fx.groups.Contains(1, 1));
  EXPECT_FALSE(fx.records.IsOldLinked(5));
}

TEST(SelectionTest, TieBreaksAreDeterministic) {
  // Equal g_sim: the (old_group, new_group) order decides.
  SelectionFixture fx;
  const SelectionResult result = fx.Run({
      MakeSubgraph(3, 1, 0.7, {{0, 0, 1.0}}),
      MakeSubgraph(2, 9, 0.7, {{0, 1, 1.0}}),  // same old record 0
  });
  EXPECT_EQ(result.accepted_subgraphs, 1u);
  EXPECT_TRUE(fx.groups.Contains(2, 9));  // lower old_group wins the tie
  EXPECT_FALSE(fx.groups.Contains(3, 1));
}

TEST(SelectionTest, RecordLinksMirrorAcceptedVertices) {
  SelectionFixture fx;
  const SelectionResult result =
      fx.Run({MakeSubgraph(0, 0, 0.9, {{4, 7, 0.8}, {5, 8, 0.9}})});
  EXPECT_EQ(result.accepted_subgraphs, 1u);
  EXPECT_EQ(fx.records.size(), 2u);
  EXPECT_EQ(fx.records.NewFor(4), 7u);
  EXPECT_EQ(fx.records.OldFor(8), 5u);
  EXPECT_FALSE(fx.active_new[7]);
  EXPECT_FALSE(fx.active_new[8]);
}

TEST(SelectionTest, DuplicateGroupPairCountsOnceInMapping) {
  SelectionFixture fx;
  const SelectionResult result = fx.Run({
      MakeSubgraph(0, 0, 0.9, {{0, 0, 1.0}}),
      MakeSubgraph(0, 0, 0.8, {{1, 1, 1.0}}),  // disjoint, same group pair
  });
  EXPECT_EQ(result.accepted_subgraphs, 2u);
  EXPECT_EQ(result.new_group_links, 1u);  // set semantics
  EXPECT_EQ(fx.groups.size(), 1u);
  EXPECT_EQ(result.new_record_links, 2u);
}

TEST(SelectionTest, EmptyInputProducesNothing) {
  SelectionFixture fx;
  const SelectionResult result = fx.Run({});
  EXPECT_EQ(result.accepted_subgraphs, 0u);
  EXPECT_EQ(fx.groups.size(), 0u);
  EXPECT_EQ(fx.records.size(), 0u);
}

}  // namespace
}  // namespace tglink
