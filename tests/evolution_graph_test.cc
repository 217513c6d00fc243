#include "tglink/evolution/evolution_graph.h"

#include <gtest/gtest.h>

#include "tglink/evolution/queries.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

/// Three tiny snapshots: household X preserved twice (chain of 2 preserve
/// edges), household Y preserved once then removed, household Z appears in
/// the last snapshot.
struct ChainFixture {
  std::vector<CensusDataset> datasets;
  std::vector<RecordMapping> record_mappings;
  std::vector<GroupMapping> group_mappings;

  static CensusDataset Snapshot(int year, bool with_y, bool with_z) {
    CensusDataset d(year);
    auto rec = [&](const std::string& id, const char* fn, int age,
                   Role role) {
      return MakeRecord(id + "_" + std::to_string(year), fn, "x",
                        role == Role::kWife ? Sex::kFemale : Sex::kMale, age,
                        role, "", "");
    };
    d.AddHousehold(NumberedId("x", year),
                   {rec("x1", "a", 40, Role::kHead),
                    rec("x2", "b", 38, Role::kWife)});
    if (with_y) {
      d.AddHousehold(NumberedId("y", year),
                     {rec("y1", "c", 50, Role::kHead),
                      rec("y2", "d", 48, Role::kWife)});
    }
    if (with_z) {
      d.AddHousehold(NumberedId("z", year),
                     {rec("z1", "e", 30, Role::kHead)});
    }
    return d;
  }

  ChainFixture() {
    datasets.push_back(Snapshot(1851, true, false));   // X=0, Y=1
    datasets.push_back(Snapshot(1861, true, false));   // X=0, Y=1
    datasets.push_back(Snapshot(1871, false, true));   // X=0, Z=1

    // 1851 -> 1861: X and Y preserved (2 members each).
    RecordMapping m0(4, 4);
    EXPECT_TRUE(m0.Add(0, 0).ok());
    EXPECT_TRUE(m0.Add(1, 1).ok());
    EXPECT_TRUE(m0.Add(2, 2).ok());
    EXPECT_TRUE(m0.Add(3, 3).ok());
    GroupMapping g0;
    g0.Add(0, 0);
    g0.Add(1, 1);
    record_mappings.push_back(std::move(m0));
    group_mappings.push_back(std::move(g0));

    // 1861 -> 1871: X preserved; Y disappears; Z appears.
    RecordMapping m1(4, 3);
    EXPECT_TRUE(m1.Add(0, 0).ok());
    EXPECT_TRUE(m1.Add(1, 1).ok());
    GroupMapping g1;
    g1.Add(0, 0);
    record_mappings.push_back(std::move(m1));
    group_mappings.push_back(std::move(g1));
  }
};

TEST(EvolutionGraphTest, StructureAndCounts) {
  ChainFixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  EXPECT_EQ(graph.num_epochs(), 3u);
  EXPECT_EQ(graph.total_households(), 6u);
  EXPECT_EQ(graph.group_edges().size(), 3u);
  EXPECT_EQ(graph.record_edges().size(), 6u);
  ASSERT_EQ(graph.pair_counts().size(), 2u);
  EXPECT_EQ(graph.pair_counts()[0].preserve_groups, 2u);
  EXPECT_EQ(graph.pair_counts()[1].preserve_groups, 1u);
  EXPECT_EQ(graph.pair_counts()[1].remove_groups, 1u);  // Y
  EXPECT_EQ(graph.pair_counts()[1].add_groups, 1u);     // Z
}

TEST(EvolutionGraphTest, PreservedChainCounting) {
  ChainFixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  // intervals=1: preserve edges summed over pairs = 2 + 1 = 3 (Table 8's
  // convention that the 10-year row equals the total preserve_G count).
  EXPECT_EQ(CountPreservedChains(graph, 1), 3u);
  // intervals=2: only X runs through both pairs.
  EXPECT_EQ(CountPreservedChains(graph, 2), 1u);
  // Longer than the series: zero.
  EXPECT_EQ(CountPreservedChains(graph, 3), 0u);
  EXPECT_EQ(CountPreservedChains(graph, 0), 0u);
  EXPECT_EQ(PreservedChainProfile(graph), (std::vector<size_t>{3, 1}));
}

TEST(EvolutionGraphTest, ConnectedComponents) {
  ChainFixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  const ComponentStats stats = ConnectedHouseholdComponents(graph);
  // X chain: {X1851, X1861, X1871} one component of 3; Y chain of 2;
  // Z isolated. 6 households, 3 components.
  EXPECT_EQ(stats.num_components, 3u);
  EXPECT_EQ(stats.largest_component, 3u);
  EXPECT_DOUBLE_EQ(stats.largest_coverage, 0.5);
}

TEST(EvolutionGraphTest, Fig5ConnectedComponentsExample) {
  // The paper's Fig. 5(b) narrative: components of 4 and 3 households over
  // two snapshots. Reproduce with the running example plus Fig. 5 links.
  std::vector<CensusDataset> datasets = {MakeCensus1871(), MakeCensus1881()};
  RecordMapping records(8, 11);
  ASSERT_TRUE(records.Add(0, 0).ok());
  ASSERT_TRUE(records.Add(1, 1).ok());
  ASSERT_TRUE(records.Add(3, 2).ok());
  ASSERT_TRUE(records.Add(5, 3).ok());
  ASSERT_TRUE(records.Add(6, 4).ok());
  ASSERT_TRUE(records.Add(2, 6).ok());
  ASSERT_TRUE(records.Add(7, 5).ok());
  GroupMapping groups;
  groups.Add(kG1871A, kG1881A);
  groups.Add(kG1871B, kG1881B);
  groups.Add(kG1871A, kG1881C);
  groups.Add(kG1871B, kG1881C);
  std::vector<RecordMapping> rms;
  rms.push_back(std::move(records));
  std::vector<GroupMapping> gms;
  gms.push_back(std::move(groups));
  const EvolutionGraph graph(datasets, rms, gms);
  const ComponentStats stats = ConnectedHouseholdComponents(graph);
  // {a1871, b1871, a1881, b1881, c1881} form one component of 5; d isolated.
  EXPECT_EQ(stats.largest_component, 5u);
  EXPECT_EQ(stats.num_components, 2u);
}

TEST(EvolutionGraphTest, GroupVertexIndexing) {
  ChainFixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  EXPECT_EQ(graph.GroupVertex(0, 0), 0u);
  EXPECT_EQ(graph.GroupVertex(0, 1), 1u);
  EXPECT_EQ(graph.GroupVertex(1, 0), 2u);
  EXPECT_EQ(graph.GroupVertex(2, 1), 5u);
  EXPECT_EQ(graph.num_households(1), 2u);
}

}  // namespace
}  // namespace tglink
