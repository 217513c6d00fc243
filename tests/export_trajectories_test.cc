#include <gtest/gtest.h>

#include "tglink/evolution/export.h"
#include "tglink/evolution/trajectories.h"
#include "tests/paper_example.h"

namespace tglink {
namespace {

using namespace testing_example;

/// Three-snapshot fixture with a preserve chain, a move and an addition
/// (reused from the evolution_graph tests' shape).
struct Fixture {
  std::vector<CensusDataset> datasets;
  std::vector<RecordMapping> record_mappings;
  std::vector<GroupMapping> group_mappings;

  static CensusDataset Snapshot(int year) {
    CensusDataset d(year);
    auto rec = [&](const char* id, const char* fn, int age, Role role) {
      return MakeRecord(std::string(id) + std::to_string(year), fn, "x",
                        role == Role::kWife ? Sex::kFemale : Sex::kMale, age,
                        role, "", "");
    };
    d.AddHousehold(NumberedId("x", year),
                   {rec("x1_", "a", 40, Role::kHead),
                    rec("x2_", "b", 38, Role::kWife)});
    d.AddHousehold(NumberedId("y", year),
                   {rec("y1_", "c", 50, Role::kHead)});
    return d;
  }

  Fixture() {
    datasets = {Snapshot(1851), Snapshot(1861), Snapshot(1871)};
    for (int i = 0; i < 2; ++i) {
      RecordMapping m(3, 3);
      EXPECT_TRUE(m.Add(0, 0).ok());
      EXPECT_TRUE(m.Add(1, 1).ok());
      EXPECT_TRUE(m.Add(2, 2).ok());
      GroupMapping g;
      g.Add(0, 0);  // X preserved
      g.Add(1, 1);  // Y single member: move-style link
      record_mappings.push_back(std::move(m));
      group_mappings.push_back(std::move(g));
    }
  }
};

TEST(ExportTest, DotContainsClustersAndEdges) {
  Fixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  const std::string dot = EvolutionGraphToDot(graph, fx.datasets);
  EXPECT_NE(dot.find("digraph evolution"), std::string::npos);
  EXPECT_NE(dot.find("cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_2"), std::string::npos);
  EXPECT_NE(dot.find("1851"), std::string::npos);
  EXPECT_NE(dot.find("preserve_G"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(ExportTest, MinComponentSizePrunesIsolates) {
  Fixture fx;
  // Remove Y's links so Y households become isolated vertices.
  fx.group_mappings[0] = GroupMapping();
  fx.group_mappings[0].Add(0, 0);
  fx.group_mappings[1] = GroupMapping();
  fx.group_mappings[1].Add(0, 0);
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  DotExportOptions options;
  options.min_component_size = 2;
  const std::string dot = EvolutionGraphToDot(graph, fx.datasets, options);
  EXPECT_NE(dot.find("x1851"), std::string::npos);
  EXPECT_EQ(dot.find("y1851"), std::string::npos);  // isolated: pruned
}

TEST(ExportTest, RecordEdgesOptIn) {
  Fixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  DotExportOptions options;
  options.include_record_edges = true;
  const std::string with = EvolutionGraphToDot(graph, fx.datasets, options);
  const std::string without = EvolutionGraphToDot(graph, fx.datasets);
  EXPECT_NE(with.find("style=dotted"), std::string::npos);
  EXPECT_EQ(without.find("style=dotted"), std::string::npos);
}

TEST(ExportTest, MaxVerticesCapsOutput) {
  Fixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  DotExportOptions options;
  options.min_component_size = 1;
  options.max_vertices = 2;
  const std::string dot = EvolutionGraphToDot(graph, fx.datasets, options);
  // Vertex declarations are the 4-space-indented "v<N> [..." lines.
  size_t vertices = 0;
  for (size_t pos = dot.find("\n    v"); pos != std::string::npos;
       pos = dot.find("\n    v", pos + 1)) {
    ++vertices;
  }
  EXPECT_LE(vertices, 2u);
}

TEST(ExportTest, CsvEdgeList) {
  Fixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  const std::string csv = EvolutionGraphToCsv(graph, fx.datasets);
  EXPECT_NE(csv.find("epoch,old_year,new_year"), std::string::npos);
  EXPECT_NE(csv.find("x1851,x1861,preserve_G,2"), std::string::npos);
  EXPECT_NE(csv.find("y1861,y1871,move,1"), std::string::npos);
}

TEST(TrajectoriesTest, ExtractsLineagesFromRoots) {
  Fixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  const auto trajectories = ExtractTrajectories(graph);
  // Roots: X@1851 and Y@1851 only (the rest have incoming edges).
  ASSERT_EQ(trajectories.size(), 2u);
  EXPECT_EQ(trajectories[0].start_epoch, 0u);
  EXPECT_EQ(trajectories[0].patterns.size(), 2u);
  EXPECT_EQ(trajectories[0].patterns[0], GroupPattern::kPreserve);
  EXPECT_EQ(TrajectorySignature(trajectories[0]), "preserve_G>preserve_G");
  EXPECT_EQ(TrajectorySignature(trajectories[1]), "move>move");
}

TEST(TrajectoriesTest, FrequencyCounting) {
  Fixture fx;
  const EvolutionGraph graph(fx.datasets, fx.record_mappings,
                             fx.group_mappings);
  const auto counts = FrequentTrajectories(ExtractTrajectories(graph));
  ASSERT_EQ(counts.size(), 2u);
  for (const TrajectoryCount& tc : counts) EXPECT_EQ(tc.count, 1u);
  // top_k truncation.
  EXPECT_EQ(FrequentTrajectories(ExtractTrajectories(graph), 1).size(), 1u);
}

TEST(TrajectoriesTest, SplitFollowsLargestBranch) {
  // One household splits 3+2; the trajectory follows the 3-member branch.
  CensusDataset old_d(1851);
  std::vector<PersonRecord> members;
  for (int i = 0; i < 5; ++i) {
    members.push_back(MakeRecord(NumberedId("o", i), "p", "x",
                                 Sex::kMale, 30 + i,
                                 i == 0 ? Role::kHead : Role::kSon, "", ""));
  }
  old_d.AddHousehold("big", std::move(members));
  CensusDataset new_d(1861);
  new_d.AddHousehold(
      "n3", {MakeRecord("n0", "p", "x", Sex::kMale, 40, Role::kHead, "", ""),
             MakeRecord("n1", "p", "x", Sex::kMale, 41, Role::kSon, "", ""),
             MakeRecord("n2", "p", "x", Sex::kMale, 42, Role::kSon, "", "")});
  new_d.AddHousehold(
      "n2h", {MakeRecord("n3", "p", "x", Sex::kMale, 43, Role::kHead, "", ""),
              MakeRecord("n4", "p", "x", Sex::kMale, 44, Role::kSon, "", "")});
  RecordMapping m(5, 5);
  for (RecordId r = 0; r < 5; ++r) ASSERT_TRUE(m.Add(r, r).ok());
  GroupMapping g;
  g.Add(0, 0);
  g.Add(0, 1);
  std::vector<CensusDataset> datasets = {std::move(old_d), std::move(new_d)};
  std::vector<RecordMapping> rms;
  rms.push_back(std::move(m));
  std::vector<GroupMapping> gms;
  gms.push_back(std::move(g));
  const EvolutionGraph graph(datasets, rms, gms);
  const auto trajectories = ExtractTrajectories(graph);
  ASSERT_EQ(trajectories.size(), 1u);
  EXPECT_EQ(TrajectorySignature(trajectories[0]), "split");
}

}  // namespace
}  // namespace tglink
