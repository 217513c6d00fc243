#include "tglink/graph/union_find.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tglink/util/random.h"

namespace tglink {
namespace {

TEST(UnionFindTest, StartsFullyDisjoint) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_components(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.Find(i), i);
    EXPECT_EQ(uf.ComponentSize(i), 1u);
  }
}

TEST(UnionFindTest, UnionMergesAndReportsNovelty) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.num_components(), 3u);
  EXPECT_EQ(uf.ComponentSize(0), 2u);
}

TEST(UnionFindTest, TransitivityThroughChains) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(1, 2);
  uf.Union(3, 4);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_TRUE(uf.Connected(3, 4));
  EXPECT_FALSE(uf.Connected(2, 3));
  uf.Union(2, 3);
  EXPECT_TRUE(uf.Connected(0, 4));
  EXPECT_EQ(uf.ComponentSize(0), 5u);
  EXPECT_EQ(uf.num_components(), 2u);  // {0..4}, {5}
}

TEST(UnionFindTest, ComponentLabelsAreDenseAndConsistent) {
  UnionFind uf(6);
  uf.Union(0, 3);
  uf.Union(1, 4);
  const std::vector<uint32_t> labels = uf.ComponentLabels();
  ASSERT_EQ(labels.size(), 6u);
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[1], labels[4]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[2], labels[5]);
  // Dense: all labels < num_components, first appearance order.
  for (uint32_t l : labels) EXPECT_LT(l, uf.num_components());
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 2u);
}

TEST(UnionFindTest, LargeRandomisedInvariant) {
  // Property: after any union sequence, num_components equals n minus the
  // number of novel unions, and sizes sum to n.
  const size_t n = 1000;
  UnionFind uf(n);
  size_t novel = 0;
  uint64_t state = 99;
  for (int i = 0; i < 2000; ++i) {
    const size_t a = SplitMix64(&state) % n;
    const size_t b = SplitMix64(&state) % n;
    if (a == b) continue;
    if (uf.Union(a, b)) ++novel;
  }
  EXPECT_EQ(uf.num_components(), n - novel);
  // Each element's component size is consistent with its label class size.
  const std::vector<uint32_t> labels = uf.ComponentLabels();
  std::vector<size_t> class_size(uf.num_components(), 0);
  for (uint32_t l : labels) ++class_size[l];
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(uf.ComponentSize(i), class_size[labels[i]]);
  }
}

TEST(UnionFindTest, ComponentLabelsDoNotDependOnUnionOrder) {
  // Pre-matching unions its pairs in (old, new) order rather than by
  // similarity; that is exact only because labels are numbered by node
  // index. Any permutation of the same edges, with either endpoint first,
  // must give identical labels.
  const size_t n = 500;
  uint64_t state = 7;
  std::vector<std::pair<size_t, size_t>> edges;
  for (int i = 0; i < 400; ++i) {
    edges.emplace_back(SplitMix64(&state) % n, SplitMix64(&state) % n);
  }
  const auto labels_for = [n](const std::vector<std::pair<size_t, size_t>>& e) {
    UnionFind uf(n);
    for (const auto& [a, b] : e) uf.Union(a, b);
    return uf.ComponentLabels();
  };
  const std::vector<uint32_t> expected = labels_for(edges);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<size_t, size_t>> shuffled = edges;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[SplitMix64(&state) % i]);
    }
    for (auto& [a, b] : shuffled) {
      if (SplitMix64(&state) % 2 == 0) std::swap(a, b);
    }
    EXPECT_EQ(labels_for(shuffled), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tglink
