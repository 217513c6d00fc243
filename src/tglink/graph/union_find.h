// Disjoint-set forest with union by size and path halving. Used to compute
// the transitive closure of accepted pre-match pairs (cluster labels,
// Section 3.2) and connected components of the evolution graph (Section 4.2).

#ifndef TGLINK_GRAPH_UNION_FIND_H_
#define TGLINK_GRAPH_UNION_FIND_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace tglink {

class UnionFind {
 public:
  explicit UnionFind(size_t n);

  /// Representative of x's component.
  [[nodiscard]] size_t Find(size_t x);

  /// Merges the components of a and b; returns true if they were distinct.
  bool Union(size_t a, size_t b);

  /// True iff a and b share a component.
  [[nodiscard]] bool Connected(size_t a, size_t b) {
    return Find(a) == Find(b);
  }

  [[nodiscard]] size_t size() const { return parent_.size(); }
  [[nodiscard]] size_t num_components() const { return num_components_; }

  /// Size of x's component.
  [[nodiscard]] size_t ComponentSize(size_t x) { return size_[Find(x)]; }

  /// Dense relabeling: returns labels[i] in [0, num_components) such that
  /// labels[i] == labels[j] iff i and j are connected. Label values are
  /// assigned in order of first appearance by node index, so they depend
  /// only on the partition, never on the order of the unions.
  [[nodiscard]] std::vector<uint32_t> ComponentLabels();

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  size_t num_components_;
};

}  // namespace tglink

#endif  // TGLINK_GRAPH_UNION_FIND_H_
