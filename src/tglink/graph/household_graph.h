// HouseholdGraph: the graph representation of one household after the
// group-enrichment phase (Section 3.1 of the paper). Vertices are the
// household's person records; edges are *head-independent* relationship
// types with the age difference attached as a time-stable edge property.

#ifndef TGLINK_GRAPH_HOUSEHOLD_GRAPH_H_
#define TGLINK_GRAPH_HOUSEHOLD_GRAPH_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "tglink/census/record.h"

namespace tglink {

/// Unified (head-independent) pairwise relationship types. The original
/// census roles are relative to the head of household and do not survive a
/// person moving to another household; these derived types do.
enum class RelType : uint8_t {
  kSpouse = 0,
  kParentChild,     // one generation apart (direction carried by age sign)
  kSibling,         // same generation within the family
  kGrandparent,     // two generations apart
  kExtended,        // family, > 2 generations apart or unclassifiable
  kCoResident,      // at least one non-family member (servant, lodger, ...)
};

const char* RelTypeName(RelType type);

/// An enriched, undirected relationship edge. Endpoints are ordered
/// a < b (by RecordId); `age_diff` is age(a) - age(b) when both ages are
/// known (signed, so that parent/child orientation is preserved through the
/// vertex-pair orientation used by subgraph matching).
struct RelEdge {
  RecordId a = kInvalidRecord;
  RecordId b = kInvalidRecord;
  RelType type = RelType::kCoResident;
  int age_diff = 0;
  bool age_diff_known = false;
};

/// Enriched household graph: complete over the household's members. Edges
/// are held sorted by (a, b); an edge is found through the member slots
/// (positions in the sorted `members()`), in O(1) when the graph is
/// complete, by binary search over the edges otherwise. No index beyond the
/// edges themselves, so a star graph costs its m - 1 edges, not m^2.
class HouseholdGraph {
 public:
  HouseholdGraph() = default;
  HouseholdGraph(GroupId group, std::vector<RecordId> members);

  GroupId group() const { return group_; }
  const std::vector<RecordId>& members() const { return members_; }
  /// Sorted by (a, b).
  const std::vector<RelEdge>& edges() const { return edges_; }
  size_t num_edges() const { return edges_.size(); }

  /// Adds an edge; endpoints are canonicalized to a < b (flipping the sign
  /// of age_diff as needed). Both endpoints must be members. Adding edges in
  /// ascending (a, b) order, as enrichment does, appends in O(1).
  void AddEdge(RecordId a, RecordId b, RelType type, int age_diff,
               bool age_diff_known);

  /// Edge between two members, or nullptr. After enrichment every member
  /// pair has an edge.
  const RelEdge* EdgeBetween(RecordId a, RecordId b) const;

  /// Slot of member `r`: its position in members(). `r` must be a member.
  size_t SlotOf(RecordId r) const;

  /// Edge between the members in slots i != j, or nullptr. Its endpoint
  /// `a` is the member in the lower slot.
  const RelEdge* EdgeAtSlots(size_t i, size_t j) const;

  /// Signed age difference age(x) - age(y) along the edge between x and y.
  /// Only meaningful when the edge exists and its age_diff_known is true.
  int OrientedAgeDiff(const RelEdge& edge, RecordId x, RecordId y) const;

 private:
  GroupId group_ = kInvalidGroup;
  std::vector<RecordId> members_;  // sorted; a member's slot is its index
  std::vector<RelEdge> edges_;     // sorted by (a, b)
};

}  // namespace tglink

#endif  // TGLINK_GRAPH_HOUSEHOLD_GRAPH_H_
