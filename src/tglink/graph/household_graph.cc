#include "tglink/graph/household_graph.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tglink {

const char* RelTypeName(RelType type) {
  switch (type) {
    case RelType::kSpouse:
      return "spouse";
    case RelType::kParentChild:
      return "parent-child";
    case RelType::kSibling:
      return "sibling";
    case RelType::kGrandparent:
      return "grandparent";
    case RelType::kExtended:
      return "extended";
    case RelType::kCoResident:
      return "co-resident";
  }
  return "?";
}

HouseholdGraph::HouseholdGraph(GroupId group, std::vector<RecordId> members)
    : group_(group), members_(std::move(members)) {
  std::sort(members_.begin(), members_.end());
}

namespace {

bool EdgeBefore(const RelEdge& e, RecordId a, RecordId b) {
  return e.a != a ? e.a < a : e.b < b;
}

}  // namespace

void HouseholdGraph::AddEdge(RecordId a, RecordId b, RelType type,
                             int age_diff, bool age_diff_known) {
  assert(a != b);
  if (a > b) {
    std::swap(a, b);
    age_diff = -age_diff;
  }
  assert(std::binary_search(members_.begin(), members_.end(), a));
  assert(std::binary_search(members_.begin(), members_.end(), b));
  RelEdge edge;
  edge.a = a;
  edge.b = b;
  edge.type = type;
  edge.age_diff = age_diff;
  edge.age_diff_known = age_diff_known;
  if (edges_.empty() || EdgeBefore(edges_.back(), a, b)) {
    edges_.push_back(edge);
    return;
  }
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), a,
      [b](const RelEdge& e, RecordId x) { return EdgeBefore(e, x, b); });
  assert((it->a != a || it->b != b) && "duplicate edge");
  edges_.insert(it, edge);
}

const RelEdge* HouseholdGraph::EdgeBetween(RecordId a, RecordId b) const {
  const auto slot_a = std::lower_bound(members_.begin(), members_.end(), a);
  const auto slot_b = std::lower_bound(members_.begin(), members_.end(), b);
  if (slot_a == members_.end() || *slot_a != a || slot_b == members_.end() ||
      *slot_b != b || a == b) {
    return nullptr;
  }
  return EdgeAtSlots(static_cast<size_t>(slot_a - members_.begin()),
                     static_cast<size_t>(slot_b - members_.begin()));
}

size_t HouseholdGraph::SlotOf(RecordId r) const {
  assert(std::binary_search(members_.begin(), members_.end(), r));
  return static_cast<size_t>(
      std::lower_bound(members_.begin(), members_.end(), r) - members_.begin());
}

const RelEdge* HouseholdGraph::EdgeAtSlots(size_t i, size_t j) const {
  assert(i != j && i < members_.size() && j < members_.size());
  if (i > j) std::swap(i, j);
  const size_t m = members_.size();
  if (edges_.size() == m * (m - 1) / 2) {
    // Complete: slot i's edges go to slots i+1..m-1, rows in slot order.
    return &edges_[i * (2 * m - i - 1) / 2 + (j - i - 1)];
  }
  const RecordId a = members_[i];
  const RecordId b = members_[j];
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), a,
      [b](const RelEdge& e, RecordId x) { return EdgeBefore(e, x, b); });
  if (it == edges_.end() || it->a != a || it->b != b) return nullptr;
  return &*it;
}

int HouseholdGraph::OrientedAgeDiff(const RelEdge& edge, RecordId x,
                                    RecordId y) const {
  assert((edge.a == x && edge.b == y) || (edge.a == y && edge.b == x));
  (void)y;
  return edge.a == x ? edge.age_diff : -edge.age_diff;
}

}  // namespace tglink
