#include "stable/preferences.hpp"

namespace dasm {

std::vector<NodeId> PreferenceList::quantile_members(NodeId q, NodeId k) const {
  DASM_CHECK(k >= 1);
  DASM_CHECK(q >= 1 && q <= k);
  const auto d = static_cast<std::int64_t>(degree_);
  const auto kk = static_cast<std::int64_t>(k);
  // quantile_of(u, k) == q  <=>  (q-1) <= rank(u)*k/d < q, i.e. rank in
  // [ceil((q-1)d/k), ceil(qd/k)).
  const auto lo = (static_cast<std::int64_t>(q - 1) * d + kk - 1) / kk;
  const auto hi = (static_cast<std::int64_t>(q) * d + kk - 1) / kk;
  return std::vector<NodeId>(ranked_ + lo, ranked_ + hi);
}

}  // namespace dasm
