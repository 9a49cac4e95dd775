#include "svc/digest.hpp"

#include "stable/instance.hpp"

namespace dasm::svc {

std::uint64_t digest_instance(const Instance& inst) {
  // Per list, men then women: its length, then its ranked ids — the
  // instance's ranked column read row by row. This is byte for byte the
  // stream every earlier layout produced, so cache keys do not move.
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(inst.n_men()));
  h.mix(static_cast<std::uint64_t>(inst.n_women()));
  const std::vector<std::int64_t>& offsets = inst.offsets();
  const std::vector<NodeId>& ranked = inst.ranked();
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    h.mix(static_cast<std::uint64_t>(offsets[v + 1] - offsets[v]));
    for (std::int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      h.mix(static_cast<std::uint64_t>(ranked[static_cast<std::size_t>(i)]));
    }
  }
  return h.digest();
}

void mix_fault_plan(Fnv1a& h, const FaultPlan& plan) {
  h.mix(plan.seed);
  h.mix(plan.drop);
  h.mix(plan.duplicate);
  h.mix(plan.delay);
  h.mix(static_cast<std::uint64_t>(plan.max_delay));
  h.mix(static_cast<std::uint64_t>(plan.edge_drops.size()));
  for (const EdgeDrop& e : plan.edge_drops) {
    h.mix(static_cast<std::uint64_t>(e.from));
    h.mix(static_cast<std::uint64_t>(e.to));
    h.mix(e.drop);
  }
  h.mix(static_cast<std::uint64_t>(plan.crashes.size()));
  for (const CrashEvent& c : plan.crashes) {
    h.mix(static_cast<std::uint64_t>(c.round));
    h.mix(static_cast<std::uint64_t>(c.node));
  }
}

std::string to_hex(const CacheKey& key) {
  const std::uint64_t folded = CacheKeyHash{}(key);
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = digits[(folded >> (4 * i)) & 0xf];
  }
  return out;
}

}  // namespace dasm::svc
