#include "stable/broadcast_gs.hpp"

#include <vector>

#include "stable/gale_shapley.hpp"
#include "util/check.hpp"

namespace dasm {

namespace {

// Full-instance view reconstructed at an audited processor: lists[side]
// [player][rank]. Auditing every processor would need Theta(n^3) memory,
// so only a sample is materialized; the rest of the traffic is still sent
// and counted.
struct ReconstructedView {
  std::vector<std::vector<NodeId>> men_lists;
  std::vector<std::vector<NodeId>> women_lists;
};

}  // namespace

BroadcastGsResult broadcast_gale_shapley(const Instance& inst) {
  DASM_CHECK_MSG(inst.is_complete(),
                 "broadcast GS (footnote 1) needs complete preferences");
  DASM_CHECK_MSG(inst.n_men() == inst.n_women(),
                 "broadcast GS needs balanced sides");
  const NodeId n = inst.n_men();
  const auto& bg = inst.graph();
  Network net(bg.graph());

  // Audited processors: man 0 and woman n-1 reconstruct the instance from
  // the wire; everyone else only counts.
  const NodeId audit_man = 0;
  const NodeId audit_woman = n - 1;
  ReconstructedView man_view;
  ReconstructedView woman_view;
  auto init_view = [&](ReconstructedView& v) {
    v.men_lists.assign(static_cast<std::size_t>(n), {});
    v.women_lists.assign(static_cast<std::size_t>(n), {});
  };
  init_view(man_view);
  init_view(woman_view);

  // Phase A: everyone broadcasts their own list, one rank per round.
  for (NodeId t = 0; t < n; ++t) {
    net.begin_round();
    for (NodeId m = 0; m < n; ++m) {
      const NodeId entry = inst.man_pref(m).at_rank(t);
      for (NodeId w = 0; w < n; ++w) {
        net.send(bg.man_id(m), bg.woman_id(w),
                 Message{MsgType::kBcast, entry});
      }
    }
    for (NodeId w = 0; w < n; ++w) {
      const NodeId entry = inst.woman_pref(w).at_rank(t);
      for (NodeId m = 0; m < n; ++m) {
        net.send(bg.woman_id(w), bg.man_id(m),
                 Message{MsgType::kBcast, entry});
      }
    }
    net.end_round();
    // The audited processors record what arrived on the wire.
    for (const Envelope& e : net.inbox(bg.man_id(audit_man))) {
      man_view.women_lists[static_cast<std::size_t>(
                               bg.woman_index(e.from))]
          .push_back(static_cast<NodeId>(e.msg.a));
    }
    for (const Envelope& e : net.inbox(bg.woman_id(audit_woman))) {
      woman_view.men_lists[static_cast<std::size_t>(e.from)].push_back(
          static_cast<NodeId>(e.msg.a));
    }
  }

  // Phase B: woman j relays man j's list to all men; man i relays woman
  // i's list to all women. (Each relay learned that list in phase A.)
  for (NodeId t = 0; t < n; ++t) {
    net.begin_round();
    for (NodeId j = 0; j < n; ++j) {
      const NodeId man_entry = inst.man_pref(j).at_rank(t);
      for (NodeId m = 0; m < n; ++m) {
        net.send(bg.woman_id(j), bg.man_id(m),
                 Message{MsgType::kBcast, man_entry});
      }
      const NodeId woman_entry = inst.woman_pref(j).at_rank(t);
      for (NodeId w = 0; w < n; ++w) {
        net.send(bg.man_id(j), bg.woman_id(w),
                 Message{MsgType::kBcast, woman_entry});
      }
    }
    net.end_round();
    for (const Envelope& e : net.inbox(bg.man_id(audit_man))) {
      // Relayed entry of man j's list, where j is the relaying woman.
      man_view.men_lists[static_cast<std::size_t>(bg.woman_index(e.from))]
          .push_back(static_cast<NodeId>(e.msg.a));
    }
    for (const Envelope& e : net.inbox(bg.woman_id(audit_woman))) {
      woman_view.women_lists[static_cast<std::size_t>(e.from)].push_back(
          static_cast<NodeId>(e.msg.a));
    }
  }

  // Audit: both sampled processors must have reconstructed the instance.
  bool ok = true;
  for (NodeId i = 0; i < n; ++i) {
    ok = ok &&
         man_view.men_lists[static_cast<std::size_t>(i)] ==
             inst.man_pref(i).ranked() &&
         man_view.women_lists[static_cast<std::size_t>(i)] ==
             inst.woman_pref(i).ranked() &&
         woman_view.men_lists[static_cast<std::size_t>(i)] ==
             inst.man_pref(i).ranked() &&
         woman_view.women_lists[static_cast<std::size_t>(i)] ==
             inst.woman_pref(i).ranked();
  }

  // Every processor now solves the instance locally; GS is deterministic,
  // so all local answers coincide — computed once here.
  BroadcastGsResult result;
  result.matching = gale_shapley(inst).matching;
  result.net = net.stats();
  result.reconstruction_verified = ok;
  return result;
}

}  // namespace dasm
