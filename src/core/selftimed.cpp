#include "core/selftimed.hpp"

#include <algorithm>

#include "core/engine.hpp"
#include "core/player.hpp"
#include "mm/run_context.hpp"
#include "util/check.hpp"

namespace dasm::core {

namespace {

// A processor: owns its player state machine and a private copy of the
// phase script (every processor can derive it locally), and reacts to one
// round at a time. `step` receives only the processor's own inbox.
class SelfTimedMan {
 public:
  SelfTimedMan(ManPlayer player, const PhaseScript& script, bool drop_rule)
      : player_(std::move(player)), script_(script), drop_rule_(drop_rule) {}

  void step(std::int64_t round, InboxView inbox,
            Network& net) {
    const Phase phase = script_.at(round);
    switch (phase.kind) {
      case PhaseKind::kPropose:
        // Step 5 of the previous ProposalRound: the rejections delivered
        // at the end of the resolve round are processed now, before any
        // new action — this is the first time this processor acts on them.
        player_.finalize(inbox);
        if (phase.quantile_match_start) {
          if (phase.outer != last_outer_) {
            player_.set_outer_gate(std::int64_t{1}
                                   << std::min(phase.outer, 62));
            last_outer_ = phase.outer;
          }
          player_.begin_quantile_match();
        }
        player_.propose_round(net);
        break;
      case PhaseKind::kAccept:
        break;  // women's phase
      case PhaseKind::kMmRound:
        if (phase.mm_round == 0) {
          player_.mm_first_round(inbox, net);
        } else {
          player_.mm_round(inbox, net);
        }
        break;
      case PhaseKind::kResolve:
        player_.resolve_round();
        if (drop_rule_) player_.drop_if_unsatisfied();
        break;
    }
  }

  ManPlayer& player() { return player_; }

 private:
  ManPlayer player_;
  PhaseScript script_;
  bool drop_rule_;
  int last_outer_ = -1;
};

class SelfTimedWoman {
 public:
  SelfTimedWoman(WomanPlayer player, const PhaseScript& script)
      : player_(std::move(player)), script_(script) {}

  void step(std::int64_t round, InboxView inbox,
            Network& net) {
    const Phase phase = script_.at(round);
    switch (phase.kind) {
      case PhaseKind::kPropose:
        break;  // men's phase
      case PhaseKind::kAccept:
        player_.accept_round(inbox, net);
        break;
      case PhaseKind::kMmRound:
        if (phase.mm_round == 0) {
          player_.mm_first_round(inbox, net);
        } else {
          player_.mm_round(inbox, net);
        }
        break;
      case PhaseKind::kResolve:
        player_.resolve_round(net);
        break;
    }
  }

  WomanPlayer& player() { return player_; }

 private:
  WomanPlayer player_;
  PhaseScript script_;
};

}  // namespace

SelfTimedResult run_selftimed_asm(const Instance& inst,
                                  const AsmParams& params) {
  const Schedule sched = resolve_schedule(params, inst.n_men(), inst.n_women());
  const PhaseScript script(sched);
  const auto& bg = inst.graph();
  Network net(bg.graph());
  // The nodes and global bounds AsmEngine gives its players.
  mm::NodePool nodes;
  nodes.prepare(params.mm_backend, params.seed, bg.node_count(),
                g0_degree_bound(inst, sched.k), bg.node_count());

  std::vector<SelfTimedMan> men;
  men.reserve(static_cast<std::size_t>(inst.n_men()));
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    men.emplace_back(
        ManPlayer(bg.man_id(m), inst.man_pref(m), sched.k, inst.n_men(),
                  nodes[bg.man_id(m)]),
        script, params.drop_unsatisfied_men);
  }
  std::vector<SelfTimedWoman> women;
  women.reserve(static_cast<std::size_t>(inst.n_women()));
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    women.emplace_back(
        WomanPlayer(bg.woman_id(w), inst.woman_pref(w), sched.k,
                    nodes[bg.woman_id(w)]),
        script);
  }

  // The protocol-agnostic synchronous driver: move messages, nothing else.
  for (std::int64_t round = 0; round < script.total_rounds(); ++round) {
    net.begin_round();
    for (NodeId m = 0; m < inst.n_men(); ++m) {
      men[static_cast<std::size_t>(m)].step(round, net.inbox(bg.man_id(m)),
                                            net);
    }
    for (NodeId w = 0; w < inst.n_women(); ++w) {
      women[static_cast<std::size_t>(w)].step(round,
                                              net.inbox(bg.woman_id(w)), net);
    }
    net.end_round();
  }
  // The final resolve round's rejections are still in flight; processors
  // would consume them at their next activation.
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    men[static_cast<std::size_t>(m)].player().finalize(
        net.inbox(bg.man_id(m)));
  }

  SelfTimedResult result;
  result.schedule = sched;
  result.net = net.stats();
  Matching matching(bg.node_count());
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    const NodeId m = women[static_cast<std::size_t>(w)].player().partner();
    if (m == kNoNode) continue;
    DASM_CHECK(men[static_cast<std::size_t>(m)].player().partner() == w);
    matching.add(bg.man_id(m), bg.woman_id(w));
  }
  result.matching = std::move(matching);
  result.good_men.resize(static_cast<std::size_t>(inst.n_men()));
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    const bool good = men[static_cast<std::size_t>(m)].player().good();
    result.good_men[static_cast<std::size_t>(m)] = good;
    (good ? result.good_count : result.bad_count) += 1;
  }
  return result;
}

}  // namespace dasm::core
