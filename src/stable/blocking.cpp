#include "stable/blocking.hpp"

#include "util/check.hpp"

namespace dasm {

namespace {

// Partner of man m (woman index) under `matching`, or kNoNode.
NodeId partner_of_man(const Instance& inst, const Matching& matching,
                      NodeId m) {
  const NodeId p = matching.partner_of(inst.graph().man_id(m));
  return p == kNoNode ? kNoNode : inst.graph().woman_index(p);
}

NodeId partner_of_woman(const Instance& inst, const Matching& matching,
                        NodeId w) {
  const NodeId p = matching.partner_of(inst.graph().woman_id(w));
  return p == kNoNode ? kNoNode : inst.graph().man_index(p);
}

// A woman whose matched partner is missing from her list only throws when
// a scan actually evaluates her side of the predicate (the serial scans
// always worked that way); the sentinel defers the CheckError until then.
constexpr std::int64_t kUnrankedPartner = -1;

// Shared per-scan state: the 1-based rank every woman gives her current
// partner (deg + 1 when unmatched, kUnrankedPartner when he is not on her
// list), computed once so the inner loops are pure array reads.
struct ScanPlan {
  const Instance* inst;
  const Matching* matching;
  std::vector<std::int64_t> wrank1_pw;
  bool any_sentinel = false;
};

ScanPlan make_plan(const Instance& inst, const Matching& matching) {
  DASM_CHECK(matching.node_count() == inst.graph().node_count());
  ScanPlan plan;
  plan.inst = &inst;
  plan.matching = &matching;
  plan.wrank1_pw.resize(static_cast<std::size_t>(inst.n_women()));
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    const PreferenceList& wp = inst.woman_pref(w);
    const NodeId pw = partner_of_woman(inst, matching, w);
    std::int64_t r1;
    if (pw == kNoNode) {
      r1 = static_cast<std::int64_t>(wp.degree()) + 1;
    } else {
      const NodeId r = wp.rank_of(pw);
      if (r == kNoNode) {
        r1 = kUnrankedPartner;
        plan.any_sentinel = true;
      } else {
        r1 = static_cast<std::int64_t>(r) + 1;
      }
    }
    plan.wrank1_pw[static_cast<std::size_t>(w)] = r1;
  }
  return plan;
}

// Definition 1 pairs of man m, visited in rank order. The man's side of
// the predicate holds exactly at ranks before his partner's, so only that
// prefix is scanned; the woman's side compares her O(1) arena rank of m
// against the precomputed rank of her partner. Returns false iff `visit`
// stopped the scan.
template <typename Visitor>
bool classic_scan_man(const ScanPlan& plan, NodeId m, Visitor&& visit) {
  const Instance& inst = *plan.inst;
  const PreferenceList& mp = inst.man_pref(m);
  const NodeId deg = mp.degree();
  const NodeId pm = partner_of_man(inst, *plan.matching, m);
  NodeId bound = deg;
  if (pm != kNoNode) {
    const NodeId rpm = mp.rank_of(pm);
    if (rpm == kNoNode) {
      DASM_CHECK_MSG(deg == 0, "partner " << pm << " is not ranked");
      return true;
    }
    bound = rpm;
  }
  const RankedView ranked = mp.ranked();
  for (NodeId r = 0; r < bound; ++r) {
    const NodeId w = ranked[static_cast<std::size_t>(r)];
    const std::int64_t pw1 = plan.wrank1_pw[static_cast<std::size_t>(w)];
    DASM_CHECK_MSG(pw1 != kUnrankedPartner,
                   "woman " << w << " is matched to a partner she does not rank");
    const std::int64_t wr1m =
        static_cast<std::int64_t>(inst.woman_pref(w).rank_of(m)) + 1;
    DASM_DCHECK(wr1m >= 1);  // symmetry: m is always on w's list
    if (wr1m < pw1) {
      if (!visit(BlockingPair{m, w})) return false;
    }
  }
  return true;
}

// Definition 2 pairs of man m, visited in rank order. The man-side gap
// P^m(p(m)) - P^m(w) strictly decreases in rank while the threshold is
// constant, so the scan stops at the first rank where it fails — except
// when some woman's sentinel could fire, where the full list is walked to
// preserve the serial scan's eager woman-side evaluation (and its throw).
template <typename Visitor>
bool eps_scan_man(const ScanPlan& plan, NodeId m, double eps,
                  Visitor&& visit) {
  const Instance& inst = *plan.inst;
  const PreferenceList& mp = inst.man_pref(m);
  const NodeId deg = mp.degree();
  if (deg == 0) return true;
  const NodeId pm = partner_of_man(inst, *plan.matching, m);
  std::int64_t pm1;
  if (pm == kNoNode) {
    pm1 = static_cast<std::int64_t>(deg) + 1;
  } else {
    const NodeId rpm = mp.rank_of(pm);
    DASM_CHECK_MSG(rpm != kNoNode, "partner " << pm << " is not ranked");
    pm1 = static_cast<std::int64_t>(rpm) + 1;
  }
  const double man_thresh = eps * static_cast<double>(deg);
  const RankedView ranked = mp.ranked();
  for (NodeId r = 0; r < deg; ++r) {
    const NodeId w = ranked[static_cast<std::size_t>(r)];
    if (w == pm) continue;  // matched pairs never block
    const double man_gap =
        static_cast<double>(pm1 - (static_cast<std::int64_t>(r) + 1));
    if (!(man_gap >= man_thresh)) {
      if (!plan.any_sentinel) break;  // gap only shrinks from here on
      const std::int64_t pw1 = plan.wrank1_pw[static_cast<std::size_t>(w)];
      DASM_CHECK_MSG(pw1 != kUnrankedPartner,
                     "woman " << w
                              << " is matched to a partner she does not rank");
      continue;
    }
    const PreferenceList& wp = inst.woman_pref(w);
    const std::int64_t pw1 = plan.wrank1_pw[static_cast<std::size_t>(w)];
    DASM_CHECK_MSG(pw1 != kUnrankedPartner,
                   "woman " << w << " is matched to a partner she does not rank");
    const std::int64_t wr1m = static_cast<std::int64_t>(wp.rank_of(m)) + 1;
    DASM_DCHECK(wr1m >= 1);
    const double woman_gap = static_cast<double>(pw1 - wr1m);
    if (woman_gap >= eps * static_cast<double>(wp.degree())) {
      if (!visit(BlockingPair{m, w})) return false;
    }
  }
  return true;
}

// `scan_man(plan, m, visit)` for the two predicates, so the drivers below
// are predicate-agnostic.
struct ClassicScan {
  template <typename Visitor>
  bool operator()(const ScanPlan& plan, NodeId m, Visitor&& visit) const {
    return classic_scan_man(plan, m, visit);
  }
};

struct EpsScan {
  double eps;
  template <typename Visitor>
  bool operator()(const ScanPlan& plan, NodeId m, Visitor&& visit) const {
    return eps_scan_man(plan, m, eps, visit);
  }
};

bool selected(const std::vector<bool>* man_filter, NodeId m) {
  return man_filter == nullptr || (*man_filter)[static_cast<std::size_t>(m)];
}

template <typename ScanMan>
std::vector<BlockingPair> collect_pairs(const ScanPlan& plan,
                                        const ScanMan& scan_man) {
  std::vector<BlockingPair> out;
  for (NodeId m = 0; m < plan.inst->n_men(); ++m) {
    scan_man(plan, m, [&out](const BlockingPair& bp) {
      out.push_back(bp);
      return true;
    });
  }
  return out;
}

template <typename ScanMan>
std::optional<BlockingPair> first_pair(const ScanPlan& plan,
                                       const ScanMan& scan_man) {
  std::optional<BlockingPair> found;
  for (NodeId m = 0; m < plan.inst->n_men() && !found; ++m) {
    scan_man(plan, m, [&found](const BlockingPair& bp) {
      found = bp;
      return false;
    });
  }
  return found;
}

template <typename ScanMan>
std::int64_t count_pairs(const ScanPlan& plan,
                         const std::vector<bool>* man_filter,
                         const ScanMan& scan_man) {
  std::int64_t count = 0;
  for (NodeId m = 0; m < plan.inst->n_men(); ++m) {
    if (!selected(man_filter, m)) continue;
    scan_man(plan, m, [&count](const BlockingPair&) {
      ++count;
      return true;
    });
  }
  return count;
}

}  // namespace

std::vector<BlockingPair> blocking_pairs(const Instance& inst,
                                         const Matching& matching) {
  return collect_pairs(make_plan(inst, matching), ClassicScan{});
}

std::optional<BlockingPair> first_blocking_pair(const Instance& inst,
                                                const Matching& matching) {
  return first_pair(make_plan(inst, matching), ClassicScan{});
}

std::int64_t count_blocking_pairs(const Instance& inst,
                                  const Matching& matching) {
  return count_pairs(make_plan(inst, matching), nullptr, ClassicScan{});
}

bool is_stable(const Instance& inst, const Matching& matching) {
  return !first_blocking_pair(inst, matching).has_value();
}

bool is_almost_stable(const Instance& inst, const Matching& matching,
                      double eps) {
  // Same decision as comparing the full count against eps * |E|: the count
  // only grows during the scan, so the first excess witness settles it.
  const double budget = eps * static_cast<double>(inst.edge_count());
  const ScanPlan plan = make_plan(inst, matching);
  std::int64_t count = 0;
  bool within = true;
  for (NodeId m = 0; m < inst.n_men() && within; ++m) {
    classic_scan_man(plan, m, [&](const BlockingPair&) {
      ++count;
      within = static_cast<double>(count) <= budget;
      return within;
    });
  }
  return within;
}

std::vector<BlockingPair> eps_blocking_pairs(const Instance& inst,
                                             const Matching& matching,
                                             double eps) {
  return collect_pairs(make_plan(inst, matching), EpsScan{eps});
}

std::optional<BlockingPair> first_eps_blocking_pair(const Instance& inst,
                                                    const Matching& matching,
                                                    double eps) {
  return first_pair(make_plan(inst, matching), EpsScan{eps});
}

std::int64_t count_eps_blocking_pairs(const Instance& inst,
                                      const Matching& matching, double eps) {
  return count_pairs(make_plan(inst, matching), nullptr, EpsScan{eps});
}

std::int64_t count_eps_blocking_pairs_among(
    const Instance& inst, const Matching& matching, double eps,
    const std::vector<bool>& man_filter) {
  DASM_CHECK(static_cast<NodeId>(man_filter.size()) == inst.n_men());
  return count_pairs(make_plan(inst, matching), &man_filter, EpsScan{eps});
}

std::int64_t count_blocking_pairs_among(const Instance& inst,
                                        const Matching& matching,
                                        const std::vector<bool>& man_filter) {
  DASM_CHECK(static_cast<NodeId>(man_filter.size()) == inst.n_men());
  return count_pairs(make_plan(inst, matching), &man_filter, ClassicScan{});
}

std::int64_t validate_matching(const Instance& inst,
                               const Matching& matching) {
  DASM_CHECK_MSG(matching.node_count() == inst.graph().node_count(),
                 "matching node space does not match instance");
  DASM_CHECK_MSG(matching.is_valid(inst.graph().graph()),
                 "matching uses a non-edge or is inconsistent");
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    const NodeId w = partner_of_man(inst, matching, m);
    if (w == kNoNode) continue;
    DASM_CHECK_MSG(inst.man_pref(m).contains(w),
                   "man " << m << " matched to unranked woman " << w);
    DASM_CHECK_MSG(inst.woman_pref(w).contains(m),
                   "woman " << w << " matched to unranked man " << m);
  }
  return matching.size();
}

}  // namespace dasm
