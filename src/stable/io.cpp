#include "stable/io.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace dasm {

namespace {

std::string next_token(std::istream& is, const char* what) {
  std::string tok;
  DASM_CHECK_MSG(static_cast<bool>(is >> tok), "unexpected end of input, "
                                               "expected " << what);
  return tok;
}

// Strict decimal parse of a whole token into a NodeId (util/parse.hpp):
// rejects trailing garbage ("12x34" is not 12) and values that fit a long
// but not a NodeId ("4294967296" is not 0).
std::optional<NodeId> parse_id(const std::string& tok) {
  return parse_integer<NodeId>(tok, kNoNode);
}

NodeId next_id(std::istream& is, const char* what) {
  const std::string tok = next_token(is, what);
  const std::optional<NodeId> id = parse_id(tok);
  DASM_CHECK_MSG(id.has_value(),
                 "expected " << what << ", got '" << tok << "'");
  return *id;
}

void expect_token(std::istream& is, const std::string& expected) {
  const std::string tok = next_token(is, expected.c_str());
  DASM_CHECK_MSG(tok == expected,
                 "expected '" << expected << "', got '" << tok << "'");
}

// Reads ranked partner ids up to end-of-line. Malformed tokens become load
// diagnostics (CheckError) naming the token, not uncaught std::stol throws
// or silent truncations.
Ranking read_ranking_line(std::istream& is) {
  std::string line;
  std::getline(is, line);
  std::istringstream ls(line);
  Ranking ranked;
  std::string tok;
  while (ls >> tok) {
    const std::optional<NodeId> id = parse_id(tok);
    DASM_CHECK_MSG(id.has_value(), "bad partner id '" << tok << "'");
    ranked.push_back(*id);
  }
  return ranked;
}

void write_list(std::ostream& os, char tag, NodeId i,
                const PreferenceList& list) {
  os << tag << ' ' << i << " :";
  for (NodeId u : list.ranked()) os << ' ' << u;
  os << '\n';
}

}  // namespace

void save_instance(std::ostream& os, const Instance& inst) {
  os << "dasm-instance 1\n"
     << "men " << inst.n_men() << " women " << inst.n_women() << '\n';
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    write_list(os, 'm', m, inst.man_pref(m));
  }
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    write_list(os, 'w', w, inst.woman_pref(w));
  }
}

Instance load_instance(std::istream& is) {
  expect_token(is, "dasm-instance");
  expect_token(is, "1");
  expect_token(is, "men");
  const NodeId n_men = next_id(is, "men count");
  expect_token(is, "women");
  const NodeId n_women = next_id(is, "women count");
  DASM_CHECK_MSG(n_men >= 0 && n_women >= 0, "negative side size");

  auto read_side = [&](char tag, NodeId count) {
    std::vector<Ranking> lists;
    lists.reserve(static_cast<std::size_t>(count));
    for (NodeId i = 0; i < count; ++i) {
      const std::string t = next_token(is, "side tag");
      DASM_CHECK_MSG(t.size() == 1 && t[0] == tag,
                     "expected '" << tag << "', got '" << t << "'");
      const NodeId idx = next_id(is, "player index");
      DASM_CHECK_MSG(idx == i, "players out of order: expected " << i
                                                                 << ", got "
                                                                 << idx);
      expect_token(is, ":");
      lists.push_back(read_ranking_line(is));
    }
    return lists;
  };
  auto men = read_side('m', n_men);
  auto women = read_side('w', n_women);
  return Instance(std::move(men), std::move(women));
}

void save_instance_file(const std::string& path, const Instance& inst) {
  std::ofstream os(path);
  DASM_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  save_instance(os, inst);
  DASM_CHECK_MSG(os.good(), "write to '" << path << "' failed");
}

Instance load_instance_file(const std::string& path) {
  std::ifstream is(path);
  DASM_CHECK_MSG(is.good(), "cannot open '" << path << "'");
  return load_instance(is);
}

void save_matching(std::ostream& os, const Instance& inst,
                   const Matching& matching) {
  DASM_CHECK(matching.node_count() == inst.graph().node_count());
  os << "dasm-matching 1\n"
     << "pairs " << matching.size() << '\n';
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    const NodeId p = matching.partner_of(inst.graph().man_id(m));
    if (p != kNoNode) {
      os << m << ' ' << inst.graph().woman_index(p) << '\n';
    }
  }
}

Matching load_matching(std::istream& is, const Instance& inst) {
  expect_token(is, "dasm-matching");
  expect_token(is, "1");
  expect_token(is, "pairs");
  const NodeId pairs = next_id(is, "pair count");
  Matching m(inst.graph().node_count());
  for (NodeId i = 0; i < pairs; ++i) {
    const NodeId man = next_id(is, "man index");
    const NodeId woman = next_id(is, "woman index");
    DASM_CHECK_MSG(man >= 0 && man < inst.n_men(),
                   "man index out of range: " << man);
    DASM_CHECK_MSG(woman >= 0 && woman < inst.n_women(),
                   "woman index out of range: " << woman);
    m.add(inst.graph().man_id(man), inst.graph().woman_id(woman));
  }
  return m;
}

Instance transpose(const Instance& inst) {
  std::vector<Ranking> men;
  for (NodeId w = 0; w < inst.n_women(); ++w) {
    const RankedView r = inst.woman_pref(w).ranked();
    men.emplace_back(r.begin(), r.end());
  }
  std::vector<Ranking> women;
  for (NodeId m = 0; m < inst.n_men(); ++m) {
    const RankedView r = inst.man_pref(m).ranked();
    women.emplace_back(r.begin(), r.end());
  }
  return Instance(men, women);
}

}  // namespace dasm
