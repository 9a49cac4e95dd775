// The request plan shared by the load generator and the traced replay:
// every line the benchmark sends on its one connection, in send order,
// tagged with its phase, its batch and its scheduled send time.
//
//   servebench-plan 1
//   <phase> <batch> <offset_ns> <wire line>
//
// Lines of one batch go out together (a burst), and a burst phase waits
// for all of a batch's answers before it sends the next. In a paced phase
// every line is its own batch, sent `offset_ns` after the phase starts.
// run.py writes plans; see make_plan there.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace servebench {

struct PlanLine {
  std::string phase;
  std::int64_t batch = 0;
  std::int64_t offset_ns = 0;
  std::string text;  ///< the wire line, without its newline
  bool is_request = false;  ///< a `request` line, answered by one line
};

struct Phase {
  std::string name;
  std::size_t begin = 0;  ///< line range [begin, end) of the plan
  std::size_t end = 0;
  bool paced = false;
};

struct Plan {
  std::vector<PlanLine> lines;
  std::vector<Phase> phases;
};

inline Plan read_plan(const std::string& path) {
  std::ifstream is(path);
  std::string header;
  if (!std::getline(is, header) || header != "servebench-plan 1") {
    throw std::runtime_error("'" + path + "' is not a servebench plan");
  }
  Plan plan;
  std::string row;
  while (std::getline(is, row)) {
    std::istringstream rs(row);
    PlanLine line;
    if (!(rs >> line.phase >> line.batch >> line.offset_ns)) {
      throw std::runtime_error("malformed plan row: " + row);
    }
    rs >> std::ws;
    std::getline(rs, line.text);
    line.is_request = line.text.rfind("request ", 0) == 0;
    if (plan.phases.empty() || plan.phases.back().name != line.phase) {
      plan.phases.push_back(Phase{line.phase, plan.lines.size(),
                                  plan.lines.size(), line.phase == "paced"});
    }
    plan.lines.push_back(std::move(line));
    plan.phases.back().end = plan.lines.size();
  }
  return plan;
}

}  // namespace servebench
