// Traced in-process replay of the serve benchmark (run.py).
//
//   servebench_replay --corpus F --plan F --out DIR --spans 0|1 --probes 0|1
//   servebench_replay --self-test
//
// It feeds the plan's exact line stream through the same public calls
// `dasm serve` makes, on one thread, batch by batch as the load generator
// sends it: LineBuffer framing, parse_request / parse_instance_decl,
// make_declared_instance + InstanceStore::add, MatchService::submit and
// run_batch, and Response::write_line with the per-connection id rewrite.
// Its answer lines are therefore the oracle the wire answers must equal.
//
// With --spans 1 it records a span around every one of those calls: layer,
// plan line (the request id; -1 for spans that serve a whole batch),
// parent span, start and end. Spans stay in memory until the run ends.
// The engine runs inside run_batch, out of reach of a span, so the time a
// batch spent in its cells is read from the service's own
// time.svc.execute_us histogram and recorded as a `svc.cells` child of
// the batch span. With --probes 1 every request that missed the cache is
// then run once more through the engine's public entry points (core::
// run_asm / run_rand_asm, mm::run_maximal_matching, count_blocking_pairs)
// under `engine.cell` spans, and each result must equal the service's.
//
// Output in DIR:
//   answers.txt    one answer line per request line, in send order
//   instances.tsv  name edges, for every registered instance
//   probes.tsv     phase line algo lossy rounds messages mm_rounds
//                  retransmitted duplicated          (--probes 1)
//   layers.tsv     phase layer calls self_ns total_ns (--spans 1)
//   spans.tsv      id parent phase line layer start_ns end_ns self_ns
//   summary.tsv    key value (wall_ns: the stream's wall time)
#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "mm/runner.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "plan.hpp"
#include "stable/blocking.hpp"
#include "svc/service.hpp"

namespace servebench {
namespace {

using namespace dasm;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int32_t layer = 0;
  std::int32_t parent = -1;
  std::int32_t phase = -1;  ///< plan phase index; -1 = setup
  std::int64_t line = -1;   ///< plan line; -1 = the whole batch
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Spans nest by call order: a span's parent is
/// the innermost span still open when it begins. When disabled, no call
/// reads the clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int layer(const std::string& name) {
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) return static_cast<int>(it - names_.begin());
    names_.push_back(name);
    return static_cast<int>(names_.size()) - 1;
  }

  /// Opens a span and returns its index (-1 when disabled).
  int begin(int layer, int phase, std::int64_t line) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{layer, parent, phase, line, now_ns(), 0});
    return open_.back();
  }

  void end() {
    if (!on_) return;
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  /// Adds a child of span `parent` that starts with it and lasts
  /// `duration_ns`.
  void add_child(int parent, int layer, std::int64_t duration_ns) {
    if (!on_) return;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back(Span{layer, parent, p.phase, p.line, p.start_ns,
                          p.start_ns + duration_ns});
  }

  template <class F>
  auto time(int layer, int phase, std::int64_t line, F&& f) {
    begin(layer, phase, line);
    struct Closer {
      Tracer* t;
      ~Closer() { t->end(); }
    } closer{this};
    return f();
  }

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  bool on_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a child
/// is clipped to its parent).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // covered up to here
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

int self_test() {
  // Parent [0,100] with children [10,30], [20,40] (overlapping) and
  // [90,120] (clipped at 100); [25,35] is a grandchild under [20,40].
  const std::vector<Span> spans = {
      {0, -1, 0, -1, 0, 100}, {1, 0, 0, 1, 10, 30}, {1, 0, 0, 2, 20, 40},
      {1, 0, 0, 3, 90, 120},  {2, 2, 0, 2, 25, 35},
  };
  const std::vector<std::int64_t> want = {60, 20, 10, 30, 10};
  const std::vector<std::int64_t> got = self_times(spans);
  if (got != want) {
    std::cerr << "self-time self-test failed\n";
    return 1;
  }
  std::cout << "self-time self-test passed\n";
  return 0;
}

/// The engine half of svc::execute_request, one public call per span.
svc::Response probe(const svc::StoredInstance& inst, const svc::Request& req,
                    Tracer& tr, int phase, std::int64_t line,
                    std::ostream& probes, const std::string& phase_name) {
  svc::Response resp;
  resp.algo = req.algo;
  std::int64_t mm_rounds = 0;
  NetStats net;
  const int certify = tr.layer("stable.certify");
  switch (req.algo) {
    case svc::Algo::kAsm: {
      core::AsmParams params;
      params.epsilon = req.epsilon;
      params.seed = req.seed;
      params.mm_backend = req.backend;
      params.max_rounds = req.max_rounds;
      params.fault_plan = req.fault_plan;
      params.retransmit_after = req.retransmit_after;
      params.max_retransmits = req.max_retransmits;
      params.threads = 1;
      const core::AsmResult r = tr.time(tr.layer("core.asm"), phase, line,
                                        [&] { return core::run_asm(inst.instance, params); });
      resp.blocking = tr.time(certify, phase, line, [&] {
        return count_blocking_pairs(inst.instance, r.matching);
      });
      resp.matched = r.matching.size();
      mm_rounds = r.mm_rounds_executed;
      net = r.net;
      break;
    }
    case svc::Algo::kRandAsm: {
      core::RandAsmParams params;
      params.epsilon = req.epsilon;
      params.seed = req.seed;
      params.fault_plan = req.fault_plan;
      params.retransmit_after = req.retransmit_after;
      params.max_retransmits = req.max_retransmits;
      params.threads = 1;
      const core::AsmResult r =
          tr.time(tr.layer("core.rand_asm"), phase, line,
                  [&] { return core::run_rand_asm(inst.instance, params); });
      resp.blocking = tr.time(certify, phase, line, [&] {
        return count_blocking_pairs(inst.instance, r.matching);
      });
      resp.matched = r.matching.size();
      mm_rounds = r.mm_rounds_executed;
      net = r.net;
      break;
    }
    case svc::Algo::kMm: {
      const Graph& g = inst.instance.graph().graph();
      std::vector<bool> is_left(static_cast<std::size_t>(g.node_count()));
      for (NodeId v = 0; v < inst.instance.n_men(); ++v) {
        is_left[static_cast<std::size_t>(v)] = true;
      }
      mm::RunConfig config;
      config.backend = req.backend;
      config.seed = req.seed;
      config.max_iterations = req.mm_iterations;
      config.fault_plan = req.fault_plan;
      config.retransmit_after = req.retransmit_after;
      config.max_retransmits = req.max_retransmits;
      config.threads = 1;
      const mm::RunResult r = tr.time(tr.layer("mm.run"), phase, line, [&] {
        return mm::run_maximal_matching(g, is_left, config);
      });
      resp.matched = r.matching.size();
      resp.maximal = r.maximal ? 1 : 0;
      net = r.net;
      break;
    }
  }
  resp.rounds = net.executed_rounds;
  resp.messages = net.messages;
  resp.bits = net.bits;
  probes << phase_name << '\t' << line << '\t' << svc::to_string(req.algo)
         << '\t' << (req.fault_plan.drop > 0.0 ? 1 : 0) << '\t'
         << net.executed_rounds << '\t' << net.messages << '\t' << mm_rounds
         << '\t' << net.retransmitted << '\t' << net.duplicated << '\n';
  return resp;
}

std::int64_t execute_us_sum(const obs::MetricsRegistry& reg) {
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == "time.svc.execute_us") return h.sum;
  }
  return 0;
}

struct Args {
  std::string corpus, plan, out;
  bool spans = false;
  bool probes = false;
};

int replay(const Args& args) {
  const Plan plan = read_plan(args.plan);
  Tracer tr(args.spans);
  const int l_frame = tr.layer("net.frame");
  const int l_parse = tr.layer("svc.parse");
  const int l_submit = tr.layer("svc.submit");
  const int l_batch = tr.layer("svc.batch");
  const int l_cells = tr.layer("svc.cells");
  const int l_register = tr.layer("svc.register");
  const int l_serialize = tr.layer("net.serialize");
  const int l_cell = tr.layer("engine.cell");

  obs::MetricsRegistry registry;
  svc::SvcConfig config;
  config.threads = 1;  // cells run inline, inside the batch span
  config.metrics = &registry;
  svc::MatchService service(config);
  std::ofstream instances_os(args.out + "/instances.tsv");
  std::ostringstream probes_os;

  const auto register_decl = [&](const svc::RequestFile::InstanceDecl& decl,
                                 int phase, std::int64_t line) {
    Instance inst = tr.time(tr.layer("gen.build." + decl.family), phase, line,
                            [&] { return svc::make_declared_instance(decl); });
    const std::int64_t edges = inst.edge_count();
    tr.time(l_register, phase, line, [&] {
      return &service.instances().add(decl.name, std::move(inst));
    });
    instances_os << decl.name << '\t' << edges << '\n';
  };

  // Setup: what `dasm serve --preload` does before it accepts.
  for (const auto& decl : svc::load_requests_file(args.corpus).instances) {
    register_decl(decl, -1, -1);
  }

  net::LineBuffer in(std::size_t{1} << 16);  // ServeConfig::max_line_bytes
  in.append("dasm-requests 1\n");
  std::string text;
  in.next(&text);

  std::vector<std::string> answers;
  std::vector<std::int64_t> request_line;  // service id -> plan line
  std::unordered_set<svc::CacheKey, svc::CacheKeyHash> seen_keys;
  std::int64_t next_seq = 0;
  std::int64_t cells_us = 0;  // time.svc.execute_us sum at the last read
  std::ostringstream os;
  bool probe_mismatch = false;

  const std::int64_t t0 = now_ns();
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const Phase& phase = plan.phases[p];
    const int ph = static_cast<int>(p);
    for (std::size_t i = phase.begin; i < phase.end;) {
      const std::size_t first = i;
      std::string bytes;
      for (const std::int64_t batch = plan.lines[i].batch;
           i < phase.end && plan.lines[i].batch == batch; ++i) {
        bytes += plan.lines[i].text;
        bytes += '\n';
      }
      // The server reads a burst in 4 KiB recv() chunks, all of them
      // before it extracts the first line.
      tr.time(l_frame, ph, -1, [&] {
        for (std::size_t off = 0; off < bytes.size(); off += 4096) {
          in.append(std::string_view(bytes).substr(off, 4096));
        }
        return 0;
      });
      for (std::size_t k = first; k < i; ++k) {
        const auto next = tr.time(l_frame, ph, static_cast<std::int64_t>(k),
                                  [&] { return in.next(&text); });
        if (next != net::LineBuffer::Next::kLine) {
          throw std::runtime_error("framing failed on plan line " +
                                   std::to_string(k));
        }
        std::istringstream ls(text);
        std::string kind;
        ls >> kind;
        try {
          if (kind == "request") {
            const svc::Request req = tr.time(
                l_parse, ph, static_cast<std::int64_t>(k),
                [&] { return svc::parse_request(ls); });
            if (service.instances().find(req.instance) == nullptr) {
              answers.push_back("ERR request names unregistered instance '" +
                                req.instance + "'");
              continue;
            }
            const std::int64_t id =
                tr.time(l_submit, ph, static_cast<std::int64_t>(k),
                        [&] { return service.submit(req); });
            if (id < 0) {
              answers.push_back("ERR shed");
              continue;
            }
            request_line.push_back(static_cast<std::int64_t>(k));
          } else if (kind == "instance") {
            const auto decl =
                tr.time(l_parse, ph, static_cast<std::int64_t>(k),
                        [&] { return svc::parse_instance_decl(ls); });
            if (decl.from_file ||
                service.instances().find(decl.name) != nullptr) {
              answers.push_back("ERR instance '" + decl.name +
                                "' is a file or already registered");
              continue;
            }
            register_decl(decl, ph, static_cast<std::int64_t>(k));
          } else {
            answers.push_back("ERR expected 'request' or 'instance'");
          }
        } catch (const CheckError& e) {
          answers.push_back(std::string("ERR ") + e.what());
        }
      }

      const std::int64_t misses = service.stats().cache_misses;
      const int batch_span = tr.begin(l_batch, ph, -1);
      service.run_batch();
      tr.end();
      if (service.stats().cache_misses != misses) {
        // Cells ran; the histogram sum moves only then, so read it only
        // then (a snapshot costs far more than a cache-hit batch).
        const std::int64_t sum = execute_us_sum(registry);
        tr.add_child(batch_span, l_cells, (sum - cells_us) * 1000);
        cells_us = sum;
      }

      for (svc::Response& resp : service.take_responses()) {
        const std::int64_t line =
            request_line[static_cast<std::size_t>(resp.id)];
        const bool miss = seen_keys.insert(resp.key).second;
        resp.id = next_seq++;
        tr.time(l_serialize, ph, line, [&] {
          os.str(std::string());
          resp.write_line(os);
          return 0;
        });
        std::string answer = os.str();
        answer.pop_back();  // the newline
        answers.push_back(std::move(answer));
        if (!args.probes || !miss) continue;
        const svc::Request req = [&] {
          std::istringstream ls(plan.lines[static_cast<std::size_t>(line)].text);
          std::string kind;
          ls >> kind;
          return svc::parse_request(ls);
        }();
        const svc::StoredInstance& inst = *service.instances().find(req.instance);
        tr.begin(l_cell, ph, line);
        const svc::Response direct =
            probe(inst, req, tr, ph, line, probes_os, phase.name);
        tr.end();
        if (direct.matched != resp.matched ||
            direct.blocking != resp.blocking ||
            direct.maximal != resp.maximal || direct.rounds != resp.rounds ||
            direct.messages != resp.messages || direct.bits != resp.bits) {
          std::cerr << "engine probe disagrees with the service on plan line "
                    << line << '\n';
          probe_mismatch = true;
        }
      }
    }
  }
  const std::int64_t wall_ns = now_ns() - t0;

  std::ofstream answers_os(args.out + "/answers.txt");
  for (const std::string& a : answers) answers_os << a << '\n';
  if (args.probes) std::ofstream(args.out + "/probes.tsv") << probes_os.str();
  std::ofstream(args.out + "/summary.tsv")
      << "wall_ns\t" << wall_ns << "\nspans\t" << tr.spans().size() << '\n';

  if (tr.on()) {
    const std::vector<Span>& spans = tr.spans();
    const std::vector<std::int64_t> self = self_times(spans);
    const auto phase_name = [&](int ph) {
      return ph < 0 ? std::string("setup")
                    : plan.phases[static_cast<std::size_t>(ph)].name;
    };
    std::ofstream sos(args.out + "/spans.tsv");
    // (phase, layer) -> calls, self, total
    std::map<std::pair<int, int>, std::array<std::int64_t, 3>> agg;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      const Span& sp = spans[s];
      sos << s << '\t' << sp.parent << '\t' << phase_name(sp.phase) << '\t'
          << sp.line << '\t' << tr.names()[static_cast<std::size_t>(sp.layer)]
          << '\t' << sp.start_ns - t0 << '\t' << sp.end_ns - t0 << '\t'
          << self[s] << '\n';
      auto& a = agg[{sp.phase, sp.layer}];
      a[0] += 1;
      a[1] += self[s];
      a[2] += sp.end_ns - sp.start_ns;
    }
    std::ofstream los(args.out + "/layers.tsv");
    for (const auto& [key, a] : agg) {
      los << phase_name(key.first) << '\t'
          << tr.names()[static_cast<std::size_t>(key.second)] << '\t' << a[0]
          << '\t' << a[1] << '\t' << a[2] << '\n';
    }
  }
  return probe_mismatch ? 3 : 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--corpus") a.corpus = value;
    else if (key == "--plan") a.plan = value;
    else if (key == "--out") a.out = value;
    else if (key == "--spans") a.spans = value == "1";
    else if (key == "--probes") a.probes = value == "1";
    else throw std::runtime_error("unknown flag " + key);
  }
  if (a.corpus.empty() || a.plan.empty() || a.out.empty()) {
    throw std::runtime_error(
        "usage: servebench_replay --corpus F --plan F --out DIR "
        "[--spans 0|1] [--probes 0|1] | --self-test");
  }
  std::filesystem::create_directories(a.out);
  return a;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--self-test") {
      return servebench::self_test();
    }
    return servebench::replay(servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench_replay: " << e.what() << '\n';
    return 2;
  }
}
