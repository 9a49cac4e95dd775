// dasm — command-line front end for the library.
//
//   dasm gen    --family <name> --n <N> [--seed S] [--d D] [--p P]
//               [--out inst.txt]
//   dasm info   --in inst.txt
//   dasm run    --algo <name> (--in inst.txt | --family <name> --n <N>)
//               [--eps E] [--seed S] [--max-rounds R] [--out matching.txt]
//               [--backend det|ii|rp] [--mimic-gs=true]   (asm only)
//               [--drop P] [--fault-seed S] [--retransmit-after K]
//               [--max-retransmits M]               (asm, rand-asm)
//               [--metrics-out snap.jsonl]          (asm, rand-asm)
//               [--sweeps K]                        (truncated-gs)
//   dasm verify --in inst.txt --matching matching.txt [--eps E]
//   dasm batch  --requests reqs.txt [--out responses.txt] [--threads T]
//               [--queue N] [--cache=false] [--trace-out trace.jsonl]
//               [--metrics-out snap.jsonl]
//   dasm serve  [--port P] [--host A] [--threads T] [--queue N]
//               [--cache=false] [--preload reqs.txt] [--port-file path]
//               [--idle-timeout-ms N] [--max-line-bytes N] [--batch-max N]
//               [--metrics-out snap.jsonl]
//
// Every subcommand rejects a flag it does not read (and any stray
// argument) with exit status 2 and a usage line, so a typo cannot
// silently change a run. A run is serial; --threads sizes only the
// batch scheduler of `batch` and `serve` (DESIGN.md §6).
//
// --metrics-out writes a wall-clock metrics snapshot (src/obs/metrics.hpp,
// DESIGN.md §11): ".prom" selects Prometheus text exposition, anything
// else the JSONL form that `dasm-trace metrics` summarizes and
// `dasm-trace diff` compares as a perf-regression gate.
//
// Algorithms: asm (deterministic, default), rand-asm, almost-regular-asm,
// gs (centralized), distributed-gs, truncated-gs, broadcast-gs.
// Families: complete, incomplete, regular, bounded, almost_regular,
// master, chain.
//
// `batch` drives the matching service (src/svc/, DESIGN.md §9): it
// registers the request file's instances, submits every request with
// backpressure against the bounded queue, and writes the response log.
// The log is byte-identical at every --threads value; see the format
// comment in src/svc/request.hpp.
//
// `serve` is the network-facing front end (src/net/, DESIGN.md §12): the
// same wire format over TCP, one response stream per connection, plus a
// GET /metrics Prometheus scrape endpoint on the same port. --port 0
// binds an ephemeral port (announced on stdout, and in --port-file for
// scripts); --preload registers a request file's instance declarations at
// startup, and is the only way to serve a `file` instance: the wire
// refuses them. SIGTERM/SIGINT trigger a graceful drain: in-flight requests
// finish, responses flush, then the process exits 0 (and writes the
// process-lifetime metrics snapshot when --metrics-out is set).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/almost_regular_asm.hpp"
#include "core/bounds.hpp"
#include "core/engine.hpp"
#include "core/rand_asm.hpp"
#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stable/blocking.hpp"
#include "stable/broadcast_gs.hpp"
#include "stable/distributed_gs.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/io.hpp"
#include "stable/metrics.hpp"
#include "stable/truncated_gs.hpp"
#include "net/server.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace dasm;

Instance make_instance(const Cli& cli) {
  if (cli.has("in")) return load_instance_file(cli.get("in", ""));
  const std::string family = cli.get("family", "complete");
  const NodeId n = static_cast<NodeId>(cli.get_int("n", 64));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const NodeId d = static_cast<NodeId>(cli.get_int("d", 8));
  const double p = cli.get_double("p", 0.2);
  if (family == "complete") return gen::complete_uniform(n, seed);
  if (family == "incomplete") return gen::incomplete_uniform(n, n, p, seed);
  if (family == "regular") return gen::regular_bipartite(n, d, seed);
  if (family == "bounded") return gen::bounded_degree(n, d, seed);
  if (family == "almost_regular")
    return gen::almost_regular(n, std::max<NodeId>(1, d / 2), d, seed);
  if (family == "master") return gen::master_list(n, n, seed);
  if (family == "chain") return gen::gs_displacement_chain(n);
  DASM_CHECK_MSG(false, "unknown family '" << family << "'");
  return gen::complete_uniform(n, seed);
}

void print_instance_info(const Instance& inst) {
  std::cout << "men:    " << inst.n_men() << '\n'
            << "women:  " << inst.n_women() << '\n'
            << "edges:  " << inst.edge_count() << '\n'
            << "complete: " << (inst.is_complete() ? "yes" : "no") << '\n'
            << "alpha (men-side regularity): " << inst.regularity_alpha()
            << '\n';
}

void report_matching(const Instance& inst, const Matching& matching,
                     double eps) {
  validate_matching(inst, matching);
  const auto metrics = compute_metrics(inst, matching);
  const auto blocking = count_blocking_pairs(inst, matching);
  std::cout << "matched pairs:     " << metrics.matched_pairs << '\n'
            << "unmatched:         " << metrics.unmatched_men << " men, "
            << metrics.unmatched_women << " women\n"
            << "blocking pairs:    " << blocking << " (eps*|E| budget "
            << eps * static_cast<double>(inst.edge_count()) << ", "
            << (is_almost_stable(inst, matching, eps) ? "met" : "NOT MET")
            << ")\n"
            << "stable:            "
            << (blocking == 0 ? "yes" : "no") << '\n'
            << "mean rank (men):   " << metrics.mean_man_rank() << '\n'
            << "mean rank (women): " << metrics.mean_woman_rank() << '\n'
            << "egalitarian cost:  " << metrics.egalitarian_cost << '\n'
            << "sex-equality cost: " << metrics.sex_equality_cost << '\n'
            << "regret (m/w):      " << metrics.men_regret << " / "
            << metrics.women_regret << '\n';
}

int cmd_gen(const Cli& cli) {
  const Instance inst = make_instance(cli);
  const std::string out = cli.get("out", "");
  if (out.empty()) {
    save_instance(std::cout, inst);
  } else {
    save_instance_file(out, inst);
    std::cout << "wrote " << out << " (" << inst.n_men() << "+"
              << inst.n_women() << " players, " << inst.edge_count()
              << " edges)\n";
  }
  return 0;
}

int cmd_info(const Cli& cli) {
  print_instance_info(make_instance(cli));
  return 0;
}

// Engine knobs shared by the asm and rand-asm paths: a lossy network and
// the reliability sublayer. Drop without retransmit is refused before
// round 0, since raw loss aborts the run — see AsmParams::fault_plan.
struct EngineFlags {
  FaultPlan fault_plan;
  int retransmit_after = 0;
  int max_retransmits = 64;
};

EngineFlags parse_engine_flags(const Cli& cli, std::uint64_t default_seed) {
  EngineFlags flags;
  flags.fault_plan.drop = cli.get_double("drop", 0.0);
  flags.fault_plan.seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed",
                                             static_cast<std::int64_t>(default_seed)));
  flags.retransmit_after =
      static_cast<int>(cli.get_int("retransmit-after", 0));
  flags.max_retransmits =
      static_cast<int>(cli.get_int("max-retransmits", 64));
  flags.fault_plan.validate();
  return flags;
}

int cmd_run(const Cli& cli) {
  const Instance inst = make_instance(cli);
  const std::string algo = cli.get("algo", "asm");
  const double eps = cli.get_double("eps", 0.25);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string metrics_out = cli.get("metrics-out", "");
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry* reg = metrics_out.empty() ? nullptr : &metrics;

  Matching matching(inst.graph().node_count());
  if (algo == "asm" || algo == "rand-asm") {
    const EngineFlags engine = parse_engine_flags(cli, seed);
    core::AsmResult r = [&] {
      if (algo == "asm") {
        core::AsmParams params;
        params.epsilon = eps;
        params.seed = seed;
        params.max_rounds = cli.get_int("max-rounds", 0);
        params.per_player_quantiles = cli.get_bool("mimic-gs", false);
        params.fault_plan = engine.fault_plan;
        params.retransmit_after = engine.retransmit_after;
        params.max_retransmits = engine.max_retransmits;
        params.metrics = reg;
        const std::string backend = cli.get("backend", "det");
        if (backend == "ii") {
          params.mm_backend = mm::Backend::kIsraeliItai;
        } else if (backend == "rp") {
          params.mm_backend = mm::Backend::kRandomPriority;
        } else {
          DASM_CHECK_MSG(backend == "det",
                         "--backend must be det, ii or rp, got '" << backend
                                                                  << "'");
        }
        return core::run_asm(inst, params);
      }
      core::RandAsmParams params;
      params.epsilon = eps;
      params.seed = seed;
      params.fault_plan = engine.fault_plan;
      params.retransmit_after = engine.retransmit_after;
      params.max_retransmits = engine.max_retransmits;
      params.metrics = reg;
      return core::run_rand_asm(inst, params);
    }();
    r.print_summary(std::cout);
    const auto cert = core::blocking_certificate(inst, r);
    std::cout << "certified blocking bound: " << cert.certified_bound
              << " (paper worst case " << cert.paper_bound << ")\n\n";
    matching = r.matching;
  } else if (algo == "almost-regular-asm") {
    core::AlmostRegularAsmParams params;
    params.epsilon = eps;
    params.seed = seed;
    const auto r = core::run_almost_regular_asm(inst, params);
    r.print_summary(std::cout);
    std::cout << '\n';
    matching = r.matching;
  } else if (algo == "gs") {
    const auto r = gale_shapley(inst);
    std::cout << "proposals: " << r.proposals << "\n\n";
    matching = r.matching;
  } else if (algo == "distributed-gs") {
    const auto r = distributed_gale_shapley(inst);
    std::cout << "sweeps: " << r.sweeps << ", rounds: "
              << r.net.executed_rounds << ", messages: " << r.net.messages
              << "\n\n";
    matching = r.matching;
  } else if (algo == "truncated-gs") {
    const auto r = truncated_gale_shapley(
        inst, cli.get_int("sweeps", 4));
    std::cout << "sweeps: " << r.sweeps << ", rounds: "
              << r.net.executed_rounds
              << (r.already_stable ? " (converged)" : " (truncated)")
              << "\n\n";
    matching = r.matching;
  } else if (algo == "broadcast-gs") {
    const auto r = broadcast_gale_shapley(inst);
    std::cout << "rounds: " << r.net.executed_rounds << ", messages: "
              << r.net.messages << ", reconstruction "
              << (r.reconstruction_verified ? "verified" : "FAILED")
              << "\n\n";
    matching = r.matching;
  } else {
    std::cerr << "unknown --algo '" << algo << "'\n";
    return 2;
  }

  {
    // The verification pass (validate + full blocking-pair certification
    // + metrics) is the certifier's production code path — time it.
    const obs::ScopedTimer certify_timer(
        reg != nullptr ? reg->histogram("time.certify.scan_us")
                       : obs::HistogramHandle{});
    report_matching(inst, matching, eps);
  }
  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    DASM_CHECK_MSG(os.good(), "cannot open '" << out << "'");
    save_matching(os, inst, matching);
    std::cout << "wrote matching to " << out << '\n';
  }
  if (reg != nullptr) {
    obs::write_metrics_file(reg->snapshot(), metrics_out);
    std::cout << "wrote metrics to " << metrics_out << '\n';
  }
  return 0;
}

// Keeps a run's large per-request buffers (a k96 run's Network arenas
// are about 1.2 MB) in the heap from one request to the next. Left to
// itself, glibc derives its mmap and trim thresholds from the sizes of
// earlier frees, so whether every request mapped, faulted in and
// returned its buffers afresh depended on what loading the instances had
// happened to free: about 400 page faults per k96 request after one
// corpus layout, none after another.
void keep_request_buffers_in_heap() {
#ifdef __GLIBC__
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

int cmd_batch(const Cli& cli) {
  keep_request_buffers_in_heap();
  const std::string requests_path = cli.get("requests", "");
  DASM_CHECK_MSG(!requests_path.empty(), "batch needs --requests <file>");
  const svc::RequestFile file = svc::load_requests_file(requests_path);
  DASM_CHECK_MSG(!file.requests.empty(),
                 "'" << requests_path << "' contains no requests");

  svc::SvcConfig config;
  config.threads = static_cast<int>(cli.get_int("threads", 1));
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue", 1024));
  config.cache_results = cli.get_bool("cache", true);
  obs::MemorySink sink;
  const std::string trace_out = cli.get("trace-out", "");
  if (!trace_out.empty()) config.obs_sink = &sink;
  obs::MetricsRegistry metrics;
  const std::string metrics_out = cli.get("metrics-out", "");
  if (!metrics_out.empty()) config.metrics = &metrics;

  svc::MatchService service(config);
  for (const auto& decl : file.instances) {
    service.instances().add(decl.name,
                            decl.from_file
                                ? load_instance_file(decl.path)
                                : svc::make_declared_instance(decl));
  }
  // Submit with backpressure: a full queue triggers a batch, after which
  // the resubmission is guaranteed to fit.
  for (const svc::Request& req : file.requests) {
    if (service.submit(req) < 0) {
      service.run_batch();
      DASM_CHECK(service.submit(req) >= 0);
    }
  }
  service.drain();

  const std::string out = cli.get("out", "");
  if (out.empty()) {
    service.write_responses(std::cout);
  } else {
    std::ofstream os(out);
    DASM_CHECK_MSG(os.good(), "cannot open '" << out << "'");
    service.write_responses(os);
    os.flush();
    DASM_CHECK_MSG(os.good(), "write to '" << out << "' failed");
  }
  if (!trace_out.empty()) obs::write_trace_file(sink, trace_out);

  const svc::SvcStats& stats = service.stats();
  std::cout << "instances:  " << service.instances().size() << '\n'
            << "requests:   " << stats.committed << " committed in "
            << stats.batches << " batch(es)\n"
            << "cache:      " << stats.cache_hits << " hits, "
            << stats.cache_misses << " misses ("
            << stats.executed_runs << " protocol runs), " << stats.shed
            << " shed\n"
            << "traffic:    " << stats.messages << " messages over "
            << stats.rounds << " executed rounds\n";
  if (!out.empty()) std::cout << "wrote " << out << '\n';
  if (!trace_out.empty()) std::cout << "wrote trace to " << trace_out << '\n';
  if (!metrics_out.empty()) {
    obs::write_metrics_file(metrics.snapshot(), metrics_out);
    std::cout << "wrote metrics to " << metrics_out << '\n';
  }
  return 0;
}

// Set by the SIGTERM/SIGINT handler; the serve loop checks it once per
// poll interval and then drains gracefully.
std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

int cmd_serve(const Cli& cli) {
  keep_request_buffers_in_heap();
  net::ServeConfig config;
  config.bind_address = cli.get("host", "127.0.0.1");
  config.port = static_cast<int>(cli.get_int("port", 0));
  config.idle_timeout_ms = cli.get_int("idle-timeout-ms", 30000);
  config.max_line_bytes =
      static_cast<std::size_t>(cli.get_int("max-line-bytes", 1 << 16));
  config.batch_max_requests = cli.get_int("batch-max", 256);
  config.svc.threads = static_cast<int>(cli.get_int("threads", 1));
  config.svc.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue", 1024));
  config.svc.cache_results = cli.get_bool("cache", true);
  obs::MetricsRegistry metrics;  // process-lifetime; scrapes never reset it
  config.metrics = &metrics;
  config.stop_flag = &g_serve_stop;

  net::Server server(config);
  const std::string preload = cli.get("preload", "");
  if (!preload.empty()) {
    const svc::RequestFile file = svc::load_requests_file(preload);
    for (const auto& decl : file.instances) {
      server.service().instances().add(decl.name,
                                       decl.from_file
                                           ? load_instance_file(decl.path)
                                           : svc::make_declared_instance(decl));
    }
    std::cout << "preloaded " << file.instances.size() << " instance(s) from "
              << preload << '\n';
  }

  const std::string port_file = cli.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream os(port_file);
    DASM_CHECK_MSG(os.good(), "cannot open '" << port_file << "'");
    os << server.port() << '\n';
  }
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  std::cout << "serving on " << config.bind_address << ":" << server.port()
            << " (scrape: GET /metrics)" << std::endl;

  server.run();

  const svc::SvcStats& stats = server.service().stats();
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  std::cout << "drained: " << snapshot.counter("net.accepted")
            << " connection(s), " << stats.committed
            << " request(s) committed in " << stats.batches << " batch(es), "
            << stats.shed << " shed, " << snapshot.counter("net.scrapes")
            << " scrape(s)\n";
  const std::string metrics_out = cli.get("metrics-out", "");
  if (!metrics_out.empty()) {
    obs::write_metrics_file(snapshot, metrics_out);
    std::cout << "wrote metrics to " << metrics_out << '\n';
  }
  return 0;
}

int cmd_verify(const Cli& cli) {
  const Instance inst = make_instance(cli);
  const std::string path = cli.get("matching", "");
  DASM_CHECK_MSG(!path.empty(), "verify needs --matching <file>");
  std::ifstream is(path);
  DASM_CHECK_MSG(is.good(), "cannot open '" << path << "'");
  const Matching matching = load_matching(is, inst);
  report_matching(inst, matching, cli.get_double("eps", 0.25));
  return 0;
}

int usage() {
  std::cerr << "usage: dasm <gen|info|run|verify|batch|serve> [flags]\n"
            << "  see the header of tools/dasm_main.cpp or README.md\n";
  return 2;
}

// A subcommand and exactly the flags it reads.
struct Command {
  const char* name;
  int (*run)(const Cli&);
  std::vector<std::string> flags;
};

std::vector<Command> commands() {
  // make_instance() reads these for every subcommand that takes an
  // instance.
  const std::vector<std::string> instance = {"in", "family", "n",
                                             "seed", "d", "p"};
  const auto with_instance = [&](std::vector<std::string> flags) {
    flags.insert(flags.begin(), instance.begin(), instance.end());
    return flags;
  };
  return {
      {"gen", cmd_gen, with_instance({"out"})},
      {"info", cmd_info, instance},
      {"run", cmd_run,
       with_instance({"algo", "eps", "max-rounds", "out", "backend",
                      "mimic-gs", "drop", "fault-seed", "retransmit-after",
                      "max-retransmits", "metrics-out", "sweeps"})},
      {"verify", cmd_verify, with_instance({"matching", "eps"})},
      {"batch", cmd_batch,
       {"requests", "out", "threads", "queue", "cache", "trace-out",
        "metrics-out"}},
      {"serve", cmd_serve,
       {"port", "host", "threads", "queue", "cache", "preload", "port-file",
        "idle-timeout-ms", "max-line-bytes", "batch-max", "metrics-out"}},
  };
}

// Reports every flag `cmd` does not read and every stray argument; true
// when there are none.
bool flags_ok(const Cli& cli, const Command& cmd) {
  bool ok = true;
  for (const std::string& name : cli.flag_names()) {
    if (std::find(cmd.flags.begin(), cmd.flags.end(), name) !=
        cmd.flags.end()) {
      continue;
    }
    std::cerr << "dasm " << cmd.name << ": unknown flag --" << name << '\n';
    ok = false;
  }
  for (std::size_t i = 1; i < cli.positional().size(); ++i) {
    std::cerr << "dasm " << cmd.name << ": unexpected argument '"
              << cli.positional()[i] << "'\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "usage: dasm " << cmd.name;
    for (const std::string& name : cmd.flags) {
      std::cerr << " [--" << name << " V]";
    }
    std::cerr << '\n';
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.positional().empty()) return usage();
    for (const Command& cmd : commands()) {
      if (cli.positional()[0] != cmd.name) continue;
      return flags_ok(cli, cmd) ? cmd.run(cli) : 2;
    }
    return usage();
  } catch (const dasm::CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
