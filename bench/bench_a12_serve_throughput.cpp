// A12 — wire overhead of the TCP front end (src/net/): the same cached
// request workload driven three ways — direct MatchService submission
// (no network), a pipelined loopback client (one connection streaming
// every request before reading), and a closed-loop client (one request
// in flight, round-trip per request).
//
// The front end's job is demultiplexing and framing, not compute, so the
// interesting numbers are (a) how many requests/s one pipelined
// connection sustains once the result cache absorbs the matching work,
// and (b) how much the per-request round trip costs when a client
// refuses to pipeline. Batching in the server's poll loop amortizes the
// per-request syscalls, so the pipelined path must beat the closed-loop
// path clearly; the acceptance bar is >= 1.2x.
//
// Determinism cross-check: before timing, the pipelined client's bytes
// (greeting + response lines) are compared against a direct
// MatchService pass over the identical workload — the wire path must
// serve exactly the `dasm batch` bytes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/server.hpp"
#include "svc/service.hpp"

namespace dasm {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Minimal blocking loopback client (the bench cannot use the gtest
/// helper from tests/test_serve.cpp).
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DASM_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    DASM_CHECK(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      DASM_CHECK_MSG(n > 0, "send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl + 1);
        buf_.erase(0, nl + 1);
        return line;
      }
      char tmp[1 << 16];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      DASM_CHECK_MSG(n > 0, "unexpected EOF from server");
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// `distinct` unique request lines, each repeated `repeat` times,
/// interleaved — the cached serve-many shape from bench A9, as wire text.
std::vector<std::string> make_workload(int distinct, int repeat) {
  std::vector<std::string> combos;
  for (int c = 0; c < distinct; ++c) {
    std::ostringstream os;
    switch (c % 3) {
      case 0:
        os << "request g asm eps " << 0.25 + 0.05 * (c / 3 % 4);
        break;
      case 1:
        os << "request g rand-asm";
        break;
      default:
        os << "request g mm backend ii";
        break;
    }
    os << " seed " << (c + 1) << "\n";
    combos.push_back(os.str());
  }
  std::vector<std::string> workload;
  for (int rep = 0; rep < repeat; ++rep) {
    for (const std::string& line : combos) workload.push_back(line);
  }
  return workload;
}

/// The no-network baseline: the workload submitted straight into a
/// MatchService. The cold pass (matchings actually execute) fixes the
/// expected batch bytes; the warm pass times the cached submit path the
/// wire numbers should be compared against.
std::string run_direct(NodeId n, int threads,
                       const std::vector<std::string>& workload,
                       double* cold_seconds, double* warm_seconds) {
  svc::SvcConfig config;
  config.threads = threads;
  config.queue_capacity = workload.size() + 1;
  svc::MatchService service(config);
  service.instances().add("g", gen::complete_uniform(n, 1));
  std::istringstream parse_all(
      [&] {
        std::string all;
        for (const std::string& line : workload) all += line;
        return all;
      }());
  std::vector<svc::Request> requests;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    std::string keyword;  // parse_request expects the keyword consumed
    parse_all >> keyword;
    DASM_CHECK(keyword == "request");
    requests.push_back(svc::parse_request(parse_all));
  }
  const auto t0 = Clock::now();
  for (const svc::Request& req : requests) {
    DASM_CHECK(service.submit(req) >= 0);
  }
  service.drain();
  *cold_seconds = seconds_since(t0);
  std::ostringstream os;
  service.write_responses(os);
  service.take_responses();  // clear the log before the warm pass
  const auto t1 = Clock::now();
  for (const svc::Request& req : requests) {
    DASM_CHECK(service.submit(req) >= 0);
  }
  service.drain();
  *warm_seconds = seconds_since(t1);
  return os.str();
}

/// One connection, every request line written before any response is
/// read. Returns the full byte stream (greeting + responses).
std::string run_pipelined(int port, const std::vector<std::string>& workload,
                          double* out_seconds) {
  Client client(port);
  std::string all = "dasm-requests 1\n";
  for (const std::string& line : workload) all += line;
  const auto t0 = Clock::now();
  client.send_all(all);
  std::string got;
  for (std::size_t i = 0; i < workload.size() + 1; ++i) {
    got += client.read_line();
  }
  *out_seconds = seconds_since(t0);
  return got;
}

/// One request in flight at a time: the per-request round-trip cost.
void run_closed_loop(int port, const std::vector<std::string>& workload,
                     double* out_seconds) {
  Client client(port);
  client.send_all("dasm-requests 1\n");
  client.read_line();  // greeting
  const auto t0 = Clock::now();
  for (const std::string& line : workload) {
    client.send_all(line);
    client.read_line();
  }
  *out_seconds = seconds_since(t0);
}

int bench_main(int argc, const char* const* argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, {"n", "distinct", "repeat", "json-out"});
  const Cli cli(argc, argv);
  const std::string json_out = cli.get("json-out", "");
  const bool large = bench::large_mode();
  const NodeId n = static_cast<NodeId>(cli.get_int("n", large ? 96 : 48));
  const int distinct =
      static_cast<int>(cli.get_int("distinct", large ? 24 : 12));
  const int repeat = static_cast<int>(cli.get_int("repeat", large ? 64 : 32));

  bench::print_header(
      "A12",
      "TCP front end: loopback wire overhead vs direct service submission",
      "pipelined connection >= 1.2x closed-loop requests/s; wire bytes == "
      "direct service bytes");

  const std::vector<std::string> workload = make_workload(distinct, repeat);
  std::cout << "workload: " << distinct << " distinct request lines x "
            << repeat << " repeats on one instance of n=" << n
            << ", threads " << opt.threads << "\n\n";

  net::ServeConfig config;
  config.svc.threads = opt.threads;
  config.svc.queue_capacity = workload.size() + 1;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  net::Server server(config);
  server.service().instances().add("g", gen::complete_uniform(n, 1));
  std::thread serve_thread([&] { server.run(); });

  // Cold pipelined pass executes the distinct combos and pins the bytes
  // against the direct baseline; the timed passes below are all warm, so
  // they measure the wire, not the matching engine.
  double direct_cold_s = 0.0;
  double direct_warm_s = 0.0;
  const std::string expected =
      run_direct(n, opt.threads, workload, &direct_cold_s, &direct_warm_s);
  double cold_s = 0.0;
  const std::string got = run_pipelined(server.port(), workload, &cold_s);
  if (got != expected) {
    server.request_stop();
    serve_thread.join();
    bench::print_verdict(false, "wire response stream != direct service bytes");
    return 1;
  }

  double pipelined_s = 0.0;
  run_pipelined(server.port(), workload, &pipelined_s);
  double closed_s = 0.0;
  run_closed_loop(server.port(), workload, &closed_s);

  server.request_stop();
  serve_thread.join();

  const double total = static_cast<double>(workload.size());
  const double direct_cold_rps = total / direct_cold_s;
  const double direct_rps = total / direct_warm_s;
  const double pipelined_rps = total / pipelined_s;
  const double closed_rps = total / closed_s;

  Table table({"mode", "requests", "seconds", "requests/s", "us/request"});
  table.add_row({"direct service (cold)", Table::num(workload.size()),
                 Table::num(direct_cold_s), Table::num(direct_cold_rps, 1),
                 Table::num(1e6 * direct_cold_s / total, 2)});
  table.add_row({"direct service (warm)", Table::num(workload.size()),
                 Table::num(direct_warm_s), Table::num(direct_rps, 1),
                 Table::num(1e6 * direct_warm_s / total, 2)});
  table.add_row({"tcp pipelined", Table::num(workload.size()),
                 Table::num(pipelined_s), Table::num(pipelined_rps, 1),
                 Table::num(1e6 * pipelined_s / total, 2)});
  table.add_row({"tcp closed-loop", Table::num(workload.size()),
                 Table::num(closed_s), Table::num(closed_rps, 1),
                 Table::num(1e6 * closed_s / total, 2)});
  table.print(std::cout);

  const svc::SvcStats stats = server.service().stats();
  const obs::MetricsSnapshot net = registry.snapshot();
  std::cout << "\nserver: " << net.counter("net.requests")
            << " requests over " << net.counter("net.accepted")
            << " connections, " << stats.cache_hits << " cache hits, "
            << stats.batches << " batches\n\n";

  const bool ok = pipelined_rps >= 1.2 * closed_rps;
  bench::print_verdict(ok, "pipelining amortizes the per-request wire cost");

  if (!json_out.empty()) {
    std::ofstream js(json_out);
    DASM_CHECK_MSG(js.good(), "cannot open " << json_out);
    js << "{\n"
       << "  \"bench\": \"a12_serve_throughput\",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"requests\": " << workload.size() << ",\n"
       << "  \"direct_rps\": " << direct_rps << ",\n"
       << "  \"pipelined_rps\": " << pipelined_rps << ",\n"
       << "  \"closed_loop_rps\": " << closed_rps << ",\n"
       << "  \"pipelined_over_closed\": " << pipelined_rps / closed_rps
       << ",\n"
       << "  \"verdict\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    DASM_CHECK_MSG(js.good(), "write to " << json_out << " failed");
  }
  if (!opt.metrics_out.empty()) {
    bench::write_metrics_snapshot(opt.metrics_out, registry);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dasm

int main(int argc, char** argv) { return dasm::bench_main(argc, argv); }
