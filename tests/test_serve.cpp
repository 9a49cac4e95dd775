// The TCP front end (src/net/, ISSUE 10): line framing over arbitrary
// read() segmentation, the per-connection ordering/demux contract (each
// connection receives exactly its own responses, in its own submission
// order, byte-identical to a `dasm batch` run on its request stream),
// admission-control shedding surfaced as "ERR shed", malformed-input
// resilience, idle timeouts, graceful drain, the GET /metrics scrape
// endpoint, and a fault-injection mini-soak (ServeSoak.*, CTest label
// `soak`). Runs in the default, asan, and tsan presets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "stable/io.hpp"
#include "svc/service.hpp"
#include "util/check.hpp"

namespace dasm::net {
namespace {

// ---------------------------------------------------------------------------
// LineBuffer framing

TEST(LineBuffer, SplitAndCoalescedAppendsYieldTheSameLines) {
  LineBuffer one(64);
  one.append("alpha\nbeta\ngamma\n");
  std::string line;
  ASSERT_EQ(one.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "alpha");
  ASSERT_EQ(one.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "beta");
  ASSERT_EQ(one.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "gamma");
  EXPECT_EQ(one.next(&line), LineBuffer::Next::kNeedMore);

  // The same stream delivered one byte at a time.
  LineBuffer split(64);
  std::vector<std::string> got;
  for (const char c : std::string("alpha\nbeta\ngamma\n")) {
    split.append(std::string_view(&c, 1));
    while (split.next(&line) == LineBuffer::Next::kLine) got.push_back(line);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(LineBuffer, StripsCarriageReturnAndFlagsNulBytes) {
  LineBuffer buf(64);
  buf.append("crlf line\r\n");
  buf.append(std::string_view("nul\0here\n", 9));
  buf.append("after\n");
  std::string line;
  ASSERT_EQ(buf.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "crlf line");
  EXPECT_EQ(buf.next(&line), LineBuffer::Next::kNulByte);
  ASSERT_EQ(buf.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "after");  // resynchronized after the bad line
}

TEST(LineBuffer, OverlongLinesAreDiscardedUpToResync) {
  LineBuffer buf(8);
  buf.append("0123456789abcdef");  // no newline yet, already over limit
  std::string line;
  EXPECT_EQ(buf.next(&line), LineBuffer::Next::kOverlong);
  buf.append("...more\nok\n");  // tail of the bad line, then a good one
  ASSERT_EQ(buf.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "ok");

  // A complete-but-overlong line reports once and consumes itself.
  LineBuffer complete(4);
  complete.append("toolongline\nok\n");
  EXPECT_EQ(complete.next(&line), LineBuffer::Next::kOverlong);
  ASSERT_EQ(complete.next(&line), LineBuffer::Next::kLine);
  EXPECT_EQ(line, "ok");
}

// ---------------------------------------------------------------------------
// Loopback client helper

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = 10;  // every blocking call in the suite is bounded
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        ADD_FAILURE() << "send failed after " << off << " bytes";
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Half-close: tells the server this peer is done sending.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// False on EOF or timeout.
  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  std::string must_read_line() {
    std::string line;
    EXPECT_TRUE(read_line(&line)) << "unexpected EOF/timeout";
    return line;
  }

  std::vector<std::string> must_read_lines(int count) {
    std::vector<std::string> lines;
    for (int i = 0; i < count; ++i) lines.push_back(must_read_line());
    return lines;
  }

  /// True when the next read observes an orderly EOF.
  bool at_eof() {
    if (!buf_.empty()) return false;
    char tmp[256];
    return ::recv(fd_, tmp, sizeof(tmp), 0) == 0;
  }

  std::string read_to_eof() {
    std::string out = std::move(buf_);
    buf_.clear();
    char tmp[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return out;
      out.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// Server fixture and reference helpers

struct TestServer {
  ServeConfig config;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Server> server;
  std::thread thread;

  TestServer() {
    config.poll_interval_ms = 10;  // fast stop/idle detection in tests
  }

  ~TestServer() { stop(); }

  /// Binds and starts the event loop on a background thread.
  void start() {
    config.metrics = &metrics;
    server = std::make_unique<Server>(config);
    thread = std::thread([this] { server->run(); });
  }

  /// Graceful drain, then join. Safe to call twice.
  void stop() {
    if (!thread.joinable()) return;
    server->request_stop();
    thread.join();
  }

  int port() const { return server->port(); }
};

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// The byte-identity oracle: what `dasm batch` commits for this request
/// stream (same defaults as a fresh ServeConfig's embedded service).
std::string batch_reference(const std::string& request_text) {
  std::istringstream is(request_text);
  const svc::RequestFile file = svc::load_requests(is);
  svc::MatchService service;
  for (const auto& decl : file.instances) {
    service.instances().add(decl.name, svc::make_declared_instance(decl));
  }
  for (const svc::Request& req : file.requests) {
    if (service.submit(req) < 0) {
      service.run_batch();
      EXPECT_GE(service.submit(req), 0);
    }
  }
  service.drain();
  std::ostringstream os;
  service.write_responses(os);
  return os.str();
}

int count_prefixed(const std::vector<std::string>& lines,
                   const std::string& prefix) {
  int n = 0;
  for (const auto& l : lines) {
    if (l.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

struct PromScrape {
  std::string status;
  std::map<std::string, double> values;        // series name (sans labels)
  std::map<std::string, std::string> types;    // metric -> declared type
  std::vector<std::string> malformed;
};

/// One GET over a fresh connection (itself counted as an accepted and
/// closed connection). The registry is server-thread-only while the
/// server runs, so live tests read it this way, and read
/// TestServer::metrics directly only after stop().
PromScrape scrape(int port, const std::string& path = "/metrics") {
  Client client(port);
  client.send_all("GET " + path + " HTTP/1.0\r\n\r\n");
  PromScrape out;
  out.status = client.must_read_line();
  std::string line;
  while (client.read_line(&line) && !line.empty()) {
  }  // skip response headers
  std::istringstream body(client.read_to_eof());
  while (std::getline(body, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name, type;
      ls >> name >> type;
      out.types[name] = type;
      continue;
    }
    if (line[0] == '#') continue;  // HELP etc.
    // <name>[{labels}] <value> — the whole text-exposition grammar the
    // exporter emits (no timestamps).
    const std::size_t sp = line.rfind(' ');
    const std::size_t brace = line.find('{');
    if (sp == std::string::npos || sp == 0) {
      out.malformed.push_back(line);
      continue;
    }
    const std::string series =
        line.substr(0, std::min(brace, sp));
    bool name_ok = !series.empty() &&
                   (std::isalpha(static_cast<unsigned char>(series[0])) ||
                    series[0] == '_');
    for (const char c : series) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        name_ok = false;
      }
    }
    try {
      const double v = std::stod(line.substr(sp + 1));
      if (name_ok) {
        out.values[series] += v;  // histogram series sum over buckets
      } else {
        out.malformed.push_back(line);
      }
    } catch (const std::exception&) {
      out.malformed.push_back(line);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Conformance: byte identity with `dasm batch`

TEST(ServeConformance, SingleConnectionMatchesBatchBytes) {
  const std::string text =
      "dasm-requests 1\n"
      "instance g gen complete 16 3\n"
      "instance r gen regular 20 5\n"
      "request g asm eps 0.5\n"
      "request g asm eps 0.5\n"  // cache hit replays the cold bytes
      "request g mm backend ii\n"
      "request r rand-asm seed 2\n"
      "request r asm eps 0.25 seed 4 backend rp\n"
      "request g asm eps 0.5 seed 1 drop 0.1 fault-seed 7 retransmit-after 2\n";
  const std::string expected = batch_reference(text);

  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all(text);
  client.shutdown_write();
  // Greeting + one line per request == exactly the batch log's bytes.
  const std::vector<std::string> lines = client.must_read_lines(1 + 6);
  std::string actual;
  for (const auto& l : lines) actual += l + "\n";
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(client.at_eof());  // half-closed peer is released when done
}

TEST(ServeConformance, PerConnectionOrderAndDemuxUnderConcurrency) {
  for (const int n_conns : {2, 5, 8}) {
    TestServer ts;
    ts.config.svc.threads = 2;
    ts.start();

    // Each connection has its own instance and its own request stream;
    // submissions interleave across connections round-robin.
    constexpr int kRequests = 4;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::string> streams(static_cast<std::size_t>(n_conns));
    for (int c = 0; c < n_conns; ++c) {
      clients.push_back(std::make_unique<Client>(ts.port()));
      const std::string head = "dasm-requests 1\ninstance g" +
                               std::to_string(c) + " gen complete 16 " +
                               std::to_string(c + 1) + "\n";
      clients[static_cast<std::size_t>(c)]->send_all(head);
      streams[static_cast<std::size_t>(c)] = head;
    }
    for (int i = 0; i < kRequests; ++i) {
      for (int c = 0; c < n_conns; ++c) {
        const std::string req =
            "request g" + std::to_string(c) +
            (i % 2 == 0 ? " asm eps 0.5 seed " : " rand-asm seed ") +
            std::to_string(i + 1) + "\n";
        clients[static_cast<std::size_t>(c)]->send_all(req);
        streams[static_cast<std::size_t>(c)] += req;
      }
    }

    // Demux: every connection receives exactly its own stream's batch
    // bytes — ids renumbered 0..k-1 per connection, in submission order.
    for (int c = 0; c < n_conns; ++c) {
      const std::vector<std::string> lines =
          clients[static_cast<std::size_t>(c)]->must_read_lines(1 + kRequests);
      std::string actual;
      for (const auto& l : lines) actual += l + "\n";
      EXPECT_EQ(actual, batch_reference(streams[static_cast<std::size_t>(c)]))
          << n_conns << " connections, connection " << c;
    }
    ts.stop();
    EXPECT_EQ(ts.server->service().stats().committed, n_conns * kRequests);
  }
}

TEST(ServeConformance, SplitAndCoalescedTcpReadsPreserveTheStream) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\ninstance g gen complete 12 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");

  // One request dribbled across many TCP segments...
  const std::string dribble = "request g asm eps 0.5 seed 9\n";
  for (std::size_t i = 0; i < dribble.size(); i += 3) {
    client.send_all(dribble.substr(i, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ...then three requests coalesced into a single write.
  client.send_all(
      "request g asm eps 0.5 seed 10\n"
      "request g mm backend ii\n"
      "request g rand-asm seed 11\n");
  const std::vector<std::string> lines = client.must_read_lines(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].rfind(
                  "r " + std::to_string(i) + " ", 0),
              0u)
        << "response " << i << ": " << lines[static_cast<std::size_t>(i)];
  }
}

// ---------------------------------------------------------------------------
// Admission control and shutdown

TEST(ServeConformance, ShedReturnsErrShedAndCountsIt) {
  TestServer ts;
  ts.config.svc.queue_capacity = 1;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\ninstance g gen complete 12 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");

  // One write delivers the burst in one read: the first request is
  // admitted, the rest hit the full queue before any batch can run.
  std::string burst;
  for (int i = 0; i < 5; ++i) {
    burst += "request g asm eps 0.5 seed " + std::to_string(i + 1) + "\n";
  }
  client.send_all(burst);
  const std::vector<std::string> lines = client.must_read_lines(5);
  EXPECT_EQ(count_prefixed(lines, "ERR shed"), 4);
  EXPECT_EQ(count_prefixed(lines, "r 0 "), 1);

  // The svc.shed counter is scrapable live, on the same port.
  Client scraper(ts.port());
  scraper.send_all("GET /metrics HTTP/1.0\r\n\r\n");
  const std::string body = scraper.read_to_eof();
  EXPECT_NE(body.find("\ndasm_svc_shed 4\n"), std::string::npos) << body;

  // Backpressure: a resubmission after the drain is admitted and gets
  // the next per-connection sequence number.
  client.send_all("request g asm eps 0.5 seed 99\n");
  EXPECT_EQ(client.must_read_line().rfind("r 1 ", 0), 0u);
}

TEST(ServeConformance, GracefulDrainFlushesEveryAcceptedRequest) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\ninstance g gen complete 16 1\n");
  std::string burst;
  for (int i = 0; i < 6; ++i) {
    burst += "request g asm eps 0.5 seed " + std::to_string(i + 1) + "\n";
  }
  client.send_all(burst);
  // Stop the instant all six are admitted — none may be dropped.
  ASSERT_TRUE(wait_until([&] {
    const PromScrape live = scrape(ts.port());
    const auto it = live.values.find("dasm_net_requests");
    return it != live.values.end() && it->second == 6.0;
  }));
  ts.stop();

  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
  const std::vector<std::string> lines = client.must_read_lines(6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].rfind(
                  "r " + std::to_string(i) + " ", 0),
              0u);
  }
  EXPECT_TRUE(client.at_eof());
  const svc::SvcStats& stats = ts.server->service().stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.committed, 6);
  EXPECT_EQ(stats.shed, 0);
}

TEST(ServeConformance, IdleConnectionsAreClosed) {
  TestServer ts;
  ts.config.idle_timeout_ms = 100;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
  EXPECT_TRUE(client.at_eof());  // recv blocks until the idle close
  // The server counted that close before it accepted the scrape.
  EXPECT_EQ(scrape(ts.port()).values.at("dasm_net_closed"), 1.0);
}

TEST(ServeConformance, DrainedConnectionsCountAsClosed) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
  ts.stop();  // the connection is still open: the graceful drain closes it
  EXPECT_TRUE(client.at_eof());
  const obs::MetricsSnapshot snap = ts.metrics.snapshot();
  EXPECT_EQ(snap.counter("net.accepted"), 1);
  EXPECT_EQ(snap.counter("net.closed"), snap.counter("net.accepted"));
}

// ---------------------------------------------------------------------------
// Malformed input over the framed TCP path

TEST(ServeMalformed, BadHeaderAnswersDiagnosticAndCloses) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("hello there\n");
  EXPECT_EQ(client.must_read_line().rfind("ERR ", 0), 0u);
  EXPECT_TRUE(client.at_eof());
}

TEST(ServeMalformed, BadLinesAnswerErrWithoutDesyncingTheStream) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\ninstance g gen complete 12 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");

  // A readable, well-formed instance file: the wire must still refuse to
  // open it, so the name stays unregistered.
  const std::string path = ::testing::TempDir() + "/dasm_serve_file.txt";
  save_instance_file(path, gen::complete_uniform(4, 1));

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"request ghost asm\n", "unregistered instance"},
      {"instance f file " + path + "\n", "not accepted on the wire"},
      {"request f asm\n", "unregistered instance"},
      {"request g bogus-algo\n", "algo must be"},
      {"request g asm eps banana\n", "expected eps"},
      {"request g asm wibble 3\n", "unknown request key"},
      {"request g asm eps\n", "missing its value"},
      {"instance g gen complete 12 1\n", "already registered"},
      {"instance h gen complete 0 1\n", "must be positive"},
      {"frobnicate\n", "expected 'request' or 'instance'"},
      {std::string("requ\0est g asm\n", 15), "NUL"},
      // Raw loss would abort the run (asm, rand-asm) or never end it (mm
      // without iters), so it is refused before it reaches the service.
      {"request g asm eps 0.5 seed 1 drop 0.1\n", "retransmit-after"},
      {"request g rand-asm drop 0.05\n", "retransmit-after"},
      {"request g mm backend ii drop 0.1\n", "or iters"},
      {"request g asm eps 2\n", "eps must be in (0, 1], got 2"},
      {"instance u gen bogus 10 1\n", "unknown instance family 'bogus'"},
      // Would lay out 4 * 10^10 ids on the poll thread; refused first.
      {"instance big gen complete 200000 1\n", "above the limit"},
  };
  for (const auto& [line, want] : cases) {
    client.send_all(line);
    const std::string got = client.must_read_line();
    EXPECT_EQ(got.rfind("ERR ", 0), 0u) << got;
    EXPECT_NE(got.find(want), std::string::npos) << got;
    // The client reads the message only: no C++ condition, no source path.
    EXPECT_EQ(got.find("check failed"), std::string::npos) << got;
    EXPECT_EQ(got.find(".cpp:"), std::string::npos) << got;
  }
  // The connection survived every bad line; a valid request still works
  // and gets per-connection sequence number 0 (ERR lines consume none).
  client.send_all("request g asm eps 0.5\n");
  EXPECT_EQ(client.must_read_line().rfind("r 0 ", 0), 0u);
}

TEST(ServeMalformed, OversizedLinesResyncAtTheNextNewline) {
  TestServer ts;
  ts.config.max_line_bytes = 64;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\ninstance g gen complete 12 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
  client.send_all(std::string(300, 'x') + "\nrequest g asm eps 0.5\n");
  EXPECT_NE(client.must_read_line().find("line exceeds"), std::string::npos);
  EXPECT_EQ(client.must_read_line().rfind("r 0 ", 0), 0u);
}

TEST(ServeMalformed, GarbageBeforeAValidRequestIsSurvivable) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
  client.send_all("instance g gen complete 12 1\n");
  client.send_all("\x01\x02\x7f garbage !!\n\n\nrequest g asm eps 0.5\n");
  const std::string err = client.must_read_line();
  EXPECT_EQ(err.rfind("ERR ", 0), 0u) << err;  // blank lines are ignored
  EXPECT_EQ(client.must_read_line().rfind("r 0 ", 0), 0u);
}

// ---------------------------------------------------------------------------
// GET /metrics scrapes

TEST(ServeMetrics, ScrapesParseAndStayMonotonicAcrossABurst) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("dasm-requests 1\ninstance g gen complete 16 1\n");
  ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
  client.send_all("request g asm eps 0.5 seed 1\n");
  ASSERT_EQ(client.must_read_line().rfind("r 0 ", 0), 0u);

  const PromScrape first = scrape(ts.port());
  EXPECT_EQ(first.status, "HTTP/1.0 200 OK");
  EXPECT_TRUE(first.malformed.empty()) << first.malformed.front();

  // A burst between the scrapes.
  for (int i = 0; i < 4; ++i) {
    client.send_all("request g asm eps 0.5 seed " + std::to_string(i + 10) +
                    "\n");
    ASSERT_EQ(client.must_read_line().rfind("r " + std::to_string(i + 1), 0),
              0u);
  }
  const PromScrape second = scrape(ts.port());
  EXPECT_TRUE(second.malformed.empty()) << second.malformed.front();

  // Counters are process-lifetime monotonic: a scrape never resets.
  for (const auto& [name, type] : first.types) {
    if (type != "counter") continue;
    ASSERT_TRUE(second.values.count(name)) << name << " vanished";
    EXPECT_GE(second.values.at(name), first.values.at(name)) << name;
  }
  EXPECT_EQ(second.values.at("dasm_svc_requests"), 5.0);
  EXPECT_EQ(second.values.at("dasm_net_requests"), 5.0);
  EXPECT_GE(second.values.at("dasm_net_scrapes"), 1.0);  // scrape 1 counted
  EXPECT_EQ(second.types.at("dasm_net_connections"), "gauge");

  // Wall-clock histograms live only in the segregated time.* namespace:
  // any *_us metric must carry the dasm_time_ prefix.
  bool saw_time_histogram = false;
  for (const auto& [name, type] : second.types) {
    if (name.find("_us") != std::string::npos) {
      EXPECT_EQ(name.rfind("dasm_time_", 0), 0u) << name;
      saw_time_histogram = true;
      EXPECT_EQ(type, "histogram") << name;
    }
  }
  EXPECT_TRUE(saw_time_histogram);
}

TEST(ServeMetrics, UnknownHttpPathIs404) {
  TestServer ts;
  ts.start();
  Client client(ts.port());
  client.send_all("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(client.must_read_line(), "HTTP/1.0 404 Not Found");
}

// ---------------------------------------------------------------------------
// Mini-soak: reconnecting clients against a faulty-but-reliable service
// (CTest label `soak`; kept small enough for the default suite).

TEST(ServeSoak, FaultyReconnectingWavesConserveEveryRequest) {
  TestServer ts;
  ts.config.svc.threads = 2;
  ts.server = nullptr;  // (explicit) instances preload before start
  ts.config.metrics = &ts.metrics;
  ts.server = std::make_unique<Server>(ts.config);
  ts.server->service().instances().add("g", gen::complete_uniform(16, 1));
  ts.thread = std::thread([&] { ts.server->run(); });

  constexpr int kWaves = 4;
  constexpr int kConns = 3;
  constexpr int kRequests = 4;
  std::int64_t total = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kConns; ++c) {
      clients.push_back(std::make_unique<Client>(ts.port()));
      clients.back()->send_all("dasm-requests 1\n");
    }
    for (int i = 0; i < kRequests; ++i) {
      for (int c = 0; c < kConns; ++c) {
        const int seed = 100 * wave + 10 * c + i + 1;
        clients[static_cast<std::size_t>(c)]->send_all(
            "request g asm eps 0.5 seed " + std::to_string(seed) +
            " drop 0.15 fault-seed " + std::to_string(seed) +
            " retransmit-after 2\n");
      }
    }
    for (int c = 0; c < kConns; ++c) {
      Client& client = *clients[static_cast<std::size_t>(c)];
      ASSERT_EQ(client.must_read_line(), "dasm-responses 1");
      // Exactly one response per request, renumbered per connection —
      // across reconnect waves every fresh connection starts at 0 again.
      const std::vector<std::string> lines =
          client.must_read_lines(kRequests);
      for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(lines[static_cast<std::size_t>(i)].rfind(
                      "r " + std::to_string(i) + " ", 0),
                  0u)
            << "wave " << wave << " conn " << c;
        // The reliable transport masks the 15% drop: every answer is a
        // full matching with its blocking count certified.
        EXPECT_NE(lines[static_cast<std::size_t>(i)].find(" matched 16 "),
                  std::string::npos);
      }
      total += kRequests;
    }
    // Wave ends: every client disconnects before the next wave dials in.
  }
  ts.stop();

  const svc::SvcStats& stats = ts.server->service().stats();
  EXPECT_EQ(total, kWaves * kConns * kRequests);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.committed, total);  // exactly one response per request
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.committed);
  const obs::MetricsSnapshot net = ts.metrics.snapshot();
  EXPECT_EQ(net.counter("net.responses"), total);
  EXPECT_EQ(net.counter("net.accepted"), kWaves * kConns);
}

}  // namespace
}  // namespace dasm::net
