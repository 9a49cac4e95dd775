// Load generator of the end-to-end serve benchmark (run.py): one process,
// one thread and one protocol connection to a running `dasm serve`.
//
//   servebench_load --port P --pid PID --plan plan.txt --out DIR
//
// It sends the plan's phases in order. A paced phase is open loop: each
// line goes out at its scheduled offset whether or not earlier answers
// have arrived, and latency is later taken from that scheduled time. A
// burst phase writes a batch's lines at once and waits for all of that
// batch's answers before it writes the next. Between phases, and never
// inside one, it scrapes GET /metrics and reads the server's memory from
// /proc/PID; within the paced phase it reads the server's CPU time there,
// which costs the server nothing.
//
// In a paced phase it never sleeps: it busy-polls its socket and the
// clock, so its own wake-up latency stays out of the measured latencies.
// In a burst phase it busy-polls while answers keep arriving. run.py gives
// it a CPU of its own, apart from the server's two.
//
// Output in DIR, all times in ns on one monotonic clock:
//   requests.tsv    phase line scheduled_ns sent_ns   (request lines only)
//   answers.tsv     phase recv_ns answer-line
//   boundaries.tsv  index rss_kb hwm_kb, at each phase boundary
//   windows.tsv     first_line cpu_ns: server CPU at the start of each
//                   tenth of the paced phase's lines, and at its end
//   scrape<index>.prom
// The exit code is 0 when every phase got all its answers, 1 otherwise.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "plan.hpp"

namespace servebench {
namespace {

constexpr std::int64_t kStallNs = 20'000'000'000;  // no answer for 20 s
constexpr std::int64_t kPacedLeadNs = 2'000'000;
constexpr std::int64_t kSpinNs = 1'000'000;
constexpr std::size_t kWindows = 10;  // paced-phase CPU samples

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "servebench_load: " << what << '\n';
  std::exit(2);
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("connect: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// GET /metrics on a fresh connection; returns the body.
std::string scrape(int port) {
  const int fd = connect_loopback(port);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    fail("scrape send failed");
  }
  std::string resp;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    fail("bad scrape response");
  }
  return resp.substr(body + 4);
}

/// Server CPU time across all threads: the sum of every task's
/// sum_exec_runtime (ns) from /proc/PID/task/*/schedstat.
std::int64_t server_cpu_ns(int pid) {
  std::int64_t total = 0;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream is(task.path() / "schedstat");
    std::int64_t run_ns = 0;
    if (is >> run_ns) total += run_ns;
  }
  if (ec) fail("cannot read " + dir);
  return total;
}

void server_memory_kb(int pid, std::int64_t* rss, std::int64_t* hwm) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  *rss = *hwm = -1;
  while (is >> key) {
    if (key == "VmRSS:") is >> *rss;
    if (key == "VmHWM:") is >> *hwm;
    is.ignore(1 << 20, '\n');
  }
  if (*rss < 0 || *hwm < 0) fail("cannot read server memory");
}

struct Answer {
  std::size_t phase = 0;
  std::int64_t recv_ns = 0;
  std::string line;
};

/// The protocol connection: an outgoing buffer flushed as the socket
/// allows, and incoming bytes split into answer lines.
class Connection {
 public:
  explicit Connection(int port) : fd_(connect_loopback(port)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }

  void flush() {
    while (pos_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + pos_, out_.size() - pos_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        fail("send: " + std::string(std::strerror(errno)));
      }
      pos_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    pos_ = 0;
  }

  /// Waits up to `timeout_ms` for the socket (0: no wait), flushes and
  /// reads what it can. Returns the number of answer lines read.
  std::size_t pump(int timeout_ms, std::size_t phase,
                   std::vector<Answer>* answers) {
    pollfd pfd{fd_, POLLIN, 0};
    if (pos_ < out_.size()) pfd.events |= POLLOUT;
    if (::poll(&pfd, 1, timeout_ms) < 0 && errno != EINTR) {
      fail("poll: " + std::string(std::strerror(errno)));
    }
    if ((pfd.revents & POLLOUT) != 0) flush();
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return 0;
    std::size_t lines = 0;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) eof_ = true;
        break;
      }
      const std::int64_t t = now_ns();
      in_.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        answers->push_back(Answer{phase, t, in_.substr(start, nl - start)});
        ++lines;
      }
      in_.erase(0, start);
    }
    return lines;
  }

  bool eof() const { return eof_; }

 private:
  int fd_;
  std::string out_;
  std::size_t pos_ = 0;
  std::string in_;
  bool eof_ = false;
};

struct Sent {
  std::size_t phase = 0;
  std::size_t line = 0;
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
};

struct Boundary {
  std::int64_t rss_kb = 0;
  std::int64_t hwm_kb = 0;
};

/// Server CPU at a window edge of the paced phase.
struct Window {
  std::size_t first_line = 0;  ///< index within the phase
  std::int64_t cpu_ns = 0;
};

struct Args {
  int port = 0;
  int pid = 0;
  std::string plan;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--port") a.port = std::stoi(value);
    else if (key == "--pid") a.pid = std::stoi(value);
    else if (key == "--plan") a.plan = value;
    else if (key == "--out") a.out = value;
    else fail("unknown flag " + key);
  }
  if (a.port <= 0 || a.pid <= 0 || a.plan.empty() || a.out.empty()) {
    fail("usage: servebench_load --port P --pid PID --plan F --out DIR");
  }
  return a;
}

int run(const Args& args) {
  const Plan plan = read_plan(args.plan);

  Connection conn(args.port);
  std::vector<Answer> answers;
  std::vector<Sent> sent;
  std::vector<Boundary> bounds;
  std::vector<std::string> scrapes;
  std::vector<Window> windows;

  conn.queue("dasm-requests 1");
  conn.flush();
  std::vector<Answer> greeting;
  const std::int64_t greet_deadline = now_ns() + kStallNs;
  while (greeting.empty() && !conn.eof() && now_ns() < greet_deadline) {
    conn.pump(100, 0, &greeting);
  }
  if (greeting.empty() || greeting[0].line != "dasm-responses 1") {
    fail("no protocol greeting from the server");
  }

  const auto boundary = [&] {
    Boundary b;
    scrapes.push_back(scrape(args.port));
    server_memory_kb(args.pid, &b.rss_kb, &b.hwm_kb);
    bounds.push_back(b);
  };

  bool complete = true;
  boundary();
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const Phase& phase = plan.phases[p];
    std::size_t expected = 0;
    std::size_t answered = 0;
    std::int64_t last_progress = now_ns();
    const auto wait_for = [&](std::size_t target, std::int64_t deadline) {
      // Reads until `target` answers or `deadline`; false on a stall.
      while (answered < target) {
        const std::int64_t t = now_ns();
        if (t >= deadline) return true;
        if (t - last_progress > kStallNs || conn.eof()) return false;
        // Paced phases spin. Burst phases spin while answers keep coming
        // and sleep on the socket once none came for kSpinNs, so a long
        // batch does not hold a CPU the server could use.
        const bool spin = phase.paced || t - last_progress < kSpinNs;
        const std::size_t got = conn.pump(spin ? 0 : 100, p, &answers);
        if (got > 0) {
          answered += got;
          last_progress = now_ns();
        }
      }
      return true;
    };

    if (phase.paced) {
      const std::int64_t t0 = now_ns() + kPacedLeadNs;
      const std::size_t n = phase.end - phase.begin;
      std::size_t window = 0;
      std::size_t i = phase.begin;
      while (i < phase.end) {
        // Server CPU at each window edge (every tenth of the phase's
        // lines), read before the window's first line goes out.
        while (window < kWindows &&
               i - phase.begin >= n * window / kWindows) {
          windows.push_back(
              Window{n * window / kWindows, server_cpu_ns(args.pid)});
          ++window;
        }
        const std::int64_t t = now_ns();
        const std::size_t first = i;
        while (i < phase.end && t0 + plan.lines[i].offset_ns <= t) {
          conn.queue(plan.lines[i].text);
          if (plan.lines[i].is_request) ++expected;
          ++i;
        }
        if (i > first) {
          const std::int64_t at = now_ns();
          conn.flush();
          for (std::size_t k = first; k < i; ++k) {
            if (!plan.lines[k].is_request) continue;
            sent.push_back(Sent{p, k, t0 + plan.lines[k].offset_ns, at});
          }
        }
        if (i < phase.end &&
            !wait_for(std::numeric_limits<std::size_t>::max(),
                      t0 + plan.lines[i].offset_ns)) {
          complete = false;
          break;
        }
      }
      if (complete &&
          !wait_for(expected, std::numeric_limits<std::int64_t>::max())) {
        complete = false;
      }
      windows.push_back(Window{n, server_cpu_ns(args.pid)});
    } else {
      for (std::size_t i = phase.begin; i < phase.end && complete;) {
        const std::size_t first = i;
        const std::int64_t batch = plan.lines[i].batch;
        for (; i < phase.end && plan.lines[i].batch == batch; ++i) {
          conn.queue(plan.lines[i].text);
          if (plan.lines[i].is_request) ++expected;
        }
        const std::int64_t at = now_ns();
        conn.flush();
        for (std::size_t k = first; k < i; ++k) {
          if (plan.lines[k].is_request) sent.push_back(Sent{p, k, at, at});
        }
        if (!wait_for(expected, std::numeric_limits<std::int64_t>::max())) {
          complete = false;
        }
      }
    }
    boundary();
    if (!complete) {
      std::cerr << "servebench_load: phase " << phase.name << " stalled at "
                << answered << " of " << expected << " answers\n";
      break;
    }
  }

  std::filesystem::create_directories(args.out);
  {
    std::ofstream os(args.out + "/requests.tsv");
    for (const Sent& s : sent) {
      os << plan.phases[s.phase].name << '\t' << s.line << '\t'
         << s.scheduled_ns << '\t' << s.sent_ns << '\n';
    }
  }
  {
    std::ofstream os(args.out + "/answers.tsv");
    for (const Answer& a : answers) {
      os << plan.phases[a.phase].name << '\t' << a.recv_ns << '\t' << a.line
         << '\n';
    }
  }
  {
    std::ofstream os(args.out + "/windows.tsv");
    for (const Window& w : windows) {
      os << w.first_line << '\t' << w.cpu_ns << '\n';
    }
  }
  {
    std::ofstream os(args.out + "/boundaries.tsv");
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const Boundary& b = bounds[i];
      os << i << '\t' << b.rss_kb << '\t' << b.hwm_kb << '\n';
      std::ofstream(args.out + "/scrape" + std::to_string(i) + ".prom")
          << scrapes[i];
    }
  }
  return complete ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench_load: " << e.what() << '\n';
    return 2;
  }
}
