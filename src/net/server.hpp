// TCP front end for the matching service (DESIGN.md §12): a poll-based
// accept loop that speaks the line-oriented request/response wire format
// of src/svc/request.hpp over TCP, feeding MatchService::submit()/
// run_batch() and streaming response lines back per connection.
//
// Protocol. A connection's first line selects its mode:
//
//   dasm-requests 1          -> protocol mode; the server greets with
//                               "dasm-responses 1" and then accepts
//                               `instance` / `request` lines (the exact
//                               request-file grammar). Successful
//                               registrations are silent — so a single
//                               connection replaying a request file
//                               receives, byte for byte, the response
//                               stream `dasm batch` would have written.
//                               `instance <name> file <path>` is refused
//                               with an ERR line and the path is never
//                               opened: file instances come from the
//                               operator (--preload), not the wire.
//   GET /metrics HTTP/1.x    -> one-shot HTTP scrape: a fresh
//                               MetricsRegistry snapshot serialized via
//                               write_prometheus, then close. Any other
//                               path is a 404.
//   anything else            -> "ERR ..." diagnostic, then close.
//
// Ordering/demux contract: internally responses commit in global arrival
// order — each admitted request's service id is queued, in a FIFO, with
// its (connection id, per-connection sequence number), and after every
// batch the router pops the FIFO's front for each committed response (the
// service's ids are dense and come back in order), rewrites the
// response's id to that per-connection sequence and serializes the line
// straight into its own connection's write buffer. Each connection
// therefore receives exactly its own responses, in its own submission
// order, numbered 0,1,2,... regardless of how many connections
// interleave. Failed lines answer immediately with a single
// "ERR <diagnostic>" line (no sequence number, does not consume one); a
// full admission queue answers "ERR shed". ERR lines interleave with
// response lines in processing order, not submission order.
//
// Batching: admitted requests stay queued while the sockets are busy; a
// batch runs as soon as a poll cycle delivers no new request line (the
// stream went idle) or `batch_max_requests` are pending. This keeps
// single-request latency at one poll cycle while letting a streaming
// client amortize scheduling across the whole batch.
//
// Writes: appending a line only buffers it. Once per poll cycle, after
// the reads and the batch, every connection with pending bytes is flushed
// in one send loop, so a burst's answers leave in one send(), not one
// each.
//
// Backpressure: each connection has a bounded write buffer. A backlog
// that reaches `write_high_water` is sent inline, without waiting for the
// cycle's flush, and the server stops reading from that connection (so a
// slow consumer throttles its own request stream, not the service); above
// `write_buffer_limit` the connection is dropped. Each connection's
// SO_SNDBUF is set to `write_buffer_limit` too, which Linux doubles: for
// a consumer that stopped reading, the kernel holds at most about
// 2 x write_buffer_limit (2 MiB by default) before the server's own limit
// starts to fill, not what send-buffer autotuning would grow it to.
//
// Shutdown: request_stop() (or the CLI's SIGTERM flag) triggers a
// graceful drain — stop accepting, stop reading, run every pending
// request to completion, flush all write buffers, then close.
//
// Registry lifetime (DESIGN.md §12): the server never owns the metrics
// registry — the process does. Counters accumulate monotonically for the
// whole process lifetime and a scrape serializes a fresh snapshot without
// resetting anything, which is exactly the Prometheus counter contract:
// resets happen only when the process restarts, and rate() handles those.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"

namespace dasm::net {

struct ServeConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via Server::port).
  int port = 0;
  int backlog = 64;
  /// Framing limit; longer lines are answered with "ERR line too long"
  /// and discarded up to the next newline (see net/wire.hpp).
  std::size_t max_line_bytes = 1 << 16;
  /// Backpressure: a connection whose write buffer reaches the high-water
  /// mark is sent to inline and no longer read; past the hard limit it is
  /// dropped. The hard limit is also each connection's SO_SNDBUF (the
  /// kernel's send buffer, which Linux sizes at twice that).
  std::size_t write_high_water = 1 << 18;
  std::size_t write_buffer_limit = 1 << 20;
  /// Connections idle (no bytes in either direction) longer than this are
  /// closed. 0 disables the timeout.
  std::int64_t idle_timeout_ms = 30000;
  /// Run a batch once this many requests are pending even if the sockets
  /// are still busy. Kept below svc.queue_capacity so a well-behaved
  /// streaming client never sees "ERR shed".
  std::int64_t batch_max_requests = 256;
  /// Poll timeout while idle — bounds the latency of noticing stop
  /// requests and idle timeouts.
  std::int64_t poll_interval_ms = 50;
  /// How long the graceful drain waits for slow consumers to take their
  /// flushed responses before closing anyway.
  std::int64_t drain_flush_timeout_ms = 5000;
  /// The embedded service (threads, queue capacity, cache).
  /// svc.metrics is overridden with `metrics` below.
  svc::SvcConfig svc;
  /// Process-lifetime metrics registry: the service layer's svc.* metrics
  /// and the server's net.* counters / time.net.* histograms record here,
  /// and GET /metrics serializes a fresh snapshot per scrape. Non-owning;
  /// nullptr runs unobserved.
  obs::MetricsRegistry* metrics = nullptr;
  /// External stop flag (the CLI points this at its signal-handler flag);
  /// checked every poll cycle, same effect as request_stop().
  const std::atomic<bool>* stop_flag = nullptr;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run()), but
  /// accepts nothing until run(). Throws CheckError on socket errors.
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves ephemeral binds).
  int port() const { return port_; }

  /// The embedded service. Driver-thread-only while run() is live; tests
  /// use it to preload instances before starting and to audit SvcStats
  /// after run() returns.
  svc::MatchService& service() { return service_; }

  /// Runs the accept loop until request_stop() / the configured stop
  /// flag, then drains gracefully: stop accepting and reading, finish
  /// every pending request, flush, close.
  void run();

  /// Thread-safe; run() notices within one poll interval.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct Connection {
    int fd = -1;
    std::int64_t id = 0;
    enum class Mode : std::uint8_t { kNew, kProto, kHttp } mode = Mode::kNew;
    LineBuffer in;
    std::string out;
    std::size_t out_pos = 0;
    std::int64_t next_seq = 0;  ///< per-connection response numbering
    /// Admitted requests whose response is not routed yet (keeps an EOF'd
    /// peer alive until everything it is owed has been routed and
    /// flushed).
    std::int64_t unrouted = 0;
    std::chrono::steady_clock::time_point last_activity;
    bool close_after_flush = false;

    explicit Connection(std::size_t max_line_bytes) : in(max_line_bytes) {}
  };

  struct Route {
    std::int64_t id = 0;  ///< service id (arrival ordinal)
    std::int64_t conn_id = 0;
    std::int64_t seq = 0;
  };

  bool stop_requested() const;
  void accept_ready();
  /// Reads fd until EAGAIN and handles every complete line. Returns the
  /// number of request lines admitted (the batch trigger's "busy" signal).
  std::int64_t read_ready(Connection& conn);
  /// Returns true when the line was a request the service admitted.
  bool handle_line(Connection& conn, std::string_view line);
  void handle_first_line(Connection& conn, std::string_view line);
  bool handle_request_line(Connection& conn, std::string_view body);
  void handle_instance_line(Connection& conn, std::string_view body);
  void serve_http(Connection& conn, std::string_view request_line);
  void reply_err(Connection& conn, const std::string& diagnostic);
  /// Buffers bytes for the cycle's flush (see enforce_backlog).
  void append_out(Connection& conn, std::string_view bytes);
  /// After an append: drops the connection past write_buffer_limit, and
  /// sends inline once the backlog reaches write_high_water.
  void enforce_backlog(Connection& conn);
  /// The one send loop: sends until the backlog is empty or the socket is
  /// full (time.net.write_us times each call).
  void flush_ready(Connection& conn);
  void run_pending_batch();
  void close_connection(std::int64_t conn_id);
  void drain_and_flush();

  ServeConfig config_;
  svc::MatchService service_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::int64_t next_conn_id_ = 0;
  // unordered_map keeps Connection addresses stable across accepts; the
  // poll set is rebuilt per cycle from it.
  std::unordered_map<std::int64_t, std::unique_ptr<Connection>> conns_;
  std::deque<Route> routes_;  ///< admitted requests, in service id order
  std::vector<std::int64_t> doomed_;  ///< closed mid-cycle, reaped after

  // net.* metrics (inactive when config_.metrics == nullptr).
  obs::CounterHandle m_accepted_;
  obs::CounterHandle m_closed_;
  obs::CounterHandle m_requests_;
  obs::CounterHandle m_responses_;
  obs::CounterHandle m_err_lines_;
  obs::CounterHandle m_scrapes_;
  obs::CounterHandle m_bytes_read_;
  obs::CounterHandle m_bytes_written_;
  obs::GaugeHandle m_connections_;
  obs::HistogramHandle m_accept_us_;
  obs::HistogramHandle m_read_us_;
  obs::HistogramHandle m_write_us_;
  obs::HistogramHandle m_batch_us_;
};

}  // namespace dasm::net
