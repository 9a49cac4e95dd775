#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace dasm::net {

namespace {

/// CheckError messages are single-line already, but a message echoing
/// client bytes could smuggle a newline into the response stream and
/// desync the line protocol — flatten defensively.
std::string sanitize(std::string_view message) {
  std::string out(message);
  for (char& c : out) {
    if (c == '\n' || c == '\r' || c == '\0') c = ' ';
  }
  return out;
}

svc::SvcConfig patched_svc(const ServeConfig& config) {
  svc::SvcConfig svc = config.svc;
  svc.metrics = config.metrics;
  return svc;
}

void set_nonblocking_checked(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DASM_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

}  // namespace

Server::Server(ServeConfig config)
    : config_(std::move(config)), service_(patched_svc(config_)) {
  DASM_CHECK_MSG(config_.batch_max_requests >= 1,
                 "batch_max_requests must be >= 1");
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    m_accepted_ = reg.counter("net.accepted");
    m_closed_ = reg.counter("net.closed");
    m_requests_ = reg.counter("net.requests");
    m_responses_ = reg.counter("net.responses");
    m_err_lines_ = reg.counter("net.err_lines");
    m_scrapes_ = reg.counter("net.scrapes");
    m_bytes_read_ = reg.counter("net.bytes_read");
    m_bytes_written_ = reg.counter("net.bytes_written");
    m_connections_ = reg.gauge("net.connections");
    m_accept_us_ = reg.histogram("time.net.accept_us");
    m_read_us_ = reg.histogram("time.net.read_us");
    m_write_us_ = reg.histogram("time.net.write_us");
    m_batch_us_ = reg.histogram("time.net.batch_us");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  DASM_CHECK_MSG(listen_fd_ >= 0,
                 "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  DASM_CHECK_MSG(
      ::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
      "invalid bind address '" << config_.bind_address << "'");
  DASM_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind(" << config_.bind_address << ":" << config_.port
                         << ") failed: " << std::strerror(errno));
  DASM_CHECK_MSG(::listen(listen_fd_, config_.backlog) == 0,
                 "listen() failed: " << std::strerror(errno));
  set_nonblocking_checked(listen_fd_);

  socklen_t len = sizeof(addr);
  DASM_CHECK_MSG(::getsockname(listen_fd_,
                               reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                 "getsockname() failed: " << std::strerror(errno));
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

Server::~Server() {
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::stop_requested() const {
  if (stop_.load(std::memory_order_relaxed)) return true;
  return config_.stop_flag != nullptr &&
         config_.stop_flag->load(std::memory_order_relaxed);
}

void Server::run() {
  std::vector<pollfd> fds;
  std::vector<std::int64_t> fd_conn;  // conn id per pollfd (listen = -1)
  while (!stop_requested()) {
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fd_conn.push_back(-1);
    for (auto& [id, conn] : conns_) {
      if (conn->fd < 0) continue;
      short events = 0;
      const std::size_t backlog = conn->out.size() - conn->out_pos;
      if (!conn->close_after_flush && backlog < config_.write_high_water) {
        events |= POLLIN;
      }
      if (backlog > 0) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    const int timeout =
        service_.pending() > 0 ? 0
                               : static_cast<int>(config_.poll_interval_ms);
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0 && errno != EINTR) break;

    std::int64_t admitted = 0;
    for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_conn[i] < 0) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end() || it->second->fd < 0) continue;
      Connection& conn = *it->second;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        admitted += read_ready(conn);
      }
      if (conn.fd >= 0 && (fds[i].revents & POLLOUT) != 0) {
        flush_ready(conn);
      }
    }

    // Batch trigger: the stream went idle (no admission this cycle), or
    // enough is pending to amortize a run under continuous load.
    if (service_.pending() > 0 &&
        (admitted == 0 ||
         static_cast<std::int64_t>(service_.pending()) >=
             config_.batch_max_requests)) {
      run_pending_batch();
    }

    if (config_.idle_timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (auto& [id, conn] : conns_) {
        if (conn->fd < 0) continue;
        const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                              now - conn->last_activity)
                              .count();
        if (idle > config_.idle_timeout_ms) close_connection(id);
      }
    }

    if (!doomed_.empty()) {
      for (const std::int64_t id : doomed_) conns_.erase(id);
      doomed_.clear();
      m_connections_.set(static_cast<std::int64_t>(conns_.size()));
    }
  }
  drain_and_flush();
}

void Server::accept_ready() {
  const obs::ScopedTimer timer(m_accept_us_);
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a transient error — retry next cycle
    set_nonblocking_checked(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(config_.max_line_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = std::chrono::steady_clock::now();
    m_accepted_.inc();
    const std::int64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    m_connections_.set(static_cast<std::int64_t>(conns_.size()));
  }
}

std::int64_t Server::read_ready(Connection& conn) {
  const obs::ScopedTimer timer(m_read_us_);
  char buf[4096];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(std::string_view(buf, static_cast<std::size_t>(n)));
      m_bytes_read_.inc(n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // orderly shutdown (n == 0) or hard error
    break;
  }

  std::int64_t admitted = 0;
  std::string line;
  while (conn.fd >= 0 && !conn.close_after_flush) {
    const LineBuffer::Next next = conn.in.next(&line);
    if (next == LineBuffer::Next::kNeedMore) break;
    if (next == LineBuffer::Next::kOverlong) {
      reply_err(conn, "line exceeds " + std::to_string(config_.max_line_bytes) +
                          " bytes");
      continue;
    }
    if (next == LineBuffer::Next::kNulByte) {
      reply_err(conn, "line contains an embedded NUL byte");
      continue;
    }
    if (handle_line(conn, line)) ++admitted;
  }

  if (eof && conn.fd >= 0) {
    // Peer finished sending; flush what we owe it, then close. Responses
    // to its already-admitted requests are still routed and flushed.
    conn.close_after_flush = true;
    if (conn.out.size() == conn.out_pos && !routes_pending_for(conn.id)) {
      close_connection(conn.id);
    }
  }
  return admitted;
}

bool Server::routes_pending_for(std::int64_t conn_id) const {
  for (const auto& [id, route] : routes_) {
    if (route.conn_id == conn_id) return true;
  }
  return false;
}

bool Server::handle_line(Connection& conn, const std::string& line) {
  if (conn.mode == Connection::Mode::kNew) {
    handle_first_line(conn, line);
    return false;
  }
  // kHttp connections never reach here (close_after_flush is set).
  std::istringstream ls(line);
  std::string kind;
  if (!(ls >> kind)) return false;  // blank line: ignore
  if (kind == "request") return handle_request_line(conn, ls);
  if (kind == "instance") {
    handle_instance_line(conn, ls);
  } else {
    reply_err(conn, "expected 'request' or 'instance', got '" +
                        sanitize(kind) + "'");
  }
  return false;
}

void Server::handle_first_line(Connection& conn, const std::string& line) {
  if (line == "dasm-requests 1") {
    conn.mode = Connection::Mode::kProto;
    append_out(conn, "dasm-responses 1\n");
    return;
  }
  if (line.rfind("GET ", 0) == 0) {
    conn.mode = Connection::Mode::kHttp;
    // Set before the write: if the response flushes inline, flush_ready
    // closes the connection right away.
    conn.close_after_flush = true;
    serve_http(conn, line);
    return;
  }
  conn.close_after_flush = true;
  reply_err(conn, "expected 'dasm-requests 1' header or an HTTP GET");
}

bool Server::handle_request_line(Connection& conn, std::istream& rest) {
  try {
    const svc::Request req = svc::parse_request(rest);
    if (service_.instances().find(req.instance) == nullptr) {
      reply_err(conn, "request names unregistered instance '" +
                          sanitize(req.instance) + "'");
      return false;
    }
    const std::int64_t id = service_.submit(req);
    if (id < 0) {
      append_out(conn, "ERR shed\n");
      return false;
    }
    routes_[id] = Route{conn.id, conn.next_seq++};
    m_requests_.inc();
    return true;
  } catch (const CheckError& e) {
    reply_err(conn, sanitize(e.message()));
    return false;
  }
}

void Server::handle_instance_line(Connection& conn, std::istream& rest) {
  try {
    const svc::RequestFile::InstanceDecl decl = svc::parse_instance_decl(rest);
    if (decl.from_file) {
      // A wire client must not make the server open its files (or learn
      // their contents from parse diagnostics); file instances come from
      // the operator, through --preload.
      reply_err(conn, "instance '" + sanitize(decl.name) +
                          "': file sources are not accepted on the wire");
      return;
    }
    if (service_.instances().find(decl.name) != nullptr) {
      reply_err(conn,
                "instance '" + sanitize(decl.name) + "' already registered");
      return;
    }
    service_.instances().add(decl.name, svc::make_declared_instance(decl));
    // Success is silent, so a protocol conversation's response stream is
    // byte-identical to the `dasm batch` log for the same request file.
  } catch (const CheckError& e) {
    reply_err(conn, sanitize(e.message()));
  }
}

void Server::serve_http(Connection& conn, const std::string& request_line) {
  std::istringstream ls(request_line);
  std::string method, path;
  ls >> method >> path;
  std::string body;
  const char* status = "200 OK";
  if (path == "/metrics" || path.rfind("/metrics?", 0) == 0) {
    // A fresh snapshot per scrape; the registry is process-lifetime and
    // never reset, so every exported counter is monotonic across scrapes.
    std::ostringstream os;
    if (config_.metrics != nullptr) {
      obs::write_prometheus(os, config_.metrics->snapshot());
    }
    body = os.str();
    m_scrapes_.inc();
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::ostringstream resp;
  resp << "HTTP/1.0 " << status << "\r\n"
       << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
  append_out(conn, resp.str());
}

void Server::reply_err(Connection& conn, const std::string& diagnostic) {
  m_err_lines_.inc();
  append_out(conn, "ERR " + diagnostic + "\n");
}

void Server::append_out(Connection& conn, std::string_view bytes) {
  if (conn.fd < 0) return;
  if (conn.out.size() - conn.out_pos + bytes.size() >
      config_.write_buffer_limit) {
    // The consumer is too slow even after backpressure paused its reads:
    // drop it rather than buffer unboundedly.
    close_connection(conn.id);
    return;
  }
  conn.out.append(bytes);
  flush_ready(conn);
}

void Server::flush_ready(Connection& conn) {
  if (conn.fd < 0) return;
  const obs::ScopedTimer timer(m_write_us_);
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_connection(conn.id);
      return;
    }
    conn.out_pos += static_cast<std::size_t>(n);
    m_bytes_written_.inc(n);
    conn.last_activity = std::chrono::steady_clock::now();
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.close_after_flush && !routes_pending_for(conn.id)) {
    close_connection(conn.id);
  }
}

void Server::run_pending_batch() {
  const obs::ScopedTimer timer(m_batch_us_);
  service_.run_batch();
  std::ostringstream os;
  for (svc::Response& resp : service_.take_responses()) {
    const auto it = routes_.find(resp.id);
    DASM_DCHECK(it != routes_.end());
    if (it == routes_.end()) continue;
    const Route route = it->second;
    routes_.erase(it);
    const auto conn_it = conns_.find(route.conn_id);
    if (conn_it == conns_.end() || conn_it->second->fd < 0) {
      continue;  // connection went away while its request was in flight
    }
    resp.id = route.seq;  // global arrival ordinal -> per-connection seq
    os.str(std::string());
    resp.write_line(os);
    m_responses_.inc();
    append_out(*conn_it->second, os.str());
    // A finished peer (EOF already seen) lingers only for its responses.
    Connection& conn = *conn_it->second;
    if (conn.fd >= 0 && conn.close_after_flush &&
        conn.out.size() == conn.out_pos && !routes_pending_for(conn.id)) {
      close_connection(conn.id);
    }
  }
}

void Server::close_connection(std::int64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second->fd < 0) return;
  ::close(it->second->fd);
  it->second->fd = -1;
  m_closed_.inc();
  doomed_.push_back(conn_id);
}

void Server::drain_and_flush() {
  // Graceful drain: no new connections, no new reads — every already-
  // admitted request still executes and every response line is flushed.
  ::close(listen_fd_);
  listen_fd_ = -1;
  while (service_.pending() > 0) run_pending_batch();

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.drain_flush_timeout_ms);
  std::vector<pollfd> fds;
  std::vector<std::int64_t> fd_conn;
  for (;;) {
    fds.clear();
    fd_conn.clear();
    for (auto& [id, conn] : conns_) {
      if (conn->fd < 0 || conn->out_pos >= conn->out.size()) continue;
      fds.push_back(pollfd{conn->fd, POLLOUT, 0});
      fd_conn.push_back(id);
    }
    if (fds.empty() || std::chrono::steady_clock::now() >= deadline) break;
    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLOUT | POLLHUP | POLLERR)) == 0) continue;
      const auto it = conns_.find(fd_conn[i]);
      if (it != conns_.end()) flush_ready(*it->second);
    }
  }
  // Every connection still open is closed here and counted in net.closed
  // like any other close.
  for (const auto& [id, conn] : conns_) close_connection(id);
  conns_.clear();
  doomed_.clear();
  routes_.clear();
  m_connections_.set(0);
}

}  // namespace dasm::net
