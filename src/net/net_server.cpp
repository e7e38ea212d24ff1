#include "net/net_server.hpp"

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
#include <stdexcept>
#include <utility>

#include "net/io.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace hs::net {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

NetServer::NetServer(serve::JobBackend& backend, NetServerOptions options)
    : backend_(backend), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error(errno_text("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string msg = errno_text(
        ("cannot bind " + options_.bind_address + ":" +
         std::to_string(options_.port))
            .c_str());
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(msg);
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const std::string msg = errno_text("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(msg);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    const std::string msg = errno_text("pipe2");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(msg);
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  queue_ = std::make_shared<SharedQueue>();
  queue_->wake_fd = wake_write_fd_;

  // The hooks own only the shared queue: a job still running after this
  // NetServer dies finds open == false and drops its event.
  const std::shared_ptr<SharedQueue> q = queue_;
  backend_.set_on_terminal([q](const serve::JobResult& result) {
    std::lock_guard<std::mutex> lk(q->mu);
    if (!q->open) return;
    JobEvent ev;
    ev.result = result;
    q->events.push_back(std::move(ev));
    const char b = 'e';
    [[maybe_unused]] const auto n = ::write(q->wake_fd, &b, 1);
  });
  if (options_.progress_events) {
    backend_.set_on_progress([q](std::uint64_t id, std::uint64_t checks) {
      std::lock_guard<std::mutex> lk(q->mu);
      if (!q->open) return;
      JobEvent ev;
      ev.is_progress = true;
      ev.job_id = id;
      ev.checks = checks;
      q->events.push_back(std::move(ev));
      const char b = 'p';
      [[maybe_unused]] const auto n = ::write(q->wake_fd, &b, 1);
    });
  }
  util::logkv(util::LogLevel::Info, "net: listening",
              {{"addr", options_.bind_address},
               {"port", static_cast<std::int64_t>(port_)}});
}

NetServer::~NetServer() {
  request_stop(/*drain=*/false);
  if (thread_.joinable()) thread_.join();
  // Detach the hooks before tearing down the queue: set_on_terminal blocks
  // until an in-flight invocation has left the callback.
  backend_.set_on_terminal(nullptr);
  backend_.set_on_progress(nullptr);
  {
    std::lock_guard<std::mutex> lk(queue_->mu);
    queue_->open = false;
    queue_->wake_fd = -1;
  }
  ::close(wake_write_fd_);
  ::close(wake_read_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
}

void NetServer::run() { loop(); }

void NetServer::set_on_result(
    std::function<void(const serve::JobResult&)> observer) {
  on_result_ = std::move(observer);
}

void NetServer::flush_results() { drain_events(); }

void NetServer::start() {
  thread_ = std::thread([this] { loop(); });
}

void NetServer::stop(bool drain) {
  request_stop(drain);
  if (thread_.joinable()) thread_.join();
}

void NetServer::request_stop(bool drain) {
  bool expected = false;
  if (stop_latched_.compare_exchange_strong(expected, true)) {
    drain_requested_.store(drain, std::memory_order_relaxed);
  }
  stop_requested_.store(true, std::memory_order_release);
  const char b = 's';
  [[maybe_unused]] const auto n = ::write(wake_write_fd_, &b, 1);
}

NetServer::Stats NetServer::stats() const {
  Stats s;
  s.accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.closed = stats_.closed.load(std::memory_order_relaxed);
  s.frames = stats_.frames.load(std::memory_order_relaxed);
  s.bad_frames = stats_.bad_frames.load(std::memory_order_relaxed);
  s.oversized_frames = stats_.oversized_frames.load(std::memory_order_relaxed);
  s.truncated_frames = stats_.truncated_frames.load(std::memory_order_relaxed);
  s.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.rejected = stats_.rejected.load(std::memory_order_relaxed);
  s.results_sent = stats_.results_sent.load(std::memory_order_relaxed);
  s.progress_sent = stats_.progress_sent.load(std::memory_order_relaxed);
  s.orphaned_results =
      stats_.orphaned_results.load(std::memory_order_relaxed);
  s.flow_pauses = stats_.flow_pauses.load(std::memory_order_relaxed);
  return s;
}

std::size_t NetServer::open_connections() const {
  return open_conns_.load(std::memory_order_relaxed);
}

double NetServer::retry_after_ms() const {
  const double depth = static_cast<double>(backend_.queue_depth());
  const double hint = (depth + 1) * ewma_exec_ms_;
  return std::clamp(hint, options_.retry_after_floor_ms,
                    options_.retry_after_ceil_ms);
}

void NetServer::loop() {
  std::vector<pollfd> fds;
  for (;;) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    const bool draining = drain_requested_.load(std::memory_order_relaxed);
    if (stopping) {
      if (listen_fd_ >= 0) {  // release the port as soon as we stop
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (!draining) {
        while (!conns_.empty()) {
          close_connection(conns_.begin()->first, "shutdown");
        }
        return;
      }
      bool pending_events;
      {
        std::lock_guard<std::mutex> lk(queue_->mu);
        pending_events = !queue_->events.empty();
      }
      bool flushed = routes_.empty() && !pending_events;
      for (const auto& [fd, conn] : conns_) {
        if (conn.outbuf.size() > conn.outbuf_off) flushed = false;
      }
      if (flushed) {
        while (!conns_.empty()) {
          close_connection(conns_.begin()->first, "drained");
        }
        return;
      }
    }

    fds.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    // Poll the listen socket even at the connection cap: accept_clients
    // answers over-limit peers with the structured busy reject and closes
    // them. Leaving them in the kernel backlog would make them hang
    // silently until a slot frees instead of hearing "busy" promptly.
    const bool accepting = !stopping && listen_fd_ >= 0;
    if (accepting) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short events = 0;
      if (!stopping && !conn.paused && !conn.closing && !conn.read_eof) {
        events |= POLLIN;
      }
      if (conn.outbuf.size() > conn.outbuf_off) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }

    // 100 ms cap: a safety net for missed wakeups and the drain recheck.
    ::poll(fds.data(), fds.size(), 100);

    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    drain_events();

    std::size_t i = 1;
    if (accepting) {
      if (fds[i].revents & POLLIN) accept_clients();
      ++i;
    }
    for (; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const short re = fds[i].revents;
      if (re == 0) continue;
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if ((re & (POLLERR | POLLNVAL)) ||
          ((re & POLLHUP) && !(re & POLLIN))) {
        close_connection(fd, "socket error");
        continue;
      }
      if (re & POLLIN) read_connection(it->second);
      it = conns_.find(fd);
      if (it != conns_.end() && (re & POLLOUT)) write_connection(it->second);
    }

    // Connections that flow control just resumed (drain_events above
    // delivered their terminals) may hold frames split off an earlier
    // recv batch; process them now -- the client may be idle waiting on
    // those responses, so no POLLIN will arrive to trigger it.
    if (!stopping) {
      for (auto& [fd, conn] : conns_) {
        if (!conn.paused && !conn.closing) drain_reader(conn);
      }
    }

    // Sweep: half-closed clients linger only while results are still
    // owed; closing connections go once their out-buffer flushes.
    std::vector<int> done;
    for (const auto& [fd, conn] : conns_) {
      const bool flushed = conn.outbuf.size() <= conn.outbuf_off;
      if (flushed && (conn.closing ||
                      (conn.read_eof && conn.inflight.empty()))) {
        done.push_back(fd);
      }
    }
    for (const int fd : done) {
      close_connection(fd, conns_.at(fd).closing ? "closed" : "client closed");
    }
  }
}

void NetServer::drain_events() {
  std::deque<JobEvent> events;
  {
    std::lock_guard<std::mutex> lk(queue_->mu);
    events.swap(queue_->events);
  }
  for (JobEvent& ev : events) {
    if (ev.is_progress) {
      const auto route = routes_.find(ev.job_id);
      if (route == routes_.end()) continue;
      auto it = conns_.find(route->second);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      const PendingJob& tag = conn.inflight.at(ev.job_id);
      stats_.progress_sent.fetch_add(1, std::memory_order_relaxed);
      trace::counter("net.progress.out").increment();
      queue_response(conn, progress_frame(ev.job_id, tag.has_client_id,
                                          tag.client_id, ev.checks));
    } else {
      deliver_terminal(ev.result);
      if (on_result_) on_result_(ev.result);
    }
  }
}

void NetServer::deliver_terminal(const serve::JobResult& result) {
  const auto route = routes_.find(result.id);
  if (route == routes_.end()) {
    if (orphaned_.erase(result.id) > 0) {
      stats_.orphaned_results.fetch_add(1, std::memory_order_relaxed);
      trace::counter("net.results.orphaned").increment();
    }
    // Otherwise: not a net-submitted job (file mode, another front door)
    // or already answered synchronously at submit time.
    return;
  }
  const int fd = route->second;
  routes_.erase(route);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  const auto tag_it = conn.inflight.find(result.id);
  if (tag_it == conn.inflight.end()) return;
  const PendingJob tag = tag_it->second;
  conn.inflight.erase(tag_it);

  trace::histogram("net.request_total_s").record(seconds_since(tag.received));
  if (result.state == serve::JobState::Done && result.exec_seconds > 0) {
    // Feeds the 429 retry-after hint: recent mean service time.
    ewma_exec_ms_ = 0.8 * ewma_exec_ms_ + 0.2 * result.exec_seconds * 1e3;
  }
  std::string frame;
  if (result.state == serve::JobState::Rejected) {
    // A queued job shed by a higher-priority arrival: same 429 shape as a
    // synchronous admission rejection.
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    trace::counter("net.jobs.rejected").increment();
    frame = reject_frame(result.id, tag.has_client_id, tag.client_id,
                         result.name, result.detail, retry_after_ms());
  } else {
    stats_.results_sent.fetch_add(1, std::memory_order_relaxed);
    trace::counter("net.responses.out").increment();
    frame = result_frame(result, tag.has_client_id, tag.client_id);
  }
  queue_response(conn, std::move(frame));
  update_flow_control(conn);
}

void NetServer::accept_clients() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: try later
    if (conns_.size() >= options_.max_connections) {
      const std::string busy = error_frame("server busy: too many connections",
                                           /*fatal=*/true);
      (void)send_all_bounded(fd, busy, /*timeout_ms=*/100);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    auto [it, inserted] =
        conns_.emplace(fd, Connection(fd, id, options_.max_frame_bytes));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    trace::counter("net.connections.accepted").increment();
    open_conns_.store(conns_.size(), std::memory_order_relaxed);
    trace::gauge("net.connections.active")
        .set(static_cast<double>(conns_.size()));
    queue_response(it->second, hello_frame(options_.max_frame_bytes));
  }
}

void NetServer::read_connection(Connection& conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      trace::counter("net.bytes.in").add(n);
      conn.reader.feed(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      conn.reader.finish();
      conn.read_eof = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // fall through to process what we have
    } else if (errno == EINTR) {
      continue;
    } else {
      // Socket is broken: drop pending output and let the loop sweep
      // close it (erasing here would dangle this reference).
      conn.outbuf.clear();
      conn.outbuf_off = 0;
      conn.closing = true;
      return;
    }

    drain_reader(conn);
    update_flow_control(conn);
    if (n == 0 || conn.closing || conn.paused) break;
    if (n < 0) break;  // EAGAIN
  }
  // Closing connections flush eagerly; the POLLOUT path finishes the job.
  if (conn.closing) write_connection(conn);
}

void NetServer::drain_reader(Connection& conn) {
  // Pause state is re-checked before every frame, not once per recv
  // batch: TCP happily coalesces a burst of requests into one segment,
  // and the in-flight cap must hold even when all of them arrive in a
  // single read. Frames past the cap stay queued in the reader; the loop
  // drains them after flow control resumes the connection (no further
  // socket bytes required).
  while (!conn.paused && !conn.closing) {
    auto ev = conn.reader.next();
    if (!ev) break;
    switch (ev->kind) {
      case FrameEvent::Kind::Frame:
        if (!ev->text.empty() && ev->text[0] != '#') {
          handle_frame(conn, ev->text);
        }
        break;
      case FrameEvent::Kind::Oversized:
        stats_.oversized_frames.fetch_add(1, std::memory_order_relaxed);
        trace::counter("net.frames.oversized").increment();
        queue_response(
            conn,
            error_frame("frame exceeds " +
                            std::to_string(options_.max_frame_bytes) +
                            " bytes",
                        /*fatal=*/true));
        conn.closing = true;
        break;
      case FrameEvent::Kind::Truncated:
        // Abrupt mid-frame disconnect; nobody is left to answer.
        stats_.truncated_frames.fetch_add(1, std::memory_order_relaxed);
        trace::counter("net.frames.truncated").increment();
        break;
    }
    update_flow_control(conn);
  }
}

void NetServer::handle_frame(Connection& conn, const std::string& text) {
  stats_.frames.fetch_add(1, std::memory_order_relaxed);
  trace::counter("net.frames.in").increment();

  std::string error;
  const auto req = serve::parse_request_frame(
      text, &error, "conn " + std::to_string(conn.id));
  if (!req) {
    stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    trace::counter("net.frames.bad").increment();
    queue_response(conn, error_frame(error, options_.close_on_bad_frame));
    if (options_.close_on_bad_frame) conn.closing = true;
    return;
  }

  const auto received = std::chrono::steady_clock::now();
  const serve::Submitted submitted = backend_.submit(req->spec);
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  trace::counter("net.jobs.submitted").increment();
  if (!submitted.admitted) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    trace::counter("net.jobs.rejected").increment();
    queue_response(conn, reject_frame(submitted.id, req->has_client_id,
                                      req->client_id, req->spec.name,
                                      submitted.detail, retry_after_ms()));
    return;
  }
  // Route registered in the same loop iteration as submit(): the terminal
  // event for this id sits in the shared queue until we next drain it, so
  // it cannot arrive unrouted.
  conn.inflight[submitted.id] =
      PendingJob{req->client_id, req->has_client_id, received};
  routes_[submitted.id] = conn.fd;
}

void NetServer::queue_response(Connection& conn, std::string frame) {
  const bool was_empty = conn.outbuf.size() <= conn.outbuf_off;
  conn.outbuf += frame;
  // Eager flush when the buffer was idle: one syscall now beats waiting a
  // poll cycle for POLLOUT on an almost-always-writable socket.
  if (was_empty) write_connection(conn);
}

void NetServer::write_connection(Connection& conn) {
  while (conn.outbuf.size() > conn.outbuf_off) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.outbuf_off,
               conn.outbuf.size() - conn.outbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf_off += static_cast<std::size_t>(n);
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      trace::counter("net.bytes.out").add(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Broken pipe / reset: closing is deferred to the loop sweep so that
    // callers holding a reference to this Connection stay valid.
    conn.outbuf.clear();
    conn.outbuf_off = 0;
    conn.closing = true;
    return;
  }
  if (conn.outbuf_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outbuf_off = 0;
  } else if (conn.outbuf_off > (1u << 16)) {
    conn.outbuf.erase(0, conn.outbuf_off);
    conn.outbuf_off = 0;
  }
  update_flow_control(conn);
}

void NetServer::update_flow_control(Connection& conn) {
  const std::size_t backlog = conn.outbuf.size() - conn.outbuf_off;
  const bool should_pause =
      conn.inflight.size() >= options_.max_inflight_per_conn ||
      backlog > options_.max_write_backlog_bytes;
  if (should_pause && !conn.paused) {
    stats_.flow_pauses.fetch_add(1, std::memory_order_relaxed);
    trace::counter("net.flow.pauses").increment();
    util::logkv(util::LogLevel::Debug, "net: connection paused",
                {{"conn", static_cast<std::int64_t>(conn.id)},
                 {"inflight", static_cast<std::int64_t>(conn.inflight.size())},
                 {"backlog", static_cast<std::int64_t>(backlog)}});
  }
  conn.paused = should_pause;
}

void NetServer::close_connection(int fd, const char* why) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  trace::histogram("net.conn.lifetime_s").record(seconds_since(conn.opened));
  // Jobs the dead client leaves behind still run to a terminal state in
  // the Server; their results become orphans instead of routing nowhere.
  for (const auto& [job_id, tag] : conn.inflight) {
    routes_.erase(job_id);
    orphaned_.insert(job_id);
  }
  util::logkv(util::LogLevel::Debug, "net: connection closed",
              {{"conn", static_cast<std::int64_t>(conn.id)}, {"why", why}});
  ::close(fd);
  conns_.erase(it);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  trace::counter("net.connections.closed").increment();
  open_conns_.store(conns_.size(), std::memory_order_relaxed);
  trace::gauge("net.connections.active")
      .set(static_cast<double>(conns_.size()));
}

}  // namespace hs::net
