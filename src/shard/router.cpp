#include "shard/router.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace hs::shard {

namespace {

/// The loop ticks at least this often: port files are polled, children
/// reaped, and spawn deadlines checked even when no socket is active.
constexpr int kPollMs = 50;

std::string trimmed_file_contents(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == '\r' || text.back() == ' ')) {
    text.pop_back();
  }
  return text;
}

}  // namespace

Router::Router(const RouterOptions& options)
    : options_(options), ring_(options.vnodes) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.worker_cmd.empty()) {
    throw std::invalid_argument("Router: worker_cmd is required");
  }
  if (options_.state_dir.empty()) {
    options_.state_dir =
        "/tmp/hs-shard." + std::to_string(static_cast<long>(::getpid()));
  }
  if (options_.max_restarts < 0) options_.max_restarts = 0;
  if (options_.max_reroutes < 0) options_.max_reroutes = 0;
}

Router::~Router() {
  shutdown(false);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

std::string Router::shard_port_file(std::size_t shard) const {
  return options_.state_dir + "/shard" + std::to_string(shard) + ".port";
}

std::string Router::shard_log_file(std::size_t shard) const {
  return options_.state_dir + "/shard" + std::to_string(shard) + ".log";
}

std::string Router::shard_stats_file(std::size_t shard) const {
  return options_.state_dir + "/shard" + std::to_string(shard) + ".stats.json";
}

void Router::start() {
  std::error_code ec;
  std::filesystem::create_directories(options_.state_dir, ec);
  if (ec) {
    throw std::runtime_error("Router: cannot create state dir " +
                             options_.state_dir + ": " + ec.message());
  }
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("Router: pipe2 failed");
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  {
    std::lock_guard<std::mutex> lk(mu_);
    shards_.resize(options_.shards);
    for (std::size_t k = 0; k < options_.shards; ++k) {
      ring_.add(static_cast<std::uint32_t>(k));
      shards_[k].gauge_name = "shard." + std::to_string(k) + ".outstanding";
      shards_[k].histogram_name = "shard." + std::to_string(k) + ".latency_s";
      spawn_shard_locked(k);
    }
    started_ = true;
  }
  thread_ = std::thread([this] { loop(); });

  // Block until one shard serves or none can: the loop flips Starting
  // shards to Up (port file + connect) or Dead (exit/timeout, after any
  // crash-restart budget).
  std::unique_lock<std::mutex> lk(mu_);
  start_cv_.wait(lk, [&] {
    bool any_up = false, any_pending = false;
    for (const Shard& sh : shards_) {
      any_up |= sh.state == ShardState::Up;
      any_pending |= sh.state == ShardState::Starting;
    }
    return any_up || !any_pending;
  });
  for (const Shard& sh : shards_) {
    if (sh.state == ShardState::Up) return;
  }
  lk.unlock();
  shutdown(false);
  throw std::runtime_error("Router: no shard came up; see " +
                           options_.state_dir + "/shard*.log");
}

void Router::wake() {
  if (wake_write_fd_ < 0) return;
  const char b = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &b, 1);
}

double Router::elapsed_s(const Record& rec) const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       rec.submit_tp)
      .count();
}

void Router::add_event(Record& rec, const char* what, std::string detail) {
  rec.result.timeline.push_back(
      serve::TimelineEvent{elapsed_s(rec), what, std::move(detail)});
}

void Router::spawn_shard_locked(std::size_t k) {
  Shard& sh = shards_[k];
  const std::string port_file = shard_port_file(k);
  ::unlink(port_file.c_str());

  std::vector<std::string> args = {
      options_.worker_cmd,
      "--worker",
      "--listen",
      "0",
      "--port-file",
      port_file,
      "--workers",
      std::to_string(options_.worker_threads),
      "--queue-depth",
      std::to_string(options_.worker_queue_depth),
      "--cache-mb",
      std::to_string(options_.worker_cache_mb),
      "--stats-file",
      shard_stats_file(k)};
  if (options_.progress_events) args.push_back("--progress");
  args.insert(args.end(), options_.worker_args.begin(),
              options_.worker_args.end());
  // argv must be fully materialized before fork(): the child may only make
  // async-signal-safe calls (open/dup2/execv) in a multithreaded parent.
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log_file = shard_log_file(k);

  const pid_t pid = ::fork();
  if (pid < 0) {
    util::logkv(util::LogLevel::Error, "shard: fork failed",
                {{"shard", static_cast<std::uint64_t>(k)}});
    sh.state = ShardState::Dead;
    return;
  }
  if (pid == 0) {
    const int logfd =
        ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logfd >= 0) {
      ::dup2(logfd, 1);
      ::dup2(logfd, 2);
      if (logfd > 2) ::close(logfd);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  sh.pid = static_cast<int>(pid);
  sh.state = ShardState::Starting;
  sh.exited = false;
  sh.fd = -1;
  sh.reader = std::make_unique<net::FrameReader>(options_.max_frame_bytes);
  sh.outbuf.clear();
  sh.outbuf_off = 0;
  sh.start_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.spawn_timeout_seconds));
  trace::flight_event("shard.spawn", static_cast<std::int64_t>(k), pid);
}

void Router::try_connect_locked(std::size_t k) {
  Shard& sh = shards_[k];
  const std::string text = trimmed_file_contents(shard_port_file(k));
  if (text.empty()) return;
  const auto port = net::parse_port(text);
  if (!port || *port == 0) return;

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(*port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);  // worker may still be between bind and listen; retry
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sh.fd = fd;
  sh.state = ShardState::Up;
  trace::flight_event("shard.up", static_cast<std::int64_t>(k), *port);
  route_parked_locked();
  update_gauges_locked();
  start_cv_.notify_all();
}

bool Router::any_shard_pending_locked() const {
  for (const Shard& sh : shards_) {
    if (sh.state == ShardState::Starting || sh.state == ShardState::Draining) {
      return true;
    }
  }
  return false;
}

void Router::health_sweep_locked() {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& sh = shards_[k];
    if (sh.pid > 0 && !sh.exited) {
      int status = 0;
      if (::waitpid(sh.pid, &status, WNOHANG) == sh.pid) sh.exited = true;
    }
    switch (sh.state) {
      case ShardState::Starting:
        if (sh.exited) {
          shard_down_locked(k, "exited during startup");
          break;
        }
        try_connect_locked(k);
        if (sh.state == ShardState::Starting && now > sh.start_deadline) {
          shard_down_locked(k, "startup timeout");
        }
        break;
      case ShardState::Up:
      case ShardState::Draining:
        // An exited child with the socket still open may have terminal
        // frames buffered in the kernel; the read path consumes them and
        // reports the EOF that follows.
        if (sh.exited && sh.fd < 0) shard_down_locked(k, "process exited");
        break;
      case ShardState::Dead:
        break;
    }
  }
}

void Router::shard_down_locked(std::size_t k, const std::string& why) {
  Shard& sh = shards_[k];
  if (sh.state == ShardState::Dead) return;
  const bool was_draining = sh.draining;
  if (sh.fd >= 0) {
    ::close(sh.fd);
    sh.fd = -1;
  }
  sh.reader.reset();
  sh.outbuf.clear();
  sh.outbuf_off = 0;
  if (sh.pid > 0) {
    if (!sh.exited) {
      ::kill(sh.pid, SIGKILL);
      ::waitpid(sh.pid, nullptr, 0);
    }
    sh.pid = 0;
  }
  sh.exited = false;
  sh.draining = false;
  sh.state = ShardState::Dead;

  const bool expected = was_draining || stop_requested_.load();
  if (!expected) {
    ++stats_.deaths;
    trace::counter("shard.deaths").increment();
    trace::flight_event("shard.death", static_cast<std::int64_t>(k), 0, why);
    util::logkv(util::LogLevel::Warn, "shard: worker died",
                {{"shard", static_cast<std::uint64_t>(k)}, {"why", why}});
    if (!options_.flight_dump_dir.empty()) {
      const std::string path = options_.flight_dump_dir + "/flight_shard" +
                               std::to_string(k) + "_" +
                               std::to_string(stats_.deaths) + ".json";
      trace::write_flight_json_file(
          path, "shard " + std::to_string(k) + " died: " + why);
    }
  }

  // Respawn decision first, so requeued jobs see the Starting shard and
  // park instead of dying when it was the only one.
  if (!stop_requested_.load()) {
    if (was_draining) {
      ++sh.restarts;
      ++stats_.restarts;
      trace::counter("shard.restarts").increment();
      spawn_shard_locked(k);
    } else if (sh.crash_restarts < options_.max_restarts) {
      ++sh.crash_restarts;
      ++sh.restarts;
      ++stats_.restarts;
      trace::counter("shard.restarts").increment();
      spawn_shard_locked(k);
    }
  }

  // Requeue everything that was outstanding there -- never drop.
  const std::set<std::uint64_t> jobs = std::move(sh.jobs);
  sh.jobs.clear();
  for (const std::uint64_t id : jobs) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    Record& rec = it->second;
    if (serve::is_terminal(rec.result.state)) continue;
    rec.shard = -1;
    add_event(rec, "rerouted", "shard " + std::to_string(k) + ": " + why);
    ++rec.reroutes;
    if (rec.reroutes > options_.max_reroutes) {
      finalize_locked(rec, serve::JobState::Failed,
                      "shard died mid-job; reroute budget exhausted");
      continue;
    }
    ++stats_.rerouted;
    trace::counter("shard.jobs.rerouted").increment();
    route_job_locked(rec);
  }
  fail_unroutable_locked();
  update_gauges_locked();
  start_cv_.notify_all();
}

void Router::route_job_locked(Record& rec) {
  if (rec.spec.deadline_seconds > 0 &&
      elapsed_s(rec) >= rec.spec.deadline_seconds) {
    finalize_locked(rec, serve::JobState::TimedOut,
                    "deadline expired while routing");
    return;
  }
  const auto target = ring_.pick(rec.digest, [this](std::uint32_t s) {
    return shards_[s].state == ShardState::Up;
  });
  if (target) {
    send_job_locked(rec, *target);
    return;
  }
  if (any_shard_pending_locked() && !stopping_) {
    if (!rec.parked) {
      rec.parked = true;
      ++stats_.parked;
      trace::counter("shard.jobs.parked").increment();
      add_event(rec, "parked", "no live shard; waiting for restart");
    }
    rec.shard = -1;
    return;
  }
  finalize_locked(rec, serve::JobState::Rejected, "no live shards");
}

void Router::send_job_locked(Record& rec, std::size_t k) {
  Shard& sh = shards_[k];
  serve::JobSpec spec = rec.spec;
  if (spec.deadline_seconds > 0) {
    // The shard restarts the clock at its own admission; forward only the
    // budget this job has left (route_job_locked already culled <= 0).
    spec.deadline_seconds =
        std::max(0.001, spec.deadline_seconds - elapsed_s(rec));
  }
  sh.outbuf += serve::to_request_line(spec, rec.result.id);
  sh.outbuf += '\n';
  sh.jobs.insert(rec.result.id);
  rec.shard = static_cast<int>(k);
  rec.parked = false;
  ++sh.routed;
  ++stats_.routed;
  trace::counter("shard.jobs.routed").increment();
  add_event(rec, "routed", "shard " + std::to_string(k));
  update_gauges_locked();
  wake();  // the loop must re-poll this fd with POLLOUT
}

void Router::route_parked_locked() {
  for (auto& [id, rec] : records_) {
    (void)id;
    if (rec.parked && !serve::is_terminal(rec.result.state)) {
      route_job_locked(rec);
    }
  }
}

void Router::fail_unroutable_locked() {
  // When nothing is Up and nothing can come Up, parked jobs have no
  // future: terminalize them as clean rejects rather than hanging waiters.
  if (any_shard_pending_locked()) return;
  for (const Shard& sh : shards_) {
    if (sh.state == ShardState::Up) return;
  }
  for (auto& [id, rec] : records_) {
    (void)id;
    if (!serve::is_terminal(rec.result.state) && rec.shard < 0) {
      finalize_locked(rec, serve::JobState::Rejected, "no live shards");
    }
  }
}

void Router::finalize_locked(Record& rec, serve::JobState state,
                             std::string detail) {
  serve::JobResult& r = rec.result;
  if (serve::is_terminal(r.state)) return;
  r.state = state;
  r.detail = std::move(detail);
  add_event(rec, serve::to_string(state));
  if (rec.shard >= 0) {
    Shard& sh = shards_[static_cast<std::size_t>(rec.shard)];
    sh.jobs.erase(r.id);
    trace::histogram(sh.histogram_name).record(elapsed_s(rec));
  }
  rec.parked = false;
  if (outstanding_ > 0) --outstanding_;
  if (state == serve::JobState::Rejected) {
    ++stats_.rejected;
    trace::counter("shard.jobs.rejected").increment();
  } else if (state == serve::JobState::Done) {
    ++stats_.completed;
    trace::counter("shard.jobs.completed").increment();
  } else {
    ++stats_.failed;
    trace::counter("shard.jobs.failed").increment();
  }
  update_gauges_locked();
  done_cv_.notify_all();
  if (on_terminal_) {
    on_terminal_(r);
    retired_.push_back(r.id);
  }
}

void Router::retire_delivered_locked() {
  for (const std::uint64_t id : retired_) records_.erase(id);
  retired_.clear();
}

void Router::update_gauges_locked() {
  std::size_t alive = 0;
  for (const Shard& sh : shards_) {
    if (sh.state == ShardState::Up) ++alive;
    if (!sh.gauge_name.empty()) {
      trace::gauge(sh.gauge_name).set(static_cast<std::int64_t>(sh.jobs.size()));
    }
  }
  trace::gauge("shard.alive").set(static_cast<std::int64_t>(alive));
}

serve::Submitted Router::submit(const serve::JobSpec& spec) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = next_id_++;
  Record& rec = records_[id];
  rec.spec = spec;
  rec.submit_tp = std::chrono::steady_clock::now();
  rec.digest = serve::job_fingerprint(spec).digest;
  serve::JobResult& r = rec.result;
  r.id = id;
  r.name = spec.name;
  r.kind = spec.kind;
  r.priority = spec.priority;
  r.state = serve::JobState::Queued;
  ++outstanding_;
  ++stats_.submitted;
  add_event(rec, "submitted");
  if (stopping_) {
    finalize_locked(rec, serve::JobState::Rejected, "server is shutting down");
  } else {
    route_job_locked(rec);
  }
  wake();
  serve::Submitted out{id, !serve::is_terminal(r.state), r.state, r.detail};
  retire_delivered_locked();
  return out;
}

std::size_t Router::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_;
}

void Router::set_on_terminal(
    std::function<void(const serve::JobResult&)> hook) {
  // Swapped under mu_: since the hook only ever fires with mu_ held,
  // returning from here guarantees no in-progress invocation survives.
  std::lock_guard<std::mutex> lk(mu_);
  on_terminal_ = std::move(hook);
}

void Router::set_on_progress(
    std::function<void(std::uint64_t, std::uint64_t)> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  on_progress_ = std::move(hook);
}

serve::JobResult Router::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const auto it = records_.find(id);
    if (it == records_.end()) {
      throw std::invalid_argument("unknown or retired job id " +
                                  std::to_string(id));
    }
    if (serve::is_terminal(it->second.result.state)) return it->second.result;
    done_cv_.wait(lk);
  }
}

std::optional<serve::JobResult> Router::result(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second.result;
}

std::vector<serve::JobResult> Router::results() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<serve::JobResult> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) {
    (void)id;
    out.push_back(rec.result);
  }
  return out;
}

std::size_t Router::shard_for(const serve::JobSpec& spec) const {
  const std::uint64_t digest = serve::job_fingerprint(spec).digest;
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.pick(digest).value_or(0);
}

bool Router::kill_shard(std::size_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shard >= shards_.size()) return false;
  Shard& sh = shards_[shard];
  if (sh.pid <= 0 || sh.state == ShardState::Dead) return false;
  ::kill(sh.pid, SIGKILL);
  wake();
  return true;
}

bool Router::restart_shard(std::size_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shard >= shards_.size()) return false;
  Shard& sh = shards_[shard];
  if (sh.state != ShardState::Up || sh.pid <= 0) return false;
  sh.state = ShardState::Draining;
  sh.draining = true;
  trace::flight_event("shard.drain", static_cast<std::int64_t>(shard), sh.pid);
  // The worker's front door handles SIGTERM as a graceful drain: admitted
  // jobs finish and stream back over the still-open socket; EOF then
  // triggers the requeue + respawn path for anything it never read.
  ::kill(sh.pid, SIGTERM);
  update_gauges_locked();
  wake();
  return true;
}

void Router::read_shard_locked(std::size_t k) {
  Shard& sh = shards_[k];
  char buf[1 << 16];
  while (sh.fd >= 0) {
    const ssize_t n = ::read(sh.fd, buf, sizeof(buf));
    if (n > 0) {
      sh.reader->feed(buf, static_cast<std::size_t>(n));
      while (auto ev = sh.reader->next()) {
        if (ev->kind == net::FrameEvent::Kind::Frame) {
          handle_frame_locked(k, ev->text);
        } else {
          util::logkv(util::LogLevel::Warn, "shard: oversized frame dropped",
                      {{"shard", static_cast<std::uint64_t>(k)}});
        }
      }
      continue;
    }
    if (n == 0) {
      shard_down_locked(k, "connection closed");
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    shard_down_locked(k, std::string("read error: ") + std::strerror(errno));
    return;
  }
}

void Router::write_shard_locked(std::size_t k) {
  Shard& sh = shards_[k];
  while (sh.fd >= 0 && sh.outbuf_off < sh.outbuf.size()) {
    const ssize_t n =
        ::send(sh.fd, sh.outbuf.data() + sh.outbuf_off,
               sh.outbuf.size() - sh.outbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      sh.outbuf_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    shard_down_locked(k, std::string("write error: ") + std::strerror(errno));
    return;
  }
  if (sh.outbuf_off == sh.outbuf.size()) {
    sh.outbuf.clear();
    sh.outbuf_off = 0;
  }
}

void Router::handle_frame_locked(std::size_t k, const std::string& text) {
  std::string error;
  const auto resp = net::parse_response_frame(text, &error);
  if (!resp) {
    util::logkv(util::LogLevel::Warn, "shard: bad frame",
                {{"shard", static_cast<std::uint64_t>(k)}, {"error", error}});
    return;
  }
  if (resp->type == "hello") return;
  if (resp->type == "error") {
    util::logkv(util::LogLevel::Warn, "shard: error frame",
                {{"shard", static_cast<std::uint64_t>(k)},
                 {"error", resp->error}});
    return;
  }
  if (!resp->has_client_id) {
    ++stats_.stale_frames;
    return;
  }
  auto it = records_.find(resp->client_id);
  if (it == records_.end() ||
      serve::is_terminal(it->second.result.state) ||
      it->second.shard != static_cast<int>(k)) {
    // A result for a job this shard no longer owns (rerouted) or never
    // owned; counted, never acted on -- the sibling's result is canonical.
    ++stats_.stale_frames;
    return;
  }
  Record& rec = it->second;
  if (resp->type == "progress") {
    if (on_progress_) on_progress_(rec.result.id, resp->chunks);
    return;
  }
  Shard& sh = shards_[k];
  if (resp->type == "reject") {
    // Shard admission said no (queue full, over budget): propagate the 429
    // unchanged -- backpressure is a response, never a retry storm.
    ++sh.rejected;
    finalize_locked(rec, serve::JobState::Rejected,
                    resp->error.empty() ? "rejected by shard" : resp->error);
    return;
  }
  if (resp->type != "result") return;
  // The witness is the whole point of the frame: a hash that does not
  // parse exactly must not be forwarded as some other number.
  const auto hash = net::parse_output_hash(resp->output_hash);
  if (!hash) {
    finalize_locked(rec, serve::JobState::Failed,
                    "shard " + std::to_string(k) +
                        " sent a malformed output_hash '" +
                        resp->output_hash + "'");
    return;
  }
  serve::JobResult& r = rec.result;
  r.attempts = resp->attempts;
  r.cached = resp->cached;
  r.queue_seconds = resp->queue_ms / 1e3;
  r.run_seconds = resp->run_ms / 1e3;
  r.exec_seconds = resp->exec_ms / 1e3;
  r.modeled_seconds = resp->modeled_ms / 1e3;
  r.chunk_count = resp->chunks;
  r.output_hash = *hash;
  const auto state = serve::parse_job_state(resp->state);
  if (state && *state == serve::JobState::Done) {
    ++sh.done;
    if (r.cached) ++sh.cached;
  }
  finalize_locked(rec, state.value_or(serve::JobState::Failed), resp->detail);
}

void Router::loop() {
  std::vector<pollfd> fds;
  std::vector<int> owner;
  while (!stop_requested_.load()) {
    fds.clear();
    owner.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    owner.push_back(-1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      health_sweep_locked();
      retire_delivered_locked();
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        const Shard& sh = shards_[k];
        if (sh.fd < 0) continue;
        short events = POLLIN;
        if (sh.outbuf_off < sh.outbuf.size()) events |= POLLOUT;
        fds.push_back(pollfd{sh.fd, events, 0});
        owner.push_back(static_cast<int>(k));
      }
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const std::size_t k = static_cast<std::size_t>(owner[i]);
      Shard& sh = shards_[k];
      if (sh.fd != fds[i].fd) continue;  // shard bounced this iteration
      if (fds[i].revents & POLLOUT) write_shard_locked(k);
      if (sh.fd < 0) continue;
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_shard_locked(k);
    }
    retire_delivered_locked();
  }
  teardown();
}

void Router::teardown() {
  std::lock_guard<std::mutex> lk(mu_);
  const bool drain = drain_mode_.load();
  for (Shard& sh : shards_) {
    if (sh.pid > 0 && !sh.exited) {
      ::kill(sh.pid, drain ? SIGTERM : SIGKILL);
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& sh = shards_[k];
    while (sh.pid > 0 && !sh.exited) {
      int status = 0;
      if (::waitpid(sh.pid, &status, WNOHANG) == sh.pid) {
        sh.exited = true;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(sh.pid, SIGKILL);
        ::waitpid(sh.pid, nullptr, 0);
        sh.exited = true;
        break;
      }
      ::usleep(5000);
    }
    if (sh.fd >= 0) {
      ::close(sh.fd);
      sh.fd = -1;
    }
    sh.pid = 0;
    sh.exited = false;
    sh.draining = false;
    sh.state = ShardState::Dead;
  }
  // Every submitted job must end terminal exactly once, drain or not.
  for (auto& [id, rec] : records_) {
    (void)id;
    if (!serve::is_terminal(rec.result.state)) {
      finalize_locked(rec, serve::JobState::Cancelled,
                      "router shutdown without drain");
    }
  }
  retire_delivered_locked();
  update_gauges_locked();
  start_cv_.notify_all();
}

void Router::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  if (drain && started_) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return outstanding_ == 0; });
  }
  std::lock_guard<std::mutex> sl(shutdown_mu_);
  if (!stop_requested_.exchange(true)) drain_mode_.store(drain);
  wake();
  if (thread_.joinable()) thread_.join();
}

Router::Stats Router::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<Router::ShardStats> Router::shard_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    ShardStats s;
    s.pid = sh.pid;
    s.alive = sh.state == ShardState::Starting ||
              sh.state == ShardState::Up || sh.state == ShardState::Draining;
    s.draining = sh.draining;
    s.restarts = sh.restarts;
    s.crash_restarts = sh.crash_restarts;
    s.routed = sh.routed;
    s.done = sh.done;
    s.rejected = sh.rejected;
    s.cached = sh.cached;
    s.outstanding = sh.jobs.size();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t Router::alive_shards() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t alive = 0;
  for (const Shard& sh : shards_) {
    if (sh.state == ShardState::Up) ++alive;
  }
  return alive;
}

}  // namespace hs::shard
