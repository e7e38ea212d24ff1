// Multi-process sharded serving tier (`hs::shard::Router`).
//
// The router is a serve::JobBackend whose execution engine is N worker
// *processes* -- fork/exec of `hsi-served --worker --listen 0`, each a
// full single-process serving stack (bounded queue, admission control,
// chunk-parallel pipeline workers, result cache) speaking the hs.net.v1
// JSON-lines protocol over a loopback socket. Plugged under the PR 7
// front door, clients see one endpoint while jobs fan out across
// processes: coarse process-level distribution outside, the existing
// fine thread-level parallelism inside each shard.
//
// Routing: every job is consistent-hashed by its serve::job_fingerprint
// digest (ring.hpp), so equal-fingerprint jobs land on the same shard and
// concentrate that shard's result-cache hits -- the fingerprint is both
// the cache key and the shard key. Name, priority, deadline and retry
// budget stay out of the digest, so "the same work" routes together no
// matter who asks.
//
// Process supervision:
//   * health -- the event loop reaps children (waitpid WNOHANG) and
//     watches every socket; an unexpected exit or EOF marks the shard
//     down, emits a flight-recorder event (and a dump when
//     RouterOptions::flight_dump_dir is set), and respawns the worker
//     while its crash-restart budget (max_restarts) lasts;
//   * requeue, never drop -- jobs outstanding on a dead shard are
//     rerouted to the next live shard on the ring (bounded by
//     max_reroutes, then Failed with a reason); jobs with no live shard
//     park until a restart lands, or terminalize Rejected ("no live
//     shards" -- a clean 429 at the front door) when nothing will;
//   * graceful drain -- restart_shard() stops routing to the shard and
//     SIGTERMs it; the worker's own front door drains (finishes admitted
//     jobs, streams their results, then closes), anything still unread in
//     socket buffers is requeued on EOF, and the shard respawns without
//     burning crash budget. shutdown(drain=true) waits for every job to
//     terminalize, then SIGTERMs all shards.
//
// Backpressure: a worker's admission control rejects exactly as the
// in-process server would (queue full, over budget); the router
// propagates that terminal Rejected result unchanged, which the front
// door turns into a 429 reject frame -- shard saturation degrades to
// structured responses end to end.
//
// Telemetry: shard.jobs.{routed,rerouted,completed,rejected,failed,
// parked} and shard.{deaths,restarts} counters, a shard.alive gauge,
// per-shard shard.<k>.outstanding gauges and shard.<k>.latency_s
// histograms (submit -> terminal, so snapshots show per-shard latency
// and queue depth side by side), plus an always-on Stats mirror.
//
// Locking: one event-loop thread owns every socket and child process;
// submit()/wait()/stats() synchronize with it through one mutex and a
// self-pipe wakeup, and the on_terminal hook fires under that mutex
// exactly once per job -- the same contract serve::Server documents.
// A record lives while its job is outstanding; once the hook has taken
// the terminal result, the record retires (backend.hpp), so the table and
// its scans (parked routing, unroutable failing, teardown) stay
// O(outstanding) however many jobs the router has served.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "serve/backend.hpp"
#include "shard/ring.hpp"

namespace hs::shard {

struct RouterOptions {
  /// Worker process count (>= 1).
  std::size_t shards = 2;
  /// Path to the worker binary (hsi-served); execv'd as argv[0].
  std::string worker_cmd;
  /// Extra argv appended to every worker's command line.
  std::vector<std::string> worker_args;
  /// Directory for per-shard port files, logs and stats drops; created if
  /// missing. Empty derives a /tmp path from the router's pid.
  std::string state_dir;
  /// Crash-restart budget per shard; graceful restarts don't consume it.
  int max_restarts = 2;
  /// Per-job relocation budget (shard died / drained with the job
  /// unread); exhausting it fails the job with a reason, never silently.
  int max_reroutes = 4;
  /// Spawn -> port-file -> connect deadline per shard attempt.
  double spawn_timeout_seconds = 20;
  /// Virtual nodes per shard on the consistent-hash ring.
  std::size_t vnodes = 64;
  std::size_t max_frame_bytes = 1 << 20;
  /// Start workers with --progress and forward their progress frames to
  /// the on_progress hook.
  bool progress_events = false;
  /// When non-empty: receives one flight-recorder dump per unexpected
  /// shard death (flight_shard<k>_<n>.json).
  std::string flight_dump_dir;
  // Worker process shape, forwarded as CLI flags.
  std::size_t worker_threads = 1;      ///< serve worker threads per shard
  std::size_t worker_queue_depth = 64;
  std::uint64_t worker_cache_mb = 64;  ///< per-shard result cache budget
};

class Router : public serve::JobBackend {
 public:
  /// Always-on per-shard mirror (exact in every build).
  struct ShardStats {
    int pid = 0;
    bool alive = false;      ///< process believed up (Starting/Up/Draining)
    bool draining = false;
    int restarts = 0;        ///< total respawns, graceful + crash
    int crash_restarts = 0;  ///< respawns charged against max_restarts
    std::uint64_t routed = 0;    ///< jobs sent to this shard (incl. resends)
    std::uint64_t done = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cached = 0;    ///< Done results served from its cache
    std::size_t outstanding = 0;
  };

  /// Always-on router-wide mirror of the shard.* counters. Every
  /// terminal job lands in exactly one of completed/rejected/failed.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t routed = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t parked = 0;
    std::uint64_t completed = 0;  ///< Done
    std::uint64_t rejected = 0;   ///< shard 429s + router-level "no live shards"
    std::uint64_t failed = 0;     ///< Failed/TimedOut/Cancelled, shard or router
    std::uint64_t deaths = 0;     ///< unexpected shard exits
    std::uint64_t restarts = 0;
    std::uint64_t stale_frames = 0;

    std::uint64_t terminal() const { return completed + rejected + failed; }
  };

  explicit Router(const RouterOptions& options);
  /// Implicit non-drain shutdown (SIGKILL workers, cancel outstanding).
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Spawns the shards and starts the event loop; returns once at least
  /// one shard is serving. Throws std::runtime_error when none comes up
  /// within the spawn timeout (worker logs stay in state_dir).
  void start();

  // serve::JobBackend -- the front-door contract (backend.hpp).
  serve::Submitted submit(const serve::JobSpec& spec) override;
  std::size_t queue_depth() const override;
  void set_on_terminal(std::function<void(const serve::JobResult&)> hook) override;
  void set_on_progress(
      std::function<void(std::uint64_t id, std::uint64_t checks)> hook) override;

  /// Blocks until the job reaches a terminal state and returns its result.
  /// Throws std::invalid_argument for an id the router does not track:
  /// never issued, or retired after the on_terminal hook saw it -- the
  /// same contract as serve::Server::wait.
  serve::JobResult wait(std::uint64_t id);
  /// Non-blocking snapshot; nullopt for unknown or retired ids.
  std::optional<serve::JobResult> result(std::uint64_t id) const;
  /// All tracked jobs in submission order (terminal or not). With an
  /// on_terminal hook installed that is only the jobs not yet terminal.
  std::vector<serve::JobResult> results() const;

  /// The shard the ring would pick for this spec with every shard live --
  /// the job's home shard. Deterministic; tests and affinity accounting
  /// use it.
  std::size_t shard_for(const serve::JobSpec& spec) const;

  /// SIGKILLs the worker (crash-path test hook); the loop notices the
  /// death and runs the requeue/restart machinery. False for bad index or
  /// a shard with no process.
  bool kill_shard(std::size_t shard);

  /// Graceful drain + respawn: stops routing to the shard, SIGTERMs it so
  /// its front door drains (admitted jobs finish and stream back; unread
  /// ones requeue on EOF), then respawns it without burning crash budget.
  /// Asynchronous: returns once the drain is initiated.
  bool restart_shard(std::size_t shard);

  /// Stops admission, then either waits for every job to terminalize
  /// before SIGTERMing the shards (drain) or SIGKILLs them and cancels
  /// whatever was outstanding. Idempotent; the first call's mode wins.
  void shutdown(bool drain);

  Stats stats() const;
  std::vector<ShardStats> shard_stats() const;
  std::size_t alive_shards() const;  ///< shards currently Up

  const RouterOptions& options() const { return options_; }
  std::string shard_port_file(std::size_t shard) const;
  std::string shard_log_file(std::size_t shard) const;
  /// Worker stats drop (written by the worker on clean exit; the shard
  /// bench reads per-shard cache hit counts from it).
  std::string shard_stats_file(std::size_t shard) const;

 private:
  enum class ShardState {
    Starting,  ///< spawned; waiting for port file + connect
    Up,        ///< connected and routable
    Draining,  ///< SIGTERM sent; no new routes; awaiting EOF
    Dead,      ///< not running and not coming back
  };

  struct Shard {
    ShardState state = ShardState::Dead;
    int pid = 0;
    int fd = -1;
    bool exited = false;  ///< child reaped; socket may still hold frames
    std::unique_ptr<net::FrameReader> reader;
    std::string outbuf;
    std::size_t outbuf_off = 0;
    std::set<std::uint64_t> jobs;  ///< outstanding router job ids
    std::chrono::steady_clock::time_point start_deadline;
    // Mirror fields reported via ShardStats.
    int restarts = 0;
    int crash_restarts = 0;
    bool draining = false;
    std::uint64_t routed = 0, done = 0, rejected = 0, cached = 0;
    // Pre-built per-shard telemetry names ("shard.<k>.*").
    std::string gauge_name, histogram_name;
  };

  struct Record {
    serve::JobSpec spec;
    serve::JobResult result;
    std::uint64_t digest = 0;  ///< fingerprint digest = ring key
    int shard = -1;            ///< current assignment; -1 unrouted/parked
    int reroutes = 0;
    bool parked = false;
    std::chrono::steady_clock::time_point submit_tp;
  };

  void loop();
  void teardown();
  void wake();
  double elapsed_s(const Record& rec) const;
  void add_event(Record& rec, const char* what, std::string detail = {});

  // All *_locked members require mu_ held.
  void spawn_shard_locked(std::size_t k);
  void try_connect_locked(std::size_t k);
  void shard_down_locked(std::size_t k, const std::string& why);
  void read_shard_locked(std::size_t k);
  void write_shard_locked(std::size_t k);
  void handle_frame_locked(std::size_t k, const std::string& text);
  void health_sweep_locked();
  void route_job_locked(Record& rec);
  void send_job_locked(Record& rec, std::size_t k);
  void route_parked_locked();
  void fail_unroutable_locked();
  /// Terminalizes `rec` and hands it to the on_terminal hook, if any; a
  /// hooked record is queued for retirement, not erased, so callers that
  /// walk records_ stay valid.
  void finalize_locked(Record& rec, serve::JobState state, std::string detail);
  /// Erases the records queued by finalize_locked. Called where no
  /// reference into records_ is live: the end of submit() and of every
  /// event-loop pass.
  void retire_delivered_locked();
  bool any_shard_pending_locked() const;  ///< Starting/Draining: may come Up
  void update_gauges_locked();

  RouterOptions options_;
  HashRing ring_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;   ///< some job terminalized
  std::condition_variable start_cv_;  ///< some shard changed liveness
  std::vector<Shard> shards_;
  std::map<std::uint64_t, Record> records_;  ///< outstanding, plus unhooked
  std::vector<std::uint64_t> retired_;  ///< hooked out; erased next pass
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;  ///< non-terminal records
  bool stopping_ = false;        ///< admission closed
  bool started_ = false;
  std::mutex shutdown_mu_;       ///< serializes shutdown() stop/join
  std::function<void(const serve::JobResult&)> on_terminal_;
  std::function<void(std::uint64_t, std::uint64_t)> on_progress_;
  Stats stats_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_mode_{false};
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
};

}  // namespace hs::shard
