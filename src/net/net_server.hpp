// TCP front door for the serving layer (`hs::net::NetServer`).
//
// A poll(2)-based event loop in front of a `serve::JobBackend` (the
// in-process `serve::Server`, or a `shard::Router` fanning out to worker
// processes):
// persistent connections speak newline-delimited JSON frames
// (protocol.hpp) over loopback or LAN, submitting the serve/request.hpp
// schema and streaming back each job's terminal JobResult (plus optional
// per-chunk progress) as it completes -- request order and completion
// order are independent, which is the point of tagging frames with the
// client's request id.
//
// Architecture: one event-loop thread owns every socket and all
// per-connection state; nothing else touches an fd. Job completions and
// progress ticks arrive from serve worker threads through the Server's
// on_terminal/on_progress hooks, which append to a mutex-guarded event
// queue and wake the loop through a self-pipe -- the only cross-thread
// hand-off in the layer. Because a frame's route (job id -> connection)
// is registered inside the same loop iteration that called submit(),
// before the queue is next drained, a completion can never outrun its
// route.
//
// Per-connection state machine and degradation rules:
//   * partial reads/writes are the normal case: FrameReader accumulates
//     request bytes, a bounded out-buffer absorbs response bytes, and the
//     loop only subscribes to POLLOUT while that buffer is non-empty;
//   * flow control: a connection with too many in-flight jobs or too
//     large an unread response backlog stops being polled for reads (the
//     kernel socket buffer then pushes back on the client); reads resume
//     when it drains below the caps;
//   * a malformed frame gets a structured error response and the
//     connection lives on (close_on_bad_frame makes it fatal); an
//     oversized frame is fatal after the error flushes, since the stream
//     has already been resynchronized by discarding unknown bytes;
//   * admission rejections (queue full, over budget, shed, draining)
//     become 429-style reject frames with a retry_after_ms hint derived
//     from queue depth x observed mean service time -- shedding is a
//     response, never a silent drop;
//   * a client disconnect with jobs in flight orphans those jobs: they
//     still run to exactly one terminal state inside the Server; the
//     results are counted (orphaned_results) and discarded.
//
// Memory: the backend retires a job's record once its on_terminal hook
// has fired (backend.hpp), so the JobEvent copy queued here is the only
// one left; it is dropped once its frame is written and the optional
// result observer (set_on_result) has seen it. A long-running front door
// therefore holds state only for connections and jobs still in flight.
//
// Shutdown: request_stop(drain) is async-signal-safe (atomics + one
// self-pipe write), so a SIGTERM handler may call it directly. Drain mode
// stops accepting connections and reading frames, waits for every routed
// job to terminalize and every response to flush, then closes; non-drain
// closes immediately (jobs keep running inside the Server).
//
// Telemetry: net.* counters (accepted/closed connections, frames in/bad/
// oversized, bytes in/out, submitted/rejected jobs, responses, orphans,
// flow-control pauses), a net.connections.active gauge, and the
// connection-lifecycle histograms net.conn.lifetime_s and
// net.request_total_s (frame in -> terminal response queued). Stats
// mirrors the counters exactly in every build, HS_TRACE or not.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
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

namespace hs::net {

struct NetServerOptions {
  /// Listen address; the default only accepts loopback clients.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  int backlog = 64;
  /// Accepted connections beyond this are told "busy" and closed.
  std::size_t max_connections = 256;
  /// Hard per-frame byte bound (requests are one JSON line).
  std::size_t max_frame_bytes = 1 << 20;
  /// Flow control: stop reading a connection with this many unfinished
  /// jobs...
  std::size_t max_inflight_per_conn = 32;
  /// ...or this many unread response bytes buffered for it.
  std::size_t max_write_backlog_bytes = 1 << 22;
  /// Stream {"type":"progress"} frames at pipeline chunk boundaries.
  bool progress_events = false;
  /// Treat malformed (non-oversized) frames as fatal for the connection.
  bool close_on_bad_frame = false;
  /// Bounds for the 429 retry_after_ms hint.
  double retry_after_floor_ms = 25;
  double retry_after_ceil_ms = 60000;
};

class NetServer {
 public:
  /// Exact, always-on mirror of the net.* counters.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames = 0;
    std::uint64_t bad_frames = 0;
    std::uint64_t oversized_frames = 0;
    std::uint64_t truncated_frames = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t results_sent = 0;
    std::uint64_t progress_sent = 0;
    std::uint64_t orphaned_results = 0;
    std::uint64_t flow_pauses = 0;
  };

  /// Binds and listens immediately (throws std::runtime_error with the
  /// errno text on failure -- port in use, bad address), and installs the
  /// on_terminal/on_progress hooks on `backend`. The backend -- an
  /// in-process serve::Server or a shard::Router fronting N worker
  /// processes -- must outlive this object, which detaches its hooks on
  /// destruction; one front door per backend at a time.
  NetServer(serve::JobBackend& backend, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves option port 0 to the kernel's choice).
  int port() const { return port_; }

  /// Runs the event loop on the calling thread until request_stop().
  void run();

  /// Runs the event loop on a background thread (tests, in-process use).
  void start();

  /// Requests stop and, when start() was used, joins the loop thread.
  void stop(bool drain);

  /// Observer for every terminal result the backend hands this front
  /// door -- answered, orphaned or rejected at submit -- called on the
  /// loop thread after the job's frame (if any) is queued, outside the
  /// backend lock. Batch-style exporters (report rows, timelines) write
  /// from it as results arrive instead of keeping them. Set before
  /// start()/run().
  void set_on_result(std::function<void(const serve::JobResult&)> observer);

  /// After the loop has stopped and the backend has shut down: hands the
  /// terminal events still queued (jobs orphaned by a departed client
  /// that finished during the backend's drain) to the observer and the
  /// orphan accounting. Must not run concurrently with the loop.
  void flush_results();

  /// Async-signal-safe stop request (atomics + one pipe write). The first
  /// call's drain mode wins.
  void request_stop(bool drain);

  Stats stats() const;
  std::size_t open_connections() const;

 private:
  struct PendingJob {
    std::uint64_t client_id = 0;
    bool has_client_id = false;
    std::chrono::steady_clock::time_point received;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameReader reader;
    std::string outbuf;        ///< bytes not yet written
    std::size_t outbuf_off = 0;
    std::map<std::uint64_t, PendingJob> inflight;  ///< job id -> tag
    bool paused = false;    ///< reads suspended by flow control
    bool closing = false;   ///< flush outbuf, then close
    bool read_eof = false;  ///< client half-closed; flush results, then close
    std::chrono::steady_clock::time_point opened;

    Connection(int f, std::uint64_t i, std::size_t max_frame)
        : fd(f), id(i), reader(max_frame),
          opened(std::chrono::steady_clock::now()) {}
  };

  /// One completion or progress tick crossing from serve worker threads
  /// into the loop thread.
  struct JobEvent {
    bool is_progress = false;
    serve::JobResult result;   ///< terminal events
    std::uint64_t job_id = 0;  ///< progress events
    std::uint64_t checks = 0;
  };

  /// The cross-thread hand-off, shared by the hooks (which may outlive
  /// this object inside still-running jobs) and the loop.
  struct SharedQueue {
    std::mutex mu;
    std::deque<JobEvent> events;
    int wake_fd = -1;      ///< self-pipe write end; guarded by mu
    bool open = true;      ///< false once the NetServer is gone
  };

  void loop();
  void drain_events();
  void accept_clients();
  void read_connection(Connection& conn);
  void drain_reader(Connection& conn);
  void write_connection(Connection& conn);
  void handle_frame(Connection& conn, const std::string& text);
  void deliver_terminal(const serve::JobResult& result);
  void queue_response(Connection& conn, std::string frame);
  void update_flow_control(Connection& conn);
  void close_connection(int fd, const char* why);
  double retry_after_ms() const;

  serve::JobBackend& backend_;
  NetServerOptions options_;
  std::function<void(const serve::JobResult&)> on_result_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;  ///< raw copy for the signal-safe path
  std::shared_ptr<SharedQueue> queue_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{true};
  std::atomic<bool> stop_latched_{false};  ///< first request_stop wins

  // Loop-thread state.
  std::map<int, Connection> conns_;       ///< fd -> connection
  std::map<std::uint64_t, int> routes_;   ///< job id -> fd
  std::set<std::uint64_t> orphaned_;      ///< net jobs whose client left
  std::uint64_t next_conn_id_ = 1;
  double ewma_exec_ms_ = 50;  ///< seeds the retry-after hint

  // Stats mirror (atomics: stats() may be called from any thread).
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, frames{0},
        bad_frames{0}, oversized_frames{0}, truncated_frames{0}, bytes_in{0},
        bytes_out{0}, submitted{0}, rejected{0}, results_sent{0},
        progress_sent{0}, orphaned_results{0}, flow_pauses{0};
  } stats_;
  std::atomic<std::size_t> open_conns_{0};
};

}  // namespace hs::net
