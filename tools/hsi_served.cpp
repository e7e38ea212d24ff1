// Batch job-serving CLI (`hsi-served`).
//
// Two mutually exclusive front doors over the same hs::serve::Server:
//
// File mode (--requests batch.jsonl) reads a JSON-lines request file
// (serve/request.hpp documents the schema; examples/serve_requests.jsonl
// is a ready-to-run sample), submits every request in file order, and
// drains.
//
// Listen mode (--listen <port>) opens the hs::net TCP front door
// (net/protocol.hpp documents the wire frames): persistent connections
// submit the same request schema as newline-delimited JSON and results
// stream back as they complete. Port 0 binds an ephemeral port;
// --port-file writes the bound port (atomically: tmp + rename) for
// scripts to discover. SIGTERM and SIGINT request a graceful drain: stop
// accepting, finish in-flight jobs, flush every response, then report as
// below. hsi-loadgen is the matching load-generating client.
//
// A listening server keeps no per-job state once a result is delivered
// (the backend retires the record when the front door's hook takes it),
// so its memory does not grow with the requests it serves: the exit
// summary, the every-job-terminal check and --stats-file come from the
// backend's counters, --report rows and --timelines files are written as
// each result is delivered, and spans are recorded only when --trace or
// HS_TRACE=1 asks for them.
//
// Listen mode scales out with --shards N: instead of an in-process
// serve::Server, the front door routes into an hs::shard::Router that
// fork/execs N copies of this binary in --worker mode (each a full
// single-process serving stack on a loopback socket) and consistent-hashes
// jobs across them by fingerprint (shard/router.hpp). --worker is the
// quiet flip side: a plain listen-mode server that skips the report
// tables (its stdout is the router's per-shard log) and drops a compact
// stats JSON (--stats-file) at clean exit for the bench to read.
//
// Either mode reports:
//   * job totals ("N/M done, T/M terminal") and, in file mode, a per-job
//     result table on stdout (state, attempts, queue/run time, output
//     hash);
//   * --report out.json: a machine-readable per-job report (listen mode:
//     rows in delivery order);
//   * --metrics out.json: the hs::trace metrics registry (queue/in-flight
//     gauges, per-state serve.jobs.* counters, serve.job span aggregates)
//     in the shared BENCH_*.json schema;
//   * --trace out.json: the Chrome trace (serve.job spans nesting the
//     pipeline -> chunk -> stage spans of the jobs they served); in
//     listen mode this flag is also what turns span recording on;
//   * --timelines dir/: one "hs.timeline.v1" document per job
//     (timeline_job<id>.json) -- the job's full life as events;
//   * --snapshot out.json: a periodic "hs.snapshot.v1" registry export
//     (atomic tmp+rename; --snapshot-period sets the interval) that
//     hsi-top renders live;
//   * --flight-dir dir/: flight-recorder dumps (flight_job<id>.json) for
//     every job that ends Failed or TimedOut;
//   * --fault substr[:n] (file mode): fail the first n attempts (default:
//     all) of jobs whose name contains substr with an injected
//     TransientFault -- the debugging story end to end: retries, backoff,
//     and a flight dump on exhaustion.
//
// Every JSON output is re-read and validated with the bundled strict
// parser before exit; a zero exit status certifies that every job reached
// a terminal state and every emitted document is well-formed.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "net/net_server.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/timeline.hpp"
#include "shard/router.hpp"
#include "trace/histogram.hpp"
#include "trace/json_check.hpp"
#include "trace/snapshot.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/fileio.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hs;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One job's row of the --report document.
std::string report_row(const serve::JobResult& r) {
  std::ostringstream out;
  out << "    {\"id\": " << r.id << ", \"name\": \"" << json_escape(r.name)
      << "\", \"kind\": \"" << to_string(r.kind) << "\", \"priority\": \""
      << to_string(r.priority) << "\", \"state\": \"" << to_string(r.state)
      << "\", \"detail\": \"" << json_escape(r.detail)
      << "\", \"attempts\": " << r.attempts
      << ", \"cached\": " << (r.cached ? "true" : "false")
      << ", \"queue_ms\": " << r.queue_seconds * 1e3
      << ", \"exec_ms\": " << r.exec_seconds * 1e3
      << ", \"run_ms\": " << r.run_seconds * 1e3
      << ", \"total_ms\": " << (r.queue_seconds + r.run_seconds) * 1e3
      << ", \"modeled_ms\": " << r.modeled_seconds * 1e3
      << ", \"chunks\": " << r.chunk_count
      << ", \"output_hash\": \"" << std::hex << r.output_hash << std::dec
      << "\"}";
  return out.str();
}

/// Job totals for the exit summary, the terminal-state exit check and the
/// stats file -- read from the backend's always-on counters, never from
/// retained job records.
struct JobCounts {
  std::uint64_t jobs = 0;
  std::uint64_t done = 0;
  std::uint64_t terminal = 0;
  std::uint64_t cached = 0;
};

JobCounts counts_of(const serve::Server& server) {
  const serve::Server::Stats st = server.stats();
  return {st.submitted, st.done, st.terminal(), st.cached};
}

JobCounts counts_of(const shard::Router& router) {
  const shard::Router::Stats st = router.stats();
  JobCounts c{st.submitted, st.completed, st.terminal(), 0};
  for (const shard::Router::ShardStats& s : router.shard_stats()) {
    c.cached += s.cached;
  }
  return c;
}

/// The compact stats drop a shard router's bench reads back per worker:
/// job/done/cached counts plus the result-cache counters, written
/// atomically so a reader never sees a partial file.
bool write_stats_file(const std::string& path, const serve::Server& server) {
  const JobCounts c = counts_of(server);
  const cache::CacheStats rs = server.result_cache_stats();
  std::ostringstream os;
  os << "{\"name\": \"hsi-served\", \"jobs\": " << c.jobs
     << ", \"done\": " << c.done << ", \"cached\": " << c.cached
     << ", \"cache_hits\": " << rs.hits
     << ", \"cache_misses\": " << rs.misses
     << ", \"cache_evictions\": " << rs.evictions
     << ", \"cache_bytes\": " << rs.bytes << "}\n";
  return util::write_file_atomic(path, os.str());
}

bool validate_json_file(const std::string& path, const char* what) {
  std::string error;
  if (!trace::json::parse(slurp(path), &error)) {
    std::cerr << "hsi-served: " << what << " " << path
              << " failed validation: " << error << "\n";
    return false;
  }
  return true;
}

/// The per-job exports -- --report rows, --timelines files, --flight-dir
/// dump validation -- and the witness-drift check, fed one terminal result
/// at a time. File mode feeds it every result after the drain; listen mode
/// feeds it each result as the front door delivers it, so nothing of a
/// job outlives its delivery except one witness hash per distinct name.
class JobExports {
 public:
  JobExports(std::string report_path, std::string timelines_dir,
             std::string flight_dir)
      : report_path_(std::move(report_path)),
        timelines_dir_(std::move(timelines_dir)),
        flight_dir_(std::move(flight_dir)) {
    if (!report_path_.empty()) {
      report_.open(report_path_);
      report_ << "{\n  \"name\": \"hsi-served\",\n  \"jobs\": [\n";
    }
    if (!timelines_dir_.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(timelines_dir_, ec);
    }
  }

  void add(const serve::JobResult& r) {
    // Witness stability: every Done job sharing a request name must
    // report one hash, whether it ran live or was served from the cache.
    if (r.state == serve::JobState::Done) {
      const auto [it, fresh] = witness_.try_emplace(r.name, r.output_hash);
      if (!fresh && it->second != r.output_hash) {
        drift_[r.name].insert({it->second, r.output_hash});
      }
    }
    if (!report_path_.empty()) {
      report_ << (report_rows_++ > 0 ? ",\n" : "") << report_row(r);
    }
    if (!timelines_dir_.empty()) {
      const std::string path =
          timelines_dir_ + "/" + serve::timeline_filename(r);
      std::string error;
      if (!serve::write_timeline_json_file(path, r)) {
        std::cerr << "hsi-served: cannot write " << path << "\n";
        ok_ = false;
      } else if (!trace::json::validate_timeline_json(slurp(path), &error)) {
        std::cerr << "hsi-served: timeline " << path
                  << " failed validation: " << error << "\n";
        ok_ = false;
      } else {
        ++timelines_;
      }
    }
    if (!flight_dir_.empty()) {
      const std::string path =
          flight_dir_ + "/flight_job" + std::to_string(r.id) + ".json";
      std::string error;
      if (!std::filesystem::exists(path)) {
        // Not a failure: only Failed/TimedOut jobs leave a dump.
      } else if (!trace::json::validate_flight_json(slurp(path), &error)) {
        std::cerr << "hsi-served: flight dump " << path
                  << " failed validation: " << error << "\n";
        ok_ = false;
      } else {
        ++flight_dumps_;
      }
    }
  }

  /// Reports witness drift; false when any name saw two hashes.
  bool check_witnesses() const {
    for (const auto& [name, hashes] : drift_) {
      std::cerr << "hsi-served: witness drift: job name '" << name
                << "' has " << hashes.size() << " distinct output hashes\n";
    }
    return drift_.empty();
  }

  /// Closes and validates the report document.
  bool finish_report() {
    if (report_path_.empty()) return true;
    report_ << (report_rows_ > 0 ? "\n" : "") << "  ]\n}\n";
    report_.close();
    if (!report_) {
      std::cerr << "hsi-served: cannot write " << report_path_ << "\n";
      return false;
    }
    if (!validate_json_file(report_path_, "report")) return false;
    std::cout << "report: " << report_path_ << "\n";
    return true;
  }

  bool finish_timelines() const {
    if (timelines_dir_.empty()) return ok_;
    std::cout << "timelines: " << timelines_ << " files in " << timelines_dir_
              << "\n";
    return ok_;
  }

  void finish_flight() const {
    if (flight_dir_.empty()) return;
    std::cout << "flight dumps: " << flight_dumps_ << " in " << flight_dir_
              << "\n";
  }

 private:
  std::string report_path_, timelines_dir_, flight_dir_;
  std::ofstream report_;
  std::size_t report_rows_ = 0;
  std::size_t timelines_ = 0;
  std::size_t flight_dumps_ = 0;
  bool ok_ = true;
  std::map<std::string, std::uint64_t> witness_;  ///< first hash per name
  std::map<std::string, std::set<std::uint64_t>> drift_;
};

/// The SIGTERM/SIGINT drain hook: request_stop is async-signal-safe.
std::atomic<net::NetServer*> g_front_door{nullptr};

void on_drain_signal(int) {
  if (net::NetServer* front = g_front_door.load(std::memory_order_acquire)) {
    front->request_stop(/*drain=*/true);
  }
}

/// File mode's per-job result table on stdout.
void print_job_table(const std::vector<serve::JobResult>& results,
                     double wall_s) {
  util::Table table({"Id", "Name", "Kind", "Prio", "State", "Attempts",
                     "Queue", "Run", "Hash / detail"});
  for (const serve::JobResult& r : results) {
    std::ostringstream tail;
    if (r.state == serve::JobState::Done) {
      tail << std::hex << r.output_hash;
      if (r.cached) tail << " (cached)";
    } else {
      tail << r.detail;
    }
    table.add_row({std::to_string(r.id), r.name, to_string(r.kind),
                   to_string(r.priority), to_string(r.state),
                   std::to_string(r.attempts),
                   util::format_duration(r.queue_seconds),
                   util::format_duration(r.run_seconds), tail.str()});
  }
  table.print(std::cout, "hsi-served: " + std::to_string(results.size()) +
                             " jobs in " + util::format_duration(wall_s));
}

/// Everything after the serve: job totals, cache/latency summaries, the
/// terminal-state and witness-drift checks, and every requested JSON
/// export with strict re-validation. Shared by file and listen mode.
int report_results(util::Cli& cli, const JobCounts& counts,
                   const serve::Server* server, JobExports& exports,
                   trace::SnapshotExporter* exporter, std::int64_t cache_mb,
                   const std::string& snapshot_path) {
  std::cout << "\n" << counts.done << "/" << counts.jobs << " done, "
            << counts.terminal << "/" << counts.jobs << " terminal\n";
  if (server != nullptr && cache_mb > 0) {
    const cache::CacheStats rs = server->result_cache_stats();
    const cache::CacheStats ss = server->scene_cache_stats();
    const gpusim::SharedProgramStore::Stats ps = server->program_store_stats();
    std::cout << "cache: results " << rs.hits << " hits / " << rs.misses
              << " misses / " << rs.evictions << " evictions (" << rs.bytes
              << " bytes), scenes " << ss.hits << " hits / " << ss.misses
              << " misses, programs " << ps.hits << " hits / " << ps.misses
              << " misses\n";
    std::cout << counts.cached << "/" << counts.done
              << " done jobs served from cache\n";
  }

  // Final latency summary from the trace histograms (empty in an
  // HS_TRACE=OFF build; the section is skipped rather than printed empty).
  if (const auto hists = trace::histograms_snapshot(); !hists.empty()) {
    util::Table hist_table(
        {"Histogram", "Count", "p50", "p90", "p99", "Max"});
    for (const auto& [hname, snap] : hists) {
      hist_table.add_row({hname, std::to_string(snap.count),
                          util::format_duration(snap.p50()),
                          util::format_duration(snap.p90()),
                          util::format_duration(snap.p99()),
                          util::format_duration(snap.max)});
    }
    std::cout << "\n";
    hist_table.print(std::cout, "latency summary");
  }

  bool ok = counts.terminal == counts.jobs;
  if (!ok) std::cerr << "hsi-served: some jobs never reached a terminal state\n";
  if (!exports.check_witnesses()) ok = false;

  if (!exports.finish_report()) ok = false;
  const std::string metrics_path = cli.get("metrics", "");
  if (!metrics_path.empty()) {
    std::string error;
    if (!trace::write_metrics_json_file(metrics_path, "hsi-served")) {
      std::cerr << "hsi-served: cannot write " << metrics_path << "\n";
      ok = false;
    } else if (!trace::json::validate_metrics_json(slurp(metrics_path),
                                                   &error)) {
      std::cerr << "hsi-served: metrics " << metrics_path
                << " failed validation: " << error << "\n";
      ok = false;
    } else {
      std::cout << "metrics: " << metrics_path << "\n";
    }
  }
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) {
    std::string error;
    if (!trace::write_chrome_trace_file(trace_path)) {
      std::cerr << "hsi-served: cannot write " << trace_path << "\n";
      ok = false;
    } else if (!trace::json::validate_chrome_trace(slurp(trace_path),
                                                   &error)) {
      std::cerr << "hsi-served: trace " << trace_path
                << " failed validation: " << error << "\n";
      ok = false;
    } else {
      std::cout << "trace: " << trace_path << "\n";
    }
  }
  if (!exports.finish_timelines()) ok = false;
  if (!snapshot_path.empty()) {
    std::string error;
    if (!trace::json::validate_snapshot_json(slurp(snapshot_path), &error)) {
      std::cerr << "hsi-served: snapshot " << snapshot_path
                << " failed validation: " << error << "\n";
      ok = false;
    } else {
      std::cout << "snapshot: " << snapshot_path << " ("
                << (exporter ? exporter->exports() : 0) << " exports)\n";
    }
  }
  exports.finish_flight();
  return ok ? 0 : 2;
}

int run(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("requests", "JSON-lines request file (see serve/request.hpp)");
  cli.add_flag("listen",
               "serve requests over TCP on this port instead of a file "
               "(0 = ephemeral; see --port-file)");
  cli.add_flag("port-file",
               "listen mode: write the bound port to this file", "");
  cli.add_flag("max-conns", "listen mode: max concurrent connections", "256");
  cli.add_flag("max-inflight",
               "listen mode: per-connection in-flight job cap "
               "(flow control pauses reads beyond it)",
               "32");
  cli.add_flag("progress",
               "listen mode: stream per-chunk progress frames");
  cli.add_flag("shards",
               "listen mode: shard the serve across this many worker "
               "processes (0 = in-process)",
               "0");
  cli.add_flag("shard-dir",
               "shard mode: state directory for worker port files and logs",
               "");
  cli.add_flag("worker",
               "quiet worker mode under a shard router (listen mode; "
               "skips report tables)");
  cli.add_flag("stats-file",
               "write a compact serve-stats JSON (jobs/done/cached + "
               "cache counters) at exit",
               "");
  cli.add_flag("workers", "server worker threads", "1");
  cli.add_flag("queue-depth", "admission: max queued jobs", "64");
  cli.add_flag("max-seconds", "admission: cost-model seconds budget (0 = off)",
               "0");
  cli.add_flag("max-bytes", "admission: estimated bytes budget (0 = off)", "0");
  cli.add_flag("no-shed", "never shed low-priority jobs on saturation");
  cli.add_flag("cache-mb",
               "result/scene cache byte budget in MiB (0 disables)", "64");
  cli.add_flag("no-cache", "disable the result and scene caches");
  cli.add_flag("repeat", "submit the request batch this many times", "1");
  cli.add_flag("report", "per-job report JSON output path", "");
  cli.add_flag("metrics", "metrics JSON output path", "");
  cli.add_flag("trace", "Chrome trace-event JSON output path", "");
  cli.add_flag("timelines", "directory for per-job timeline JSON files", "");
  cli.add_flag("snapshot", "periodic registry snapshot JSON output path", "");
  cli.add_flag("snapshot-period", "snapshot export interval in seconds",
               "0.05");
  cli.add_flag("flight-dir",
               "directory for flight-recorder dumps on job failure", "");
  cli.add_flag("fault",
               "inject transient faults: substr[:n] fails the first n "
               "attempts (default all) of jobs whose name contains substr",
               "");
  cli.add_flag("retry-backoff-ms", "base retry backoff in milliseconds", "0");
  if (!cli.parse(argc, argv)) return 1;
  if (!cli.positional().empty()) {
    std::cerr << "hsi-served: unexpected argument '" << cli.positional()[0]
              << "'\n";
    return 1;
  }
  const std::string requests_path = cli.get("requests", "");
  const std::string listen_arg = cli.get("listen", "");
  if (!requests_path.empty() && !listen_arg.empty()) {
    std::cerr << "hsi-served: --requests and --listen are mutually exclusive\n";
    return 1;
  }
  if (requests_path.empty() && listen_arg.empty()) {
    std::cerr << "hsi-served: pass --requests <file.jsonl> or --listen <port>\n";
    cli.print_usage("hsi-served");
    return 1;
  }
  const bool listen_mode = !listen_arg.empty();
  std::optional<int> listen_port;
  if (listen_mode) {
    listen_port = net::parse_port(listen_arg);
    if (!listen_port) {
      std::cerr << "hsi-served: --listen wants a port in [0, 65535], got '"
                << listen_arg << "'\n";
      return 1;
    }
  }
  const std::int64_t workers = cli.get_int("workers", 1);
  const std::int64_t depth = cli.get_int("queue-depth", 64);
  if (workers < 1 || depth < 1) {
    std::cerr << "hsi-served: --workers and --queue-depth must be >= 1\n";
    return 1;
  }
  const std::int64_t repeat = cli.get_int("repeat", 1);
  if (repeat < 1) {
    std::cerr << "hsi-served: --repeat must be >= 1\n";
    return 1;
  }
  const std::string fault_arg = cli.get("fault", "");
  if (listen_mode && (repeat != 1 || !fault_arg.empty())) {
    std::cerr << "hsi-served: --repeat and --fault are file-mode flags "
                 "(ids are not known up front in listen mode)\n";
    return 1;
  }
  const bool worker_mode = cli.get_bool("worker", false);
  const std::int64_t shards = cli.get_int("shards", 0);
  if (shards < 0) {
    std::cerr << "hsi-served: --shards must be >= 0\n";
    return 1;
  }
  if ((worker_mode || shards > 0) && !listen_mode) {
    std::cerr << "hsi-served: --worker and --shards require --listen\n";
    return 1;
  }
  if (worker_mode && shards > 0) {
    std::cerr << "hsi-served: --worker and --shards are mutually exclusive\n";
    return 1;
  }
  const std::string stats_file = cli.get("stats-file", "");
  if (shards > 0 && !cli.get("timelines", "").empty()) {
    std::cerr << "hsi-served: --timelines is a single-process flag (shard "
                 "workers own their job timelines)\n";
    return 1;
  }
  if (shards > 0 && !stats_file.empty()) {
    std::cerr << "hsi-served: --stats-file is per-process; shard workers "
                 "write their own into --shard-dir\n";
    return 1;
  }
  std::int64_t cache_mb = cli.get_int("cache-mb", 64);
  if (cache_mb < 0) {
    std::cerr << "hsi-served: --cache-mb must be >= 0\n";
    return 1;
  }
  if (cli.get_bool("no-cache", false)) cache_mb = 0;
  const double backoff_ms = cli.get_double("retry-backoff-ms", 0);
  if (backoff_ms < 0) {
    std::cerr << "hsi-served: --retry-backoff-ms must be >= 0\n";
    return 1;
  }
  const std::int64_t max_conns = cli.get_int("max-conns", 256);
  const std::int64_t max_inflight = cli.get_int("max-inflight", 32);
  if (listen_mode && (max_conns < 1 || max_inflight < 1)) {
    std::cerr << "hsi-served: --max-conns and --max-inflight must be >= 1\n";
    return 1;
  }

  trace::reset();
  // A listening server runs until signalled and span buffers only grow,
  // so it records spans only when asked: --trace, or HS_TRACE=1 in the
  // environment. Counters, histograms and the flight recorder do not
  // depend on this switch. A file-mode batch is bounded and records them
  // as it always has (its --metrics span rows).
  trace::set_enabled(!listen_mode || !cli.get("trace", "").empty() ||
                     trace::enabled());

  serve::RequestBatch batch;
  if (!listen_mode) {
    try {
      batch = serve::read_request_file(requests_path);
    } catch (const std::exception& e) {
      std::cerr << "hsi-served: " << e.what() << "\n";
      return 1;
    }
    for (const auto& err : batch.errors) {
      std::cerr << "hsi-served: " << err.second << "\n";  // pre-labeled path:line
    }
    if (batch.jobs.empty()) {
      std::cerr << "hsi-served: no valid requests in " << requests_path << "\n";
      return 1;
    }
  }

  serve::ServerOptions options;
  options.workers = static_cast<std::size_t>(workers);
  options.admission.max_queue_depth = static_cast<std::size_t>(depth);
  options.admission.max_estimated_seconds = cli.get_double("max-seconds", 0);
  options.admission.max_estimated_bytes =
      static_cast<std::uint64_t>(cli.get_int("max-bytes", 0));
  options.admission.shed_low_priority = !cli.get_bool("no-shed", false);
  options.keep_payloads = false;  // the CLI reports hashes, not payloads
  options.result_cache_bytes = static_cast<std::uint64_t>(cache_mb) << 20;
  options.scene_cache_bytes = static_cast<std::uint64_t>(cache_mb) << 20;
  options.retry_backoff_seconds = backoff_ms / 1e3;

  const std::string flight_dir = cli.get("flight-dir", "");
  if (!flight_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(flight_dir, ec);
    options.flight_dump_dir = flight_dir;
  }

  // --fault substr[:n]: ids are assigned in submission order by a single
  // submitter thread, so the faulted set is computable up front. Parsing
  // is strict (serve::parse_fault_spec): a malformed attempt count is a
  // usage error, not a silently different fault plan.
  if (!fault_arg.empty()) {
    std::string fault_error;
    const auto fault = serve::parse_fault_spec(fault_arg, &fault_error);
    if (!fault) {
      std::cerr << "hsi-served: " << fault_error << "\n";
      return 1;
    }
    auto fault_ids = std::make_shared<std::set<std::uint64_t>>();
    std::uint64_t next_id = 1;
    for (std::int64_t pass = 0; pass < repeat; ++pass) {
      for (const serve::JobSpec& spec : batch.jobs) {
        if (spec.name.find(fault->substr) != std::string::npos) {
          fault_ids->insert(next_id);
        }
        ++next_id;
      }
    }
    const int fault_attempts = fault->attempts;
    options.inject_fault = [fault_ids, fault_attempts](std::uint64_t id,
                                                       int attempt) {
      return attempt <= fault_attempts && fault_ids->count(id) > 0;
    };
  }

  // The snapshot exporter runs for the whole serve (started before the
  // server, stopped after shutdown so the final export sees the end state).
  std::unique_ptr<trace::SnapshotExporter> exporter;
  const std::string snapshot_path = cli.get("snapshot", "");
  if (!snapshot_path.empty()) {
    trace::SnapshotExporter::Options sopt;
    sopt.path = snapshot_path;
    sopt.period_seconds = cli.get_double("snapshot-period", 0.05);
    sopt.name = "hsi-served";
    exporter = std::make_unique<trace::SnapshotExporter>(sopt);
  }

  util::Timer wall;

  if (listen_mode) {
#ifdef __GLIBC__
    // A listening server frees each job's whole working set once the job
    // is delivered. Under glibc's default dynamic thresholds the freed top
    // of the heap then goes back to the kernel after every job and the
    // next job faults it in again: about 7x the minor faults and 15% more
    // CPU per job on 48x48x16 scenes. Keep up to 64 MiB of freed heap for
    // reuse, and take blocks up to 32 MiB (glibc's own dynamic ceiling)
    // from the heap rather than a fresh mmap each time.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
    // The backend behind the front door: an in-process serve::Server, or
    // in shard mode a Router fanning out over worker processes running
    // this same binary in --worker mode.
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<shard::Router> router;
    serve::JobBackend* backend = nullptr;
    if (shards > 0) {
      shard::RouterOptions ropt;
      ropt.shards = static_cast<std::size_t>(shards);
      char exe[4096];
      const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
      if (n <= 0) {
        std::cerr << "hsi-served: cannot resolve own binary path for "
                     "--shards workers\n";
        return 1;
      }
      exe[n] = '\0';
      ropt.worker_cmd = exe;
      ropt.state_dir = cli.get("shard-dir", "");
      ropt.worker_threads = static_cast<std::size_t>(workers);
      ropt.worker_queue_depth = static_cast<std::size_t>(depth);
      ropt.worker_cache_mb = static_cast<std::uint64_t>(cache_mb);
      ropt.progress_events = cli.get_bool("progress", false);
      ropt.flight_dump_dir = flight_dir;
      router = std::make_unique<shard::Router>(ropt);
      try {
        router->start();
      } catch (const std::exception& e) {
        std::cerr << "hsi-served: " << e.what() << "\n";
        return 1;
      }
      std::cout << "hsi-served: " << router->alive_shards() << "/" << shards
                << " shards up (state: " << router->options().state_dir
                << ")\n";
      backend = router.get();
    } else {
      server = std::make_unique<serve::Server>(options);
      backend = server.get();
    }

    net::NetServerOptions nopt;
    nopt.port = *listen_port;
    nopt.max_connections = static_cast<std::size_t>(max_conns);
    nopt.max_inflight_per_conn = static_cast<std::size_t>(max_inflight);
    nopt.progress_events = cli.get_bool("progress", false);
    std::unique_ptr<net::NetServer> front;
    try {
      front = std::make_unique<net::NetServer>(*backend, nopt);
    } catch (const std::exception& e) {
      std::cerr << "hsi-served: " << e.what() << "\n";
      return 1;
    }
    const std::string port_file = cli.get("port-file", "");
    if (!port_file.empty()) {
      std::string error;
      if (!util::write_file_atomic(
              port_file, std::to_string(front->port()) + "\n", &error)) {
        std::cerr << "hsi-served: cannot write " << port_file << ": " << error
                  << "\n";
        return 1;
      }
    }
    // Per-job exports are written as each result is delivered; the
    // worker's stdout is the router's per-shard log, so it writes none.
    JobExports exports(cli.get("report", ""), cli.get("timelines", ""),
                       flight_dir);
    if (!worker_mode) {
      front->set_on_result(
          [&exports](const serve::JobResult& r) { exports.add(r); });
    }
    g_front_door.store(front.get(), std::memory_order_release);
    struct sigaction sa{};
    sa.sa_handler = on_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    std::cout << "hsi-served: listening on 127.0.0.1:" << front->port()
              << " (SIGTERM drains)" << std::endl;

    front->run();  // until a signal (or in-process request_stop)

    g_front_door.store(nullptr, std::memory_order_release);
    if (router) {
      router->shutdown(/*drain=*/true);
    } else {
      server->shutdown(/*drain=*/true);
    }
    front->flush_results();  // jobs orphaned by a client that left early
    const double wall_s = wall.seconds();
    if (exporter) exporter->stop();
    const net::NetServer::Stats ns = front->stats();
    std::cout << "net: " << ns.accepted << " connections, " << ns.frames
              << " frames (" << ns.bad_frames << " bad, "
              << ns.oversized_frames << " oversized), " << ns.submitted
              << " submitted, " << ns.rejected << " rejected, "
              << ns.results_sent << " results, " << ns.orphaned_results
              << " orphaned\n";
    const JobCounts counts = router ? counts_of(*router) : counts_of(*server);
    if (router) {
      const shard::Router::Stats st = router->stats();
      std::cout << "shard: " << st.submitted << " submitted, " << st.routed
                << " routed, " << st.rerouted << " rerouted, " << st.parked
                << " parked, " << st.completed << " completed, "
                << st.rejected << " rejected, " << st.failed << " failed, "
                << st.deaths << " deaths, " << st.restarts << " restarts\n";
      const std::vector<shard::Router::ShardStats> per = router->shard_stats();
      for (std::size_t k = 0; k < per.size(); ++k) {
        std::cout << "shard " << k << ": " << per[k].routed << " routed, "
                  << per[k].done << " done (" << per[k].cached << " cached), "
                  << per[k].rejected << " rejected, " << per[k].restarts
                  << " restarts\n";
      }
    }
    bool ok = true;
    if (!stats_file.empty() && server) {
      if (write_stats_file(stats_file, *server)) {
        std::cout << "stats: " << stats_file << "\n";
      } else {
        std::cerr << "hsi-served: cannot write " << stats_file << "\n";
        ok = false;
      }
    }
    if (worker_mode) {
      // Quiet path: stdout is the router's per-shard log. The terminal
      // invariant still gates the exit status.
      std::cout << "hsi-served worker: " << counts.jobs << " jobs, "
                << counts.terminal << " terminal in "
                << util::format_duration(wall_s) << "\n";
      if (counts.terminal != counts.jobs) {
        std::cerr << "hsi-served: some jobs never reached a terminal state\n";
        ok = false;
      }
      return ok ? 0 : 2;
    }
    std::cout << "hsi-served: " << counts.jobs << " jobs in "
              << util::format_duration(wall_s) << "\n";
    const int rc = report_results(cli, counts, server.get(), exports,
                                  exporter.get(), cache_mb, snapshot_path);
    return ok ? rc : 2;
  }

  serve::Server server(options);
  for (std::int64_t pass = 0; pass < repeat; ++pass) {
    for (const serve::JobSpec& spec : batch.jobs) server.submit(spec);
  }
  server.shutdown(/*drain=*/true);
  const double wall_s = wall.seconds();
  if (exporter) exporter->stop();
  bool ok = true;
  if (!stats_file.empty()) {
    if (write_stats_file(stats_file, server)) {
      std::cout << "stats: " << stats_file << "\n";
    } else {
      std::cerr << "hsi-served: cannot write " << stats_file << "\n";
      ok = false;
    }
  }
  // No hook is installed in file mode, so every record is still here.
  const std::vector<serve::JobResult> results = server.results();
  print_job_table(results, wall_s);
  JobExports exports(cli.get("report", ""), cli.get("timelines", ""),
                     flight_dir);
  for (const serve::JobResult& r : results) exports.add(r);
  const int rc = report_results(cli, counts_of(server), &server, exports,
                                exporter.get(), cache_mb, snapshot_path);
  return ok ? rc : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hsi-served: " << e.what() << "\n";
    return 1;
  }
}
