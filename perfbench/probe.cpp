// perfbench-probe: the in-process half of the end-to-end benchmark.
//
// run.py owns inputs, processes, statistics and the verdict; this binary
// only executes and timestamps. It calls the library's public entry points
// from outside and writes raw per-operation records as one JSON document:
//
//   amc      closed loop, one job at a time: generate a distinct synthetic
//            scene, morphology_gpu (3x3 SE), unmix_gpu -- the Classify job.
//            Prints "WARM" once a warm-up job has run, then measures for
//            --seconds. Afterwards (untimed) it checks job 0's MEI against
//            morphology_vectorized and its chunked outputs against an
//            unchunked run.
//   load     drives an hs.net.v1 listener (hsi-served --listen) with
//            net::Client connections: open-loop arrivals from a schedule
//            file, or a paced closed loop over a spec list. Prints "WARM"
//            after the warm-up specs ran once each, then measures once it
//            reads a "GO" line on stdin.
//   witness  runs request lines through an in-process serve::Server and
//            reports each job's output_hash and modeled_ms exactly as a
//            result frame would carry them; --probe also times direct
//            pipeline calls on one scene of each kind.
//
// Nothing here sets an execution engine: the library default runs.
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/amc_gpu.hpp"
#include "core/morphology.hpp"
#include "core/structuring_element.hpp"
#include "core/unmix_gpu.hpp"
#include "hsi/synthetic.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "serve/job.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace hs;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User + system CPU of this process, in milliseconds.
double self_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/// utime + stime of another process from /proc/<pid>/stat, in ms; -1 when
/// the process is gone.
double proc_cpu_ms(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return -1;
  const auto close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  unsigned long long utime = 0, stime = 0;
  // After "comm)": state is field 3; utime and stime are fields 14 and 15.
  for (int field = 3; field <= 15 && fields >> f; ++field) {
    if (field == 14) utime = std::stoull(f);
    if (field == 15) stime = std::stoull(f);
  }
  return static_cast<double>(utime + stime) * 1e3 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of this process in MiB.
double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

bool same_bits(const void* a, const void* b, std::size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

template <typename T>
bool same_vector(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         same_bits(a.data(), b.data(), a.size() * sizeof(T));
}

/// Minimal JSON object writer for the probe's output document.
class JsonOut {
 public:
  void key(const std::string& k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
  }
  void num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << buf;
  }
  void str(const std::string& s) {
    sep();
    os_ << '"' << net::json_escape(s) << '"';
  }
  void open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
  }
  void close(char c) {
    os_ << c;
    fresh_ = false;
  }
  void field(const std::string& k, double v) { key(k), num(v); }
  void field(const std::string& k, const std::string& v) { key(k), str(v); }
  void array(const std::string& k, const std::vector<double>& v) {
    key(k);
    open('[');
    for (const double x : v) num(x);
    close(']');
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << os_.str() << "\n";
    return out.good();
  }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------- pipeline

/// Simulator counters of one job (morphology + unmixing reports summed).
struct JobCounts {
  double passes = 0, fragments = 0, alu = 0, tex = 0;
  double tex_accesses = 0, tex_hits = 0, modeled_ms = 0, chunks = 0;

  void add(const gpusim::DeviceTotals& t, double modeled_s, std::size_t n) {
    passes += static_cast<double>(t.passes);
    fragments += static_cast<double>(t.fragments);
    alu += static_cast<double>(t.exec.alu_instructions);
    tex += static_cast<double>(t.exec.tex_fetches);
    tex_accesses += static_cast<double>(t.cache.accesses);
    tex_hits += static_cast<double>(t.cache.hits);
    modeled_ms += modeled_s * 1e3;
    chunks += static_cast<double>(n);
  }

  JobCounts& operator+=(const JobCounts& o) {
    passes += o.passes;
    fragments += o.fragments;
    alu += o.alu;
    tex += o.tex;
    tex_accesses += o.tex_accesses;
    tex_hits += o.tex_hits;
    modeled_ms += o.modeled_ms;
    chunks += o.chunks;
    return *this;
  }
};

/// One job's timestamps (ms from the window origin) and counters.
struct JobRecord {
  double start = 0, gen_end = 0, morph_end = 0, end = 0;
  bool traced = false;
  serve::JobKind kind = serve::JobKind::Classify;
  JobCounts counts;
};

struct JobOutputs {
  core::MorphOutputs morph;
  std::vector<int> labels;
};

hsi::SceneConfig scene_config(int width, int height, int bands,
                              std::uint64_t seed) {
  hsi::SceneConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.bands = bands;
  cfg.seed = seed;
  return cfg;
}

/// Runs one job through the public pipeline calls, stamping each call
/// boundary relative to `origin`. Morphology runs for kinds morphology and
/// classify, unmixing for classify and unmix -- the serving layer's split.
JobRecord run_job(const hsi::SceneConfig& cfg, serve::JobKind kind,
                  const core::AmcGpuOptions& opt, Clock::time_point origin,
                  JobOutputs* keep = nullptr) {
  JobRecord rec;
  rec.kind = kind;
  rec.start = ms_between(origin, Clock::now());
  const hsi::HyperCube cube = hsi::generate_indian_pines_scene(cfg).cube;
  rec.gen_end = ms_between(origin, Clock::now());
  rec.morph_end = rec.gen_end;
  if (kind != serve::JobKind::Unmix) {
    core::AmcGpuReport report =
        core::morphology_gpu(cube, core::StructuringElement::square(1), opt);
    rec.morph_end = ms_between(origin, Clock::now());
    rec.counts.add(report.totals, report.modeled_seconds, report.chunk_count);
    if (keep) keep->morph = std::move(report.morph);
  }
  if (kind != serve::JobKind::Morphology) {
    const auto endmembers =
        serve::synthetic_endmembers(4, cube.bands(), cfg.seed);
    core::GpuUnmixReport report = core::unmix_gpu(cube, endmembers, opt);
    rec.counts.add(report.totals, report.modeled_seconds, report.chunk_count);
    if (keep) keep->labels = std::move(report.labels);
  }
  rec.end = ms_between(origin, Clock::now());
  return rec;
}

void write_counts(JsonOut& out, const std::string& key, const JobCounts& c) {
  out.key(key);
  out.open('{');
  out.field("passes", c.passes);
  out.field("fragments", c.fragments);
  out.field("alu", c.alu);
  out.field("tex", c.tex);
  out.field("tex_accesses", c.tex_accesses);
  out.field("tex_hits", c.tex_hits);
  out.field("modeled_ms", c.modeled_ms);
  out.field("chunks", c.chunks);
  out.close('}');
}

void write_jobs(JsonOut& out, const std::vector<JobRecord>& jobs) {
  std::vector<double> start, gen_end, morph_end, end, traced, kind;
  for (const JobRecord& j : jobs) {
    kind.push_back(static_cast<double>(j.kind));
    start.push_back(j.start);
    gen_end.push_back(j.gen_end);
    morph_end.push_back(j.morph_end);
    end.push_back(j.end);
    traced.push_back(j.traced ? 1 : 0);
  }
  out.key("jobs");
  out.open('{');
  out.array("start_ms", start);
  out.array("gen_end_ms", gen_end);
  out.array("morph_end_ms", morph_end);
  out.array("end_ms", end);
  out.array("traced", traced);
  out.array("kind", kind);  // serve::JobKind: 0 morphology, 1 classify, 2 unmix
  out.close('}');
}

/// Wall ms of one job with the texture-cache model off, then on (best of
/// two each): the replay share of the cache model on this scene.
std::pair<double, double> replay_probe(const hsi::SceneConfig& cfg,
                                       serve::JobKind kind,
                                       core::AmcGpuOptions opt) {
  double best[2] = {1e300, 1e300};
  for (int rep = 0; rep < 2; ++rep) {
    for (int on = 0; on < 2; ++on) {
      opt.sim.texture_cache = on == 1;
      const auto t0 = Clock::now();
      const JobRecord r = run_job(cfg, kind, opt, t0);
      best[on] = std::min(best[on], r.end - r.gen_end);
    }
  }
  return {best[0], best[1]};
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

int run_amc(const util::Cli& cli) {
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10);
  const bool traced_run = cli.get_int("trace", 0) == 1;
  const int size = static_cast<int>(cli.get_int("size", 128));
  const int bands = static_cast<int>(cli.get_int("bands", 64));
  const std::string out_path = cli.get("out", "");

  core::AmcGpuOptions opt;
  opt.workers = 1;
  opt.chunk_texel_budget =
      static_cast<std::uint64_t>(cli.get_int("chunk-texels", 4096));

  // Warm-up: one full job on a scene no timed job uses (first program
  // lowering, allocator growth). Its time belongs to setup_s.
  {
    const auto t0 = Clock::now();
    run_job(scene_config(size, size, bands, mix_seed(seed, 1u << 20)),
            serve::JobKind::Classify, opt, t0);
  }
  std::cout << "WARM" << std::endl;
  if (cli.get_bool("warm-only", false)) return 0;

  std::vector<JobRecord> jobs;
  JobOutputs first;
  const double cpu0 = self_cpu_ms();
  const auto origin = Clock::now();
  for (std::uint64_t i = 0; ms_between(origin, Clock::now()) < seconds * 1e3;
       ++i) {
    // Traced runs alternate jobs so traced and untraced halves see the
    // same scenes and the same machine state.
    const bool traced = traced_run && (i % 2 == 1);
    trace::set_enabled(traced);
    JobRecord rec = run_job(scene_config(size, size, bands, mix_seed(seed, i)),
                            serve::JobKind::Classify, opt, origin,
                            i == 0 ? &first : nullptr);
    rec.traced = traced;
    if (traced) {
      trace::set_enabled(false);
      trace::reset();  // keep the event buffers from growing over the run
    }
    jobs.push_back(rec);
  }
  const double window_ms = ms_between(origin, Clock::now());
  const double cpu_ms = self_cpu_ms() - cpu0;
  const double peak_rss_mb = self_peak_rss_mb();

  // Correctness gate (untimed): job 0's MEI must bit-equal the vectorized
  // CPU mirror, and its chunked outputs must bit-equal an unchunked run.
  const hsi::SceneConfig cfg0 = scene_config(size, size, bands, mix_seed(seed, 0));
  const hsi::HyperCube cube0 = hsi::generate_indian_pines_scene(cfg0).cube;
  const core::MorphOutputs cpu =
      core::morphology_vectorized(cube0, core::StructuringElement::square(1));
  int mismatches = 0;
  if (!same_vector(cpu.mei, first.morph.mei)) ++mismatches;
  core::AmcGpuOptions whole = opt;
  whole.chunk_texel_budget = std::uint64_t{1} << 40;  // one chunk per call
  whole.sim.enforce_memory_limit = false;
  JobOutputs unchunked;
  run_job(cfg0, serve::JobKind::Classify, whole, Clock::now(), &unchunked);
  if (!same_vector(unchunked.morph.mei, first.morph.mei) ||
      !same_vector(unchunked.morph.db, first.morph.db) ||
      !same_vector(unchunked.morph.erosion_index, first.morph.erosion_index) ||
      !same_vector(unchunked.morph.dilation_index,
                   first.morph.dilation_index)) {
    ++mismatches;
  }
  if (!same_vector(unchunked.labels, first.labels)) ++mismatches;

  JsonOut out;
  out.open('{');
  out.field("window_ms", window_ms);
  out.field("cpu_ms", cpu_ms);
  out.field("peak_rss_mb", peak_rss_mb);
  out.field("checks", 3);
  out.field("mismatches", mismatches);
  write_counts(out, "job0", jobs.empty() ? JobCounts{} : jobs.front().counts);
  write_jobs(out, jobs);
  if (traced_run) {
    const auto [off, on] = replay_probe(cfg0, serve::JobKind::Classify, opt);
    out.field("replay_off_ms", off);
    out.field("replay_on_ms", on);
  }
  out.close('}');
  if (!out.write(out_path)) {
    std::cerr << "perfbench-probe: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}

// -------------------------------------------------------------------- load

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Request line with the client id spliced in: {"x":1} -> {"id":7,"x":1}.
std::string tag_request(const std::string& line, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + line.substr(1);
}

/// One request's life as the client saw it. Times are ms from the window
/// origin; `due` is the scheduled send time (open loop) or pace slot.
struct Request {
  std::size_t spec = 0;
  double due = 0, sent = -1, recv = -1;
  int outcome = 0;  ///< 0 none, 1 done, 2 reject, 3 other terminal
  bool cached = false;
  double queue_ms = 0, run_ms = 0, exec_ms = 0, modeled_ms = 0;
  std::string hash;
};

struct Conn {
  std::vector<Request> reqs;
  std::string fatal;
  int protocol_errors = 0;
};

bool connect_client(net::Client& client, int port, std::string* error) {
  if (!client.connect("127.0.0.1", port, error)) return false;
  const auto hello = client.read_frame(10.0, error);
  const auto r = hello ? net::parse_response_frame(*hello) : std::nullopt;
  if (!r || r->type != "hello") {
    if (error->empty()) *error = "no hello frame";
    return false;
  }
  return true;
}

/// Applies one server frame to the request table. False on a protocol
/// violation (the connection is then abandoned).
bool absorb_frame(const std::string& text, Conn& conn, std::size_t& open,
                  Clock::time_point origin) {
  std::string err;
  const auto r = net::parse_response_frame(text, &err);
  if (!r) {
    ++conn.protocol_errors;
    conn.fatal = "unparseable frame: " + err;
    return false;
  }
  if (r->type == "error") {
    ++conn.protocol_errors;
    if (r->fatal) conn.fatal = "server error: " + r->error;
    return !r->fatal;
  }
  if (!r->terminal()) return true;  // informational frames
  if (!r->has_client_id || r->client_id >= conn.reqs.size() ||
      conn.reqs[r->client_id].recv >= 0 || conn.reqs[r->client_id].sent < 0) {
    ++conn.protocol_errors;
    conn.fatal = "terminal frame for unknown id: " + text;
    return false;
  }
  Request& q = conn.reqs[r->client_id];
  q.recv = ms_between(origin, Clock::now());
  q.outcome = r->type == "reject" ? 2 : (r->state == "done" ? 1 : 3);
  q.cached = r->cached;
  q.queue_ms = r->queue_ms;
  q.run_ms = r->run_ms;
  q.exec_ms = r->exec_ms;
  q.modeled_ms = r->modeled_ms;
  q.hash = r->output_hash;
  --open;
  return true;
}

/// Drives one connection. Requests go out no earlier than their `due`
/// time and with at most `window` in flight; the open loop passes a
/// window larger than its request count. Nothing is sent after `stop_ms`
/// (a system slower than the pace ends the run on time; the unsent rest
/// is not attempted).
void drive_conn(int port, const std::vector<std::string>& specs,
                std::size_t window, double stop_ms, Clock::time_point origin,
                Conn* conn) {
  constexpr double kDrainMs = 30e3;  // silence that fails the connection
  net::Client client;
  std::string error;
  if (!connect_client(client, port, &error)) {
    conn->fatal = "connect: " + error;
    return;
  }
  std::size_t next = 0, open = 0;
  double last_activity = 0;
  while (next < conn->reqs.size() || open > 0) {
    const double now = ms_between(origin, Clock::now());
    if (next < conn->reqs.size() && now >= stop_ms) {
      conn->reqs.resize(next);
      continue;
    }
    if (next < conn->reqs.size() && open < window &&
        now >= conn->reqs[next].due) {
      Request& q = conn->reqs[next];
      q.sent = now;
      if (!client.send_line(tag_request(specs[q.spec], next), &error)) {
        conn->fatal = "send: " + error;
        return;
      }
      ++next;
      ++open;
      last_activity = now;
      continue;
    }
    // read_frame(0) hands out an already-buffered frame without I/O.
    auto frame = client.read_frame(0, &error);
    if (!frame && error == "timeout") {
      // read_frame() waits in whole milliseconds (and not at all below
      // one), so sleep in ppoll() until the socket is readable or the
      // next send is due, keeping sends on schedule without spinning.
      double wait_ms = 50;
      if (next < conn->reqs.size() && open < window) {
        wait_ms = std::clamp(conn->reqs[next].due - now, 0.0, wait_ms);
      }
      const auto wait_ns = static_cast<long>(wait_ms * 1e6);
      const timespec ts{wait_ns / 1000000000L, wait_ns % 1000000000L};
      pollfd pfd{client.fd(), POLLIN, 0};
      if (::ppoll(&pfd, 1, &ts, nullptr) > 0) {
        frame = client.read_frame(kDrainMs / 1e3, &error);
      }
    }
    if (frame) {
      if (!absorb_frame(*frame, *conn, open, origin)) return;
      last_activity = ms_between(origin, Clock::now());
    } else if (error != "timeout") {
      conn->fatal = "read: " + error;
      return;
    } else if (open > 0 && now - last_activity > kDrainMs) {
      conn->fatal = "response timeout";
      return;
    }
  }
  client.shutdown_writes();
}

/// Runs `specs` once each, in order, on one connection; all must be Done.
bool warm_up(int port, const std::vector<std::string>& specs,
             std::string* error) {
  Conn conn;
  conn.reqs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) conn.reqs[i].spec = i;
  drive_conn(port, specs, 1, 1e300, Clock::now(), &conn);
  if (!conn.fatal.empty()) {
    *error = conn.fatal;
    return false;
  }
  for (const Request& q : conn.reqs) {
    if (q.outcome != 1) {
      *error = "warm-up request not done";
      return false;
    }
  }
  return true;
}

std::vector<int> parse_pids(const std::string& text) {
  std::vector<int> pids;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) pids.push_back(std::stoi(item));
  }
  return pids;
}

double pids_cpu_ms(const std::vector<int>& pids) {
  double total = 0;
  for (const int pid : pids) total += std::max(0.0, proc_cpu_ms(pid));
  return total;
}

int run_load(const util::Cli& cli) {
  const int port = static_cast<int>(cli.get_int("port", 0));
  const std::vector<std::string> specs = read_lines(cli.get("specs", ""));
  const std::vector<std::string> warm = read_lines(cli.get("warm", ""));
  const std::string out_path = cli.get("out", "");
  const std::size_t conns = static_cast<std::size_t>(cli.get_int("conns", 4));
  if (port <= 0 || specs.empty() || warm.empty() || conns < 1) {
    std::cerr << "perfbench-probe load: need --port, --specs, --warm\n";
    return 1;
  }

  std::string error;
  if (!warm_up(port, warm, &error)) {
    std::cerr << "perfbench-probe: warm-up failed: " << error << "\n";
    return 1;
  }
  std::cout << "WARM" << std::endl;
  if (cli.get_bool("warm-only", false)) return 0;
  // The window starts on a "GO" line, so the caller can change the system
  // under test between warm-up and measurement (run.py pins CPUs there).
  std::string go;
  if (!std::getline(std::cin, go) || go != "GO") {
    std::cerr << "perfbench-probe: no GO line after warm-up\n";
    return 1;
  }

  // Request plan. Open loop: `schedule` lines "<due_s> <spec index>",
  // dealt round-robin to the connections. Paced closed loop: connection c
  // sends its k-th request no earlier than (k * conns + c) / rate seconds,
  // cycling through the spec list, with at most `window` in flight.
  std::vector<Conn> plan(conns);
  std::size_t window = 0;
  double stop_ms = 1e300;
  const std::string schedule_path = cli.get("schedule", "");
  if (!schedule_path.empty()) {
    std::size_t k = 0;
    for (const std::string& line : read_lines(schedule_path)) {
      std::istringstream in(line);
      Request q;
      double due_s = 0;
      in >> due_s >> q.spec;
      if (!in || q.spec >= specs.size()) {
        std::cerr << "perfbench-probe: bad schedule line: " << line << "\n";
        return 1;
      }
      q.due = due_s * 1e3;
      plan[k++ % conns].reqs.push_back(q);
    }
    window = k + 1;
  } else {
    const double rate = cli.get_double("rate", 1000);
    const double seconds = cli.get_double("seconds", 10);
    window = static_cast<std::size_t>(cli.get_int("window", 2));
    stop_ms = seconds * 1e3;
    const auto per_conn =
        static_cast<std::size_t>(rate * seconds / static_cast<double>(conns));
    for (std::size_t c = 0; c < conns; ++c) {
      for (std::size_t k = 0; k < per_conn; ++k) {
        Request q;
        const std::size_t slot = k * conns + c;
        q.spec = slot % specs.size();
        q.due = static_cast<double>(slot) * 1e3 / rate;
        plan[c].reqs.push_back(q);
      }
    }
  }

  const std::vector<int> pids = parse_pids(cli.get("pids", ""));
  const double cpu0 = pids_cpu_ms(pids);
  const auto origin = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back(drive_conn, port, std::cref(specs), window, stop_ms,
                         origin, &plan[c]);
  }
  for (std::thread& t : threads) t.join();
  const double window_ms = ms_between(origin, Clock::now());
  const double cpu_ms = pids_cpu_ms(pids) - cpu0;

  JsonOut out;
  out.open('{');
  out.field("window_ms", window_ms);
  out.field("cpu_ms", cpu_ms);
  out.key("conns");
  out.open('[');
  for (const Conn& conn : plan) {
    out.open('{');
    out.field("fatal", conn.fatal);
    out.field("protocol_errors", conn.protocol_errors);
    std::vector<double> spec, due, sent, recv, outcome, cached, queue, run,
        exec, modeled;
    out.key("hash");
    out.open('[');
    for (const Request& q : conn.reqs) {
      spec.push_back(static_cast<double>(q.spec));
      due.push_back(q.due);
      sent.push_back(q.sent);
      recv.push_back(q.recv);
      outcome.push_back(q.outcome);
      cached.push_back(q.cached ? 1 : 0);
      queue.push_back(q.queue_ms);
      run.push_back(q.run_ms);
      exec.push_back(q.exec_ms);
      modeled.push_back(q.modeled_ms);
      out.str(q.hash);
    }
    out.close(']');
    out.array("spec", spec);
    out.array("due_ms", due);
    out.array("sent_ms", sent);
    out.array("recv_ms", recv);
    out.array("outcome", outcome);
    out.array("cached", cached);
    out.array("queue_ms", queue);
    out.array("run_ms", run);
    out.array("exec_ms", exec);
    out.array("modeled_ms", modeled);
    out.close('}');
  }
  out.close(']');
  out.close('}');
  if (!out.write(out_path)) {
    std::cerr << "perfbench-probe: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------- witness

int run_witness(const util::Cli& cli) {
  const std::vector<std::string> lines = read_lines(cli.get("specs", ""));
  const std::string out_path = cli.get("out", "");
  std::vector<serve::JobSpec> specs;
  for (const std::string& line : lines) {
    std::string error;
    const auto spec = serve::parse_request_line(line, &error);
    if (!spec) {
      std::cerr << "perfbench-probe: bad spec: " << error << "\n";
      return 1;
    }
    specs.push_back(*spec);
  }

  serve::ServerOptions sopt;
  sopt.workers = 1;
  sopt.keep_payloads = false;
  sopt.admission.max_queue_depth = specs.size() + 1;
  serve::Server server(sopt);
  std::vector<std::uint64_t> ids;
  for (const serve::JobSpec& spec : specs) ids.push_back(server.submit(spec).id);
  JsonOut out;
  out.open('{');
  out.key("results");
  out.open('[');
  for (const std::uint64_t id : ids) {
    // Decode the frame the front door would send, so modeled_ms carries
    // exactly the wire's rounding.
    const serve::JobResult result = server.wait(id);
    const auto frame =
        net::parse_response_frame(net::result_frame(result, false, 0));
    out.open('{');
    out.field("state", frame ? frame->state : "");
    out.field("hash", frame ? frame->output_hash : "");
    out.field("modeled_ms", frame ? frame->modeled_ms : -1);
    out.close('}');
  }
  out.close(']');
  server.shutdown(/*drain=*/true);

  // --probe: direct pipeline calls on the first spec of each kind, the
  // in-process layer split at this workload's job shape.
  if (cli.get_bool("probe", false)) {
    core::AmcGpuOptions opt;
    std::vector<JobRecord> jobs;
    JobCounts counts;
    std::map<serve::JobKind, bool> seen;
    const auto origin = Clock::now();
    for (const serve::JobSpec& spec : specs) {
      if (seen[spec.kind]) continue;
      seen[spec.kind] = true;
      const hsi::SceneConfig cfg = scene_config(
          spec.scene.width, spec.scene.height, spec.scene.bands, spec.scene.seed);
      for (int rep = 0; rep < 5; ++rep) {
        JobRecord rec = run_job(cfg, spec.kind, opt, origin);
        rec.traced = true;
        jobs.push_back(rec);
        if (rep == 0) counts += rec.counts;
      }
    }
    out.field("probe_kinds", static_cast<double>(seen.size()));
    write_counts(out, "job0", counts);
    write_jobs(out, jobs);
    const serve::JobSpec& s = specs.front();
    const auto [off, on] = replay_probe(
        scene_config(s.scene.width, s.scene.height, s.scene.bands, s.scene.seed),
        s.kind, opt);
    out.field("replay_off_ms", off);
    out.field("replay_on_ms", on);
  }
  out.close('}');
  if (!out.write(out_path)) {
    std::cerr << "perfbench-probe: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench-probe amc|load|witness [flags]\n";
    return 1;
  }
  const std::string mode = argv[1];
  util::Cli cli;
  cli.add_flag("seed", "input seed", "1");
  cli.add_flag("seconds", "measurement window in seconds", "10");
  cli.add_flag("trace", "1 = traced run", "0");
  cli.add_flag("out", "output JSON path", "");
  cli.add_flag("warm-only", "exit after the warm-up");
  cli.add_flag("size", "amc: scene edge length", "128");
  cli.add_flag("bands", "amc: spectral bands", "64");
  cli.add_flag("chunk-texels", "amc: chunk texel budget", "4096");
  cli.add_flag("port", "load: server port", "0");
  cli.add_flag("specs", "load/witness: JSON-lines request specs", "");
  cli.add_flag("warm", "load: warm-up request specs", "");
  cli.add_flag("schedule", "load: open-loop schedule file", "");
  cli.add_flag("conns", "load: connections", "4");
  cli.add_flag("window", "load: paced closed loop in-flight cap", "2");
  cli.add_flag("rate", "load: paced closed loop requests/second", "1000");
  cli.add_flag("pids", "load: comma-separated pids whose CPU is charged", "");
  cli.add_flag("probe", "witness: also time direct pipeline calls");
  if (!cli.parse(argc - 1, argv + 1)) return 1;
  if (mode == "amc") return run_amc(cli);
  if (mode == "load") return run_load(cli);
  if (mode == "witness") return run_witness(cli);
  std::cerr << "perfbench-probe: unknown mode '" << mode << "'\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-probe: " << e.what() << "\n";
    return 1;
  }
}
