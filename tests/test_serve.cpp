#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/amc_gpu.hpp"
#include "core/structuring_element.hpp"
#include "core/unmix_gpu.hpp"
#include "hsi/envi_io.hpp"
#include "hsi/synthetic.hpp"
#include "serve/job_queue.hpp"
#include "serve/request.hpp"
#include "serve/timeline.hpp"
#include "trace/histogram.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"

namespace hs::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// JobQueue (single-threaded unit tests; the server serializes real access).

JobQueue::Entry entry(std::uint64_t id, Priority p, std::uint64_t seq) {
  return JobQueue::Entry{id, p, seq};
}

TEST(ServeJobQueue, PopsByPriorityThenFifoWithinClass) {
  JobQueue q(8);
  q.push(entry(1, Priority::Low, 1));
  q.push(entry(2, Priority::Normal, 2));
  q.push(entry(3, Priority::High, 3));
  q.push(entry(4, Priority::Normal, 4));
  q.push(entry(5, Priority::High, 5));

  std::vector<std::uint64_t> order;
  while (const auto e = q.pop()) order.push_back(e->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 5, 2, 4, 1}));
}

TEST(ServeJobQueue, ShedVictimIsLowestPriorityYoungest) {
  JobQueue q(8);
  q.push(entry(1, Priority::Low, 1));
  q.push(entry(2, Priority::Low, 2));
  q.push(entry(3, Priority::Normal, 3));

  const auto victim = q.shed_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 2u);  // youngest of the Low class, not the oldest

  ASSERT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2));  // already gone
  const auto next = q.shed_victim();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, 1u);
}

TEST(ServeJobQueue, CapacityAndEmptyBehaviour) {
  JobQueue q(2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.shed_victim(), std::nullopt);
  q.push(entry(1, Priority::Normal, 1));
  q.push(entry(2, Priority::Normal, 2));
  EXPECT_TRUE(q.full());

  JobQueue clamped(0);  // capacity is clamped up to 1
  EXPECT_EQ(clamped.capacity(), 1u);
}

// ---------------------------------------------------------------------------
// Request parsing.

TEST(ServeRequest, ParsesFullRequestLine) {
  std::string err;
  const auto spec = parse_request_line(
      R"({"name":"j1","kind":"classify","priority":"high","deadline_ms":500,)"
      R"("retries":2,"size":24,"bands":12,"seed":9,"se":2,"endmembers":3,)"
      R"("workers":2,"chunk_texel_budget":256,"half":true})",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->name, "j1");
  EXPECT_EQ(spec->kind, JobKind::Classify);
  EXPECT_EQ(spec->priority, Priority::High);
  EXPECT_DOUBLE_EQ(spec->deadline_seconds, 0.5);
  EXPECT_EQ(spec->max_retries, 2);
  EXPECT_EQ(spec->scene.width, 24);
  EXPECT_EQ(spec->scene.height, 24);
  EXPECT_EQ(spec->scene.bands, 12);
  EXPECT_EQ(spec->scene.seed, 9u);
  EXPECT_EQ(spec->se_radius, 2);
  EXPECT_EQ(spec->endmembers, 3);
  EXPECT_EQ(spec->workers, 2u);
  EXPECT_EQ(spec->chunk_texel_budget, 256u);
  EXPECT_TRUE(spec->half_precision);
}

TEST(ServeRequest, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse_request_line("not json", &err).has_value());
  EXPECT_FALSE(err.empty());

  EXPECT_FALSE(parse_request_line(R"({"name":"x"})", &err).has_value())
      << "kind is required";
  EXPECT_FALSE(
      parse_request_line(R"({"kind":"teleport"})", &err).has_value());
  EXPECT_FALSE(
      parse_request_line(R"({"kind":"unmix","wat":1})", &err).has_value())
      << "unknown keys are errors";
  EXPECT_FALSE(
      parse_request_line(R"({"kind":"unmix","bands":0})", &err).has_value());
  EXPECT_FALSE(
      parse_request_line(R"({"kind":"unmix","workers":1.5})", &err)
          .has_value())
      << "integer fields must be integral";
}

TEST(ServeRequest, RejectsNonFiniteNumbers) {
  // The JSON layer parses 1e999 to +inf with strtod, which slips past a
  // bare `< 0` range check and later overflows the steady_clock duration
  // cast when the deadline is armed.
  std::string err;
  EXPECT_FALSE(
      parse_request_line(R"({"kind":"unmix","deadline_ms":1e999})", &err)
          .has_value());
  EXPECT_NE(err.find("deadline_ms"), std::string::npos) << err;
  EXPECT_FALSE(parse_request_line(R"({"kind":"unmix","retries":1e999})", &err)
                   .has_value());
  EXPECT_FALSE(parse_request_line(R"({"kind":"unmix","size":1e999})", &err)
                   .has_value());
}

TEST(ServeRequest, ReadsBatchSkippingCommentsAndCollectingErrors) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "{\"name\":\"a\",\"kind\":\"morphology\"}\n"
      "{\"kind\":\"nope\"}\n"
      "{\"name\":\"b\",\"kind\":\"unmix\",\"priority\":\"low\"}\n");
  const RequestBatch batch = read_requests(in);
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_EQ(batch.jobs[0].name, "a");
  EXPECT_EQ(batch.jobs[1].priority, Priority::Low);
  ASSERT_EQ(batch.errors.size(), 1u);
  EXPECT_EQ(batch.errors[0].first, 4);  // 1-based line number
}

TEST(ServeRequest, FaultSpecContract) {
  // `--fault substr[:n]` (hsi-served). The suffix after the last ':' is a
  // count only when it is a complete digit string; stoi used to truncate
  // "5x" to 5 and accept "-3" and " 7".
  std::string error;

  auto ok = parse_fault_spec("mei");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->substr, "mei");
  EXPECT_EQ(ok->attempts, INT32_MAX);  // default: every attempt fails

  ok = parse_fault_spec("mei:3");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->substr, "mei");
  EXPECT_EQ(ok->attempts, 3);

  // Only the LAST ':' can introduce a count; earlier ones stay literal.
  ok = parse_fault_spec("ns:job:2");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->substr, "ns:job");
  EXPECT_EQ(ok->attempts, 2);

  // Non-numeric suffixes are part of the substring, not a count.
  for (const char* arg : {"mei:5x", "mei:-3", "mei: 7", "a:b", "mei:"}) {
    SCOPED_TRACE(arg);
    ok = parse_fault_spec(arg);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->substr, arg);
    EXPECT_EQ(ok->attempts, INT32_MAX);
  }

  // Hard errors: empty argument, empty substring, zero or overflowing count.
  for (const char* arg : {"", ":3", "mei:0", "mei:99999999999"}) {
    SCOPED_TRACE(arg);
    error.clear();
    EXPECT_FALSE(parse_fault_spec(arg, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

// ---------------------------------------------------------------------------
// Helpers for server tests.

JobSpec small_spec(JobKind kind, const std::string& name,
                   Priority priority = Priority::Normal) {
  JobSpec spec;
  spec.name = name;
  spec.kind = kind;
  spec.priority = priority;
  spec.scene.width = 12;
  spec.scene.height = 10;
  spec.scene.bands = 8;
  spec.scene.seed = 21;
  spec.se_radius = 1;
  spec.endmembers = 3;
  return spec;
}

hsi::HyperCube scene_cube(const JobSpec& spec) {
  hsi::SceneConfig cfg;
  cfg.width = spec.scene.width;
  cfg.height = spec.scene.height;
  cfg.bands = spec.scene.bands;
  cfg.seed = spec.scene.seed;
  return hsi::generate_indian_pines_scene(cfg).cube;
}

/// The hash chain the server computes, recomputed from direct pipeline
/// calls: fnv1a over mei, db, then labels, in that order.
std::uint64_t direct_output_hash(const JobSpec& spec) {
  const hsi::HyperCube cube = scene_cube(spec);
  core::AmcGpuOptions opt;
  opt.workers = spec.workers;
  opt.chunk_texel_budget = spec.chunk_texel_budget;
  opt.half_precision = spec.half_precision;
  std::uint64_t hash = fnv1a(nullptr, 0);
  if (spec.kind != JobKind::Unmix) {
    const auto report = core::morphology_gpu(
        cube, core::StructuringElement::square(spec.se_radius), opt);
    hash = fnv1a(report.morph.mei.data(),
                 report.morph.mei.size() * sizeof(float), hash);
    hash = fnv1a(report.morph.db.data(),
                 report.morph.db.size() * sizeof(float), hash);
  }
  if (spec.kind != JobKind::Morphology) {
    const auto endmembers = synthetic_endmembers(
        spec.endmembers, cube.bands(), spec.scene.seed);
    const auto report = core::unmix_gpu(cube, endmembers, opt);
    hash = fnv1a(report.labels.data(), report.labels.size() * sizeof(int),
                 hash);
  }
  return hash;
}

/// Blocking fault-injector gate: holds every attempt that reaches it until
/// open()ed, without injecting a fault. Lets tests keep a job "running"
/// (or a worker busy) deterministically.
class Gate {
 public:
  bool hold(std::uint64_t /*id*/, int /*attempt*/) {
    std::unique_lock<std::mutex> lk(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return open_; });
    return false;
  }

  /// Blocks until `n` attempts have reached the gate.
  void wait_arrived(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return arrived_ >= n; });
  }

  void open() {
    std::unique_lock<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

// ---------------------------------------------------------------------------
// Determinism: served outputs bit-equal direct pipeline calls.

TEST(ServeServer, MorphologyJobBitIdenticalToDirectCall) {
  const JobSpec spec = small_spec(JobKind::Morphology, "morph");
  ServerOptions options;
  Server server(options);
  const auto sub = server.submit(spec);
  ASSERT_TRUE(sub.admitted);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(res.state, JobState::Done) << res.detail;
  EXPECT_EQ(res.attempts, 1);
  EXPECT_GT(res.modeled_seconds, 0.0);
  EXPECT_GE(res.chunk_count, 1u);
  EXPECT_EQ(res.output_hash, direct_output_hash(spec));

  // keep_payloads defaults on: the MEI itself must match the direct run.
  const hsi::HyperCube cube = scene_cube(spec);
  core::AmcGpuOptions opt;
  const auto direct = core::morphology_gpu(
      cube, core::StructuringElement::square(spec.se_radius), opt);
  ASSERT_EQ(res.mei.size(), direct.morph.mei.size());
  for (std::size_t i = 0; i < res.mei.size(); ++i) {
    EXPECT_EQ(res.mei[i], direct.morph.mei[i]) << "pixel " << i;
  }
}

TEST(ServeServer, UnmixAndClassifyJobsBitIdenticalToDirectCalls) {
  JobSpec unmix = small_spec(JobKind::Unmix, "unmix");
  JobSpec classify = small_spec(JobKind::Classify, "classify");

  ServerOptions options;
  options.workers = 2;
  Server server(options);
  const auto su = server.submit(unmix);
  const auto sc = server.submit(classify);
  ASSERT_TRUE(su.admitted);
  ASSERT_TRUE(sc.admitted);
  const JobResult ru = server.wait(su.id);
  const JobResult rc = server.wait(sc.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(ru.state, JobState::Done) << ru.detail;
  ASSERT_EQ(rc.state, JobState::Done) << rc.detail;
  EXPECT_EQ(ru.output_hash, direct_output_hash(unmix));
  EXPECT_EQ(rc.output_hash, direct_output_hash(classify));

  const hsi::HyperCube cube = scene_cube(unmix);
  core::AmcGpuOptions opt;
  const auto direct = core::unmix_gpu(
      cube, synthetic_endmembers(unmix.endmembers, cube.bands(),
                                 unmix.scene.seed),
      opt);
  EXPECT_EQ(ru.labels, direct.labels);
}

TEST(ServeServer, ChunkParallelJobMatchesSequentialDirectCall) {
  // Serve with workers=3 inside the pipeline and a budget forcing several
  // chunks; the hash must equal the sequential direct run (workers=1) --
  // the PR 3 determinism contract carried through the serving layer.
  JobSpec spec = small_spec(JobKind::Morphology, "par");
  spec.scene.width = 20;
  spec.scene.height = 18;
  spec.workers = 3;
  spec.chunk_texel_budget = 20 * 6;

  JobSpec sequential = spec;
  sequential.workers = 1;

  ServerOptions options;
  Server server(options);
  const auto sub = server.submit(spec);
  ASSERT_TRUE(sub.admitted);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(res.state, JobState::Done) << res.detail;
  EXPECT_GT(res.chunk_count, 1u);
  EXPECT_GT(res.pipeline_workers, 1u);
  EXPECT_EQ(res.output_hash, direct_output_hash(sequential));
}

TEST(ServeServer, EnviSceneJobMatchesDirectCallOnTheSameFile) {
  const std::string base = testing::TempDir() + "hs_serve_scene";
  hsi::SceneConfig cfg;
  cfg.width = 12;
  cfg.height = 10;
  cfg.bands = 8;
  cfg.seed = 3;
  const hsi::HyperCube cube = hsi::generate_indian_pines_scene(cfg).cube;
  hsi::write_envi(cube, base);

  JobSpec spec = small_spec(JobKind::Morphology, "envi");
  spec.scene.envi_path = base + ".hdr";

  ServerOptions options;
  Server server(options);
  const auto sub = server.submit(spec);
  ASSERT_TRUE(sub.admitted);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(res.state, JobState::Done) << res.detail;
  core::AmcGpuOptions opt;
  const auto direct = core::morphology_gpu(
      hsi::read_envi(spec.scene.envi_path),
      core::StructuringElement::square(spec.se_radius), opt);
  std::uint64_t hash = fnv1a(nullptr, 0);
  hash = fnv1a(direct.morph.mei.data(),
               direct.morph.mei.size() * sizeof(float), hash);
  hash = fnv1a(direct.morph.db.data(),
               direct.morph.db.size() * sizeof(float), hash);
  EXPECT_EQ(res.output_hash, hash);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(ServeServer, RejectsOverBudgetAndBadScenes) {
  ServerOptions options;
  options.admission.max_estimated_bytes = 1024;  // tiny: everything over
  Server server(options);

  const auto big = server.submit(small_spec(JobKind::Morphology, "big"));
  EXPECT_FALSE(big.admitted);
  EXPECT_EQ(big.state, JobState::Rejected);
  EXPECT_NE(big.detail.find("over budget"), std::string::npos) << big.detail;

  JobSpec bad = small_spec(JobKind::Morphology, "bad");
  bad.scene.envi_path = testing::TempDir() + "hs_serve_missing.hdr";
  const auto missing = server.submit(bad);
  EXPECT_FALSE(missing.admitted);
  EXPECT_NE(missing.detail.find("bad scene"), std::string::npos)
      << missing.detail;

  // Both rejections are tracked, terminal, and visible via wait().
  EXPECT_EQ(server.wait(big.id).state, JobState::Rejected);
  EXPECT_EQ(server.wait(missing.id).state, JobState::Rejected);
  EXPECT_EQ(server.results().size(), 2u);
  server.shutdown(/*drain=*/true);
}

TEST(ServeServer, RejectsOverSecondsBudget) {
  ServerOptions options;
  options.admission.max_estimated_seconds = 1e-12;
  Server server(options);
  const auto sub = server.submit(small_spec(JobKind::Morphology, "slow"));
  EXPECT_FALSE(sub.admitted);
  EXPECT_NE(sub.detail.find("over budget"), std::string::npos) << sub.detail;
  server.shutdown(/*drain=*/true);
}

TEST(ServeServer, SaturationShedsLowestPriorityYoungestFirst) {
  Gate gate;
  ServerOptions options;
  options.workers = 1;
  options.admission.max_queue_depth = 3;
  options.inject_fault = [&](std::uint64_t id, int attempt) {
    return gate.hold(id, attempt);
  };
  Server server(options);

  // One job occupies the worker (held at the gate), three fill the queue.
  const auto running = server.submit(small_spec(JobKind::Morphology, "run"));
  gate.wait_arrived(1);
  const auto low_old =
      server.submit(small_spec(JobKind::Morphology, "low-old", Priority::Low));
  const auto low_young =
      server.submit(small_spec(JobKind::Morphology, "low-yng", Priority::Low));
  const auto normal = server.submit(
      small_spec(JobKind::Morphology, "normal", Priority::Normal));
  ASSERT_EQ(server.queue_depth(), 3u);

  // Equal-priority arrival cannot shed: it is the one rejected.
  const auto low_late =
      server.submit(small_spec(JobKind::Morphology, "low-late", Priority::Low));
  EXPECT_FALSE(low_late.admitted);
  EXPECT_EQ(low_late.detail, "queue full");

  // A high-priority arrival sheds the lowest-priority *youngest* entry.
  const auto high = server.submit(
      small_spec(JobKind::Morphology, "high", Priority::High));
  EXPECT_TRUE(high.admitted);
  const JobResult shed = server.wait(low_young.id);
  EXPECT_EQ(shed.state, JobState::Rejected);
  EXPECT_NE(shed.detail.find("shed by higher-priority"), std::string::npos)
      << shed.detail;
  EXPECT_EQ(server.queue_depth(), 3u);

  // The older Low job survived the shed and every admitted job completes.
  gate.open();
  server.shutdown(/*drain=*/true);
  EXPECT_EQ(server.wait(running.id).state, JobState::Done);
  EXPECT_EQ(server.wait(low_old.id).state, JobState::Done);
  EXPECT_EQ(server.wait(normal.id).state, JobState::Done);
  // Load around a job never changes its answer: the High arrival that
  // forced the shed still reproduces a direct pipeline call.
  const JobResult survivor = server.wait(high.id);
  EXPECT_EQ(survivor.state, JobState::Done);
  EXPECT_EQ(survivor.output_hash,
            direct_output_hash(
                small_spec(JobKind::Morphology, "high", Priority::High)));
}

TEST(ServeServer, NoSheddingWhenPolicyDisablesIt) {
  Gate gate;
  ServerOptions options;
  options.workers = 1;
  options.admission.max_queue_depth = 1;
  options.admission.shed_low_priority = false;
  options.inject_fault = [&](std::uint64_t id, int attempt) {
    return gate.hold(id, attempt);
  };
  Server server(options);

  const auto running = server.submit(small_spec(JobKind::Morphology, "run"));
  gate.wait_arrived(1);
  const auto queued =
      server.submit(small_spec(JobKind::Morphology, "q", Priority::Low));
  const auto high = server.submit(
      small_spec(JobKind::Morphology, "high", Priority::High));
  EXPECT_TRUE(queued.admitted);
  EXPECT_FALSE(high.admitted);
  EXPECT_EQ(high.detail, "queue full");

  gate.open();
  server.shutdown(/*drain=*/true);
  EXPECT_EQ(server.wait(running.id).state, JobState::Done);
  EXPECT_EQ(server.wait(queued.id).state, JobState::Done);
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(ServeServer, DeadlineExpiryWhileQueued) {
  Gate gate;
  ServerOptions options;
  options.workers = 1;
  options.inject_fault = [&](std::uint64_t id, int attempt) {
    return gate.hold(id, attempt);
  };
  Server server(options);

  const auto blocker = server.submit(small_spec(JobKind::Morphology, "blk"));
  gate.wait_arrived(1);

  JobSpec impatient = small_spec(JobKind::Morphology, "ddl");
  impatient.deadline_seconds = 1e-4;
  const auto sub = server.submit(impatient);
  ASSERT_TRUE(sub.admitted);

  std::this_thread::sleep_for(5ms);  // let the deadline lapse while queued
  gate.open();
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  EXPECT_EQ(res.state, JobState::TimedOut);
  EXPECT_EQ(res.detail, "deadline expired while queued");
  EXPECT_EQ(res.attempts, 0);
  EXPECT_EQ(res.run_seconds, 0.0);
  EXPECT_EQ(server.wait(blocker.id).state, JobState::Done);
}

TEST(ServeServer, DeadlineExpiryWhileRunningStopsAtChunkBoundary) {
  // The gate holds the attempt *after* admission and the queued-deadline
  // check; once released past its deadline, the pipeline's per-chunk
  // cancel_check fires before the first chunk. The deadline must be long
  // enough for the worker to dequeue the job in time on a loaded machine:
  // if it lapses while still queued, the fault injector never runs and
  // wait_arrived blocks forever.
  Gate gate;
  ServerOptions options;
  options.inject_fault = [&](std::uint64_t id, int attempt) {
    return gate.hold(id, attempt);
  };
  Server server(options);

  JobSpec spec = small_spec(JobKind::Morphology, "ddl-run");
  spec.deadline_seconds = 0.25;
  const auto sub = server.submit(spec);
  ASSERT_TRUE(sub.admitted);
  gate.wait_arrived(1);
  std::this_thread::sleep_for(300ms);  // let the deadline lapse at the gate
  gate.open();
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  EXPECT_EQ(res.state, JobState::TimedOut);
  EXPECT_NE(res.detail.find("deadline expired while running"),
            std::string::npos)
      << res.detail;
  EXPECT_EQ(res.attempts, 1);
}

// ---------------------------------------------------------------------------
// Retries.

TEST(ServeServer, TransientFaultsRetriedUntilDone) {
  std::atomic<int> calls{0};
  ServerOptions options;
  options.inject_fault = [&](std::uint64_t, int attempt) {
    calls.fetch_add(1);
    return attempt <= 2;  // first two attempts fault
  };
  Server server(options);

  JobSpec spec = small_spec(JobKind::Morphology, "retry");
  spec.max_retries = 2;
  const auto sub = server.submit(spec);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  EXPECT_EQ(res.state, JobState::Done) << res.detail;
  EXPECT_EQ(res.attempts, 3);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(res.output_hash, direct_output_hash(spec));
}

TEST(ServeServer, RetryBudgetExhaustionFails) {
  ServerOptions options;
  options.inject_fault = [](std::uint64_t, int) { return true; };
  Server server(options);

  JobSpec spec = small_spec(JobKind::Morphology, "doomed");
  spec.max_retries = 1;
  const auto sub = server.submit(spec);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  EXPECT_EQ(res.state, JobState::Failed);
  EXPECT_EQ(res.attempts, 2);  // original + one retry
  EXPECT_NE(res.detail.find("transient fault"), std::string::npos)
      << res.detail;
}

// ---------------------------------------------------------------------------
// Cancellation and shutdown.

TEST(ServeServer, CancelQueuedAndRunningJobs) {
  Gate gate;
  ServerOptions options;
  options.workers = 1;
  options.inject_fault = [&](std::uint64_t id, int attempt) {
    return gate.hold(id, attempt);
  };
  Server server(options);

  const auto running = server.submit(small_spec(JobKind::Morphology, "run"));
  gate.wait_arrived(1);
  const auto queued = server.submit(small_spec(JobKind::Morphology, "q"));

  EXPECT_TRUE(server.cancel(queued.id));
  const JobResult qres = server.wait(queued.id);
  EXPECT_EQ(qres.state, JobState::Cancelled);
  EXPECT_EQ(qres.detail, "cancelled while queued");
  EXPECT_FALSE(server.cancel(queued.id)) << "already terminal";

  EXPECT_TRUE(server.cancel(running.id));
  gate.open();
  const JobResult rres = server.wait(running.id);
  server.shutdown(/*drain=*/true);
  EXPECT_EQ(rres.state, JobState::Cancelled);
  EXPECT_NE(rres.detail.find("cancelled while running"), std::string::npos)
      << rres.detail;

  EXPECT_FALSE(server.cancel(9999)) << "unknown id";
}

TEST(ServeServer, DrainShutdownCompletesEverythingDeterministically) {
  // Two identical request sequences against two single-worker servers must
  // finish with identical per-job terminal states and output hashes.
  auto run_batch = [] {
    ServerOptions options;
    options.workers = 1;
    Server server(options);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
      JobSpec spec = small_spec(
          i == 1 ? JobKind::Unmix : JobKind::Morphology, "job",
          i == 2 ? Priority::High : Priority::Normal);
      spec.scene.seed = 100 + static_cast<std::uint64_t>(i);
      ids.push_back(server.submit(spec).id);
    }
    server.shutdown(/*drain=*/true);
    std::vector<std::pair<JobState, std::uint64_t>> out;
    for (const std::uint64_t id : ids) {
      const JobResult r = server.wait(id);
      out.emplace_back(r.state, r.output_hash);
    }
    return out;
  };

  const auto first = run_batch();
  const auto second = run_batch();
  ASSERT_EQ(first.size(), 3u);
  for (const auto& [state, hash] : first) {
    EXPECT_EQ(state, JobState::Done);
    EXPECT_NE(hash, 0u);
  }
  EXPECT_EQ(first, second);
}

TEST(ServeServer, NonDrainShutdownCancelsQueuedJobs) {
  Gate gate;
  ServerOptions options;
  options.workers = 1;
  options.inject_fault = [&](std::uint64_t id, int attempt) {
    return gate.hold(id, attempt);
  };
  Server server(options);

  const auto running = server.submit(small_spec(JobKind::Morphology, "run"));
  gate.wait_arrived(1);
  const auto q1 = server.submit(small_spec(JobKind::Morphology, "q1"));
  const auto q2 = server.submit(small_spec(JobKind::Morphology, "q2"));

  std::thread closer([&] { server.shutdown(/*drain=*/false); });
  // shutdown(false) cancels the queued jobs and requests cooperative
  // cancellation of the running one before it joins the worker, which the
  // gate holds; once both queued jobs are terminal, release the gate so
  // the running job can react.
  server.wait(q1.id);
  server.wait(q2.id);
  gate.open();
  closer.join();

  EXPECT_EQ(server.wait(q1.id).state, JobState::Cancelled);
  EXPECT_EQ(server.wait(q2.id).state, JobState::Cancelled);
  const JobResult rres = server.wait(running.id);
  EXPECT_TRUE(rres.state == JobState::Cancelled ||
              rres.state == JobState::Done)
      << to_string(rres.state);

  // Post-shutdown submissions are rejected, not enqueued.
  const auto late = server.submit(small_spec(JobKind::Morphology, "late"));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.detail, "server is shutting down");
}

TEST(ServeServer, DestructorActsAsNonDrainShutdown) {
  Gate gate;
  std::uint64_t queued_id = 0;
  {
    ServerOptions options;
    options.workers = 1;
    options.inject_fault = [&](std::uint64_t id, int attempt) {
      return gate.hold(id, attempt);
    };
    Server server(options);
    server.submit(small_spec(JobKind::Morphology, "run"));
    gate.wait_arrived(1);
    queued_id = server.submit(small_spec(JobKind::Morphology, "q")).id;
    gate.open();
    // ~Server must terminalize everything and join without deadlocking.
  }
  EXPECT_GT(queued_id, 0u);
}

TEST(ServeServer, HookedRecordsRetireAndStatsStayExact) {
  std::mutex mu;
  std::vector<JobResult> delivered;
  ServerOptions options;
  options.workers = 1;
  options.result_cache_bytes = 1 << 20;
  options.on_terminal = [&](const JobResult& r) {
    std::lock_guard<std::mutex> lk(mu);
    delivered.push_back(r);
  };
  Server server(options);
  JobSpec bad = small_spec(JobKind::Morphology, "bad");
  bad.scene.width = 0;
  std::vector<std::uint64_t> ids;
  ids.push_back(server.submit(small_spec(JobKind::Morphology, "live")).id);
  ids.push_back(server.submit(small_spec(JobKind::Morphology, "hit")).id);
  ids.push_back(server.submit(bad).id);  // rejected inside submit()
  server.shutdown(/*drain=*/true);

  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(delivered.size(), 3u);
  }
  // The hook holds the only copy; the server keeps none of the three.
  EXPECT_TRUE(server.results().empty());
  for (const std::uint64_t id : ids) {
    EXPECT_FALSE(server.result(id).has_value());
    EXPECT_THROW(server.wait(id), std::invalid_argument);
  }
  const Server::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.done, 2u);
  EXPECT_EQ(st.cached, 1u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.terminal(), 3u);

  // Detached: records stay again.
  server.set_on_terminal(nullptr);
  const auto late = server.submit(small_spec(JobKind::Morphology, "late"));
  EXPECT_EQ(server.wait(late.id).state, JobState::Rejected);
  EXPECT_EQ(server.results().size(), 1u);
  EXPECT_EQ(server.stats().submitted, 4u);
}

TEST(ServeServer, ConcurrentSubmittersAndWorkersStayConsistent) {
  // Thread-safety smoke for the TSan stage: several client threads hammer
  // submit/cancel/result while two workers drain. Every job must reach a
  // terminal state with a coherent result.
  ServerOptions options;
  options.workers = 2;
  options.admission.max_queue_depth = 8;
  options.keep_payloads = false;
  Server server(options);

  constexpr int kClients = 3;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::mutex ids_mu;
  std::vector<std::uint64_t> ids;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Appended, not `"c" + std::to_string(c)`: GCC 12 inlines that
      // concatenation here and warns about it (a false -Wrestrict).
      std::string tenant = "c";
      tenant += std::to_string(c);
      for (int i = 0; i < kPerClient; ++i) {
        JobSpec spec = small_spec(JobKind::Morphology, tenant,
                                  static_cast<Priority>((c + i) % 3));
        spec.scene.width = 10;
        spec.scene.height = 10;
        spec.scene.bands = 8;
        const auto sub = server.submit(spec);
        if (i % 3 == 0) server.cancel(sub.id);
        (void)server.result(sub.id);
        std::lock_guard<std::mutex> lk(ids_mu);
        ids.push_back(sub.id);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kClients * kPerClient));
  for (const std::uint64_t id : ids) {
    const JobResult r = server.wait(id);
    EXPECT_TRUE(is_terminal(r.state)) << to_string(r.state);
    if (r.state == JobState::Done) {
      EXPECT_NE(r.output_hash, 0u);
      EXPECT_TRUE(r.mei.empty()) << "keep_payloads=false drops payloads";
    }
  }
}

// ---------------------------------------------------------------------------
// Estimation.

TEST(ServeEstimate, ScalesWithSceneAndReadsEnviHeaders) {
  const JobSpec small = small_spec(JobKind::Morphology, "s");
  JobSpec big = small;
  big.scene.width *= 4;
  big.scene.height *= 4;
  const JobEstimate es = estimate_job(small);
  const JobEstimate eb = estimate_job(big);
  EXPECT_EQ(es.pixels, 12u * 10u);
  EXPECT_GT(eb.bytes, es.bytes);
  EXPECT_GT(eb.seconds, es.seconds);

  // Classify adds the unmixing term on top of morphology.
  JobSpec classify = small;
  classify.kind = JobKind::Classify;
  EXPECT_GT(estimate_job(classify).seconds, es.seconds);

  // ENVI scenes are estimated from the header, overriding the synthetic
  // dimensions in the spec.
  const std::string base = testing::TempDir() + "hs_serve_est";
  hsi::SceneConfig cfg;
  cfg.width = 9;
  cfg.height = 9;
  cfg.bands = 8;
  hsi::write_envi(hsi::generate_indian_pines_scene(cfg).cube, base);
  JobSpec envi = small;
  envi.scene.envi_path = base + ".hdr";
  EXPECT_EQ(estimate_job(envi).pixels, 81u);

  JobSpec bad = small;
  bad.scene.width = 0;
  bad.scene.envi_path.clear();
  EXPECT_THROW(estimate_job(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Observability (counters exist only in HS_TRACE=ON builds).

#if HS_TRACE_ENABLED

TEST(ServeTraceIntegration, CountersGaugesAndSpansTrackOutcomes) {
  trace::reset();
  trace::set_enabled(true);
  {
    ServerOptions options;
    options.admission.max_estimated_bytes = 1024;
    Server server(options);
    const auto rejected = server.submit(small_spec(JobKind::Morphology, "r"));
    EXPECT_FALSE(rejected.admitted);

    ServerOptions ok;
    Server worker(ok);
    const auto done = worker.submit(small_spec(JobKind::Morphology, "d"));
    worker.wait(done.id);
    worker.shutdown(/*drain=*/true);
    server.shutdown(/*drain=*/true);
  }
  trace::set_enabled(false);

  EXPECT_EQ(trace::counter("serve.jobs.submitted").value(), 2u);
  EXPECT_EQ(trace::counter("serve.jobs.rejected").value(), 1u);
  EXPECT_EQ(trace::counter("serve.jobs.done").value(), 1u);
  EXPECT_EQ(trace::gauge("serve.queue_depth").value(), 0.0);
  EXPECT_EQ(trace::gauge("serve.in_flight").value(), 0.0);

  const auto events = trace::snapshot();
  bool saw_job_span = false;
  for (const auto& e : events) {
    if (e.name == "serve.job" && e.cat == "serve") saw_job_span = true;
  }
  EXPECT_TRUE(saw_job_span);
}

/// Job `i` of a mixed Morphology/Classify/Unmix burst at mixed priorities.
JobSpec mixed_spec(int i) {
  static constexpr JobKind kKinds[] = {JobKind::Morphology, JobKind::Classify,
                                       JobKind::Unmix};
  JobSpec spec = small_spec(kKinds[i % 3], "mix-" + std::to_string(i),
                            static_cast<Priority>(i % 3));
  spec.scene.seed = static_cast<std::uint64_t>(60 + i % 4);
  return spec;
}

/// Submits `jobs` mixed jobs in one burst, drains, and returns the results
/// of the jobs that finished Done.
std::vector<JobResult> drain_mixed_batch(const ServerOptions& options,
                                         int jobs) {
  Server server(options);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < jobs; ++i) ids.push_back(server.submit(mixed_spec(i)).id);
  server.shutdown(/*drain=*/true);
  std::vector<JobResult> done;
  for (const std::uint64_t id : ids) {
    JobResult r = server.wait(id);
    if (r.state == JobState::Done) done.push_back(std::move(r));
  }
  return done;
}

TEST(ServeTraceIntegration, WitnessesIdenticalWithTracingOnAndOff) {
  // Telemetry must never perturb functional outputs: every job's witness
  // is the same with runtime tracing off and on, at every worker count.
  constexpr int kJobs = 9;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ServerOptions options;
    options.workers = workers;
    options.keep_payloads = false;
    std::map<std::string, std::uint64_t> witness[2];
    for (const bool traced : {false, true}) {
      trace::reset();
      trace::set_enabled(traced);
      for (const JobResult& r : drain_mixed_batch(options, kJobs)) {
        witness[traced][r.name] = r.output_hash;
      }
      trace::set_enabled(false);
      EXPECT_EQ(trace::event_count() > 0, traced) << "workers " << workers;
    }
    EXPECT_EQ(witness[false].size(), static_cast<std::size_t>(kJobs))
        << "workers " << workers;
    EXPECT_EQ(witness[true], witness[false]) << "workers " << workers;
  }
}

/// The ceil(q*n)-th smallest sample: the rank HistogramSnapshot::quantile
/// locates, so the two agree to within that sample's bucket width.
double rank_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

TEST(ServeTraceIntegration, TotalLatencyHistogramMatchesExactPercentiles) {
  trace::reset_histograms();
  ServerOptions options;
  options.workers = 2;
  options.keep_payloads = false;
  // The burst overflows the queue, so only the Done jobs may be counted.
  options.admission.max_queue_depth = 4;
  const std::vector<JobResult> done = drain_mixed_batch(options, 16);
  ASSERT_FALSE(done.empty());
  std::vector<double> total_s;
  for (const JobResult& r : done) {
    total_s.push_back(r.queue_seconds + r.run_seconds);
  }

  trace::HistogramSnapshot hist;
  for (auto& [name, snap] : trace::histograms_snapshot()) {
    if (name == "serve.total_s") hist = std::move(snap);
  }
  EXPECT_EQ(hist.count, done.size());
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = rank_percentile(total_s, q);
    EXPECT_NEAR(hist.quantile(q), exact,
                trace::Histogram::bucket_width_at(exact))
        << "q = " << q;
  }
}

#endif  // HS_TRACE_ENABLED

// ---------------------------------------------------------------------------
// Per-job timelines, exec accounting, retry backoff, flight dumps. These
// are plain serve-layer behaviour, exact in every build (independent of
// whether HS_TRACE instrumentation is compiled in).

std::vector<std::string> timeline_whats(const JobResult& r) {
  std::vector<std::string> whats;
  for (const auto& ev : r.timeline) whats.push_back(ev.what);
  return whats;
}

bool timeline_has(const JobResult& r, std::string_view what) {
  for (const auto& ev : r.timeline) {
    if (ev.what == what) return true;
  }
  return false;
}

TEST(ServeTimeline, DoneJobRecordsLifecycleInOrder) {
  ServerOptions options;
  Server server(options);
  const auto sub = server.submit(small_spec(JobKind::Morphology, "tl"));
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(res.state, JobState::Done) << res.detail;
  const auto whats = timeline_whats(res);
  ASSERT_GE(whats.size(), 4u);
  EXPECT_EQ(whats.front(), "submitted");
  EXPECT_TRUE(timeline_has(res, "dequeued"));
  EXPECT_TRUE(timeline_has(res, "attempt"));
  EXPECT_EQ(whats.back(), "terminal");
  EXPECT_EQ(res.timeline.back().detail, "done");
  // Submission-relative and monotonic.
  EXPECT_EQ(res.timeline.front().t_seconds, 0.0);
  for (std::size_t i = 1; i < res.timeline.size(); ++i) {
    EXPECT_LE(res.timeline[i - 1].t_seconds, res.timeline[i].t_seconds) << i;
  }
  // Without backoff sleeps, exec time is the whole run.
  EXPECT_GT(res.exec_seconds, 0.0);
  EXPECT_LE(res.exec_seconds, res.run_seconds + 1e-9);

  // The timeline exports as a valid hs.timeline.v1 document.
  std::ostringstream os;
  write_timeline_json(os, res);
  std::string error;
  EXPECT_TRUE(trace::json::validate_timeline_json(os.str(), &error))
      << error << "\n" << os.str();
}

TEST(ServeTimeline, RejectedJobTerminalizesWithValidTimeline) {
  ServerOptions options;
  options.admission.max_estimated_bytes = 1024;
  Server server(options);
  const auto sub = server.submit(small_spec(JobKind::Morphology, "rej"));
  EXPECT_FALSE(sub.admitted);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  EXPECT_EQ(res.state, JobState::Rejected);
  EXPECT_TRUE(timeline_has(res, "terminal"));
  std::ostringstream os;
  write_timeline_json(os, res);
  std::string error;
  EXPECT_TRUE(trace::json::validate_timeline_json(os.str(), &error)) << error;
}

TEST(ServeTimeline, RetryMarksFaultsAndBackoffExcludedFromExec) {
  ServerOptions options;
  options.retry_backoff_seconds = 0.005;
  options.inject_fault = [](std::uint64_t, int attempt) {
    return attempt <= 2;  // two faults, done on the third attempt
  };
  Server server(options);
  JobSpec spec = small_spec(JobKind::Morphology, "backoff");
  spec.max_retries = 2;
  const auto sub = server.submit(spec);
  const JobResult res = server.wait(sub.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(res.state, JobState::Done) << res.detail;
  EXPECT_EQ(res.attempts, 3);
  // Timeline: one fault + one backoff mark per consumed retry, and one
  // attempt mark per attempt.
  int faults = 0, backoffs = 0, attempts = 0;
  for (const auto& ev : res.timeline) {
    if (ev.what == "fault") ++faults;
    if (ev.what == "backoff") ++backoffs;
    if (ev.what == "attempt") ++attempts;
  }
  EXPECT_EQ(faults, 2);
  EXPECT_EQ(backoffs, 2);
  EXPECT_EQ(attempts, 3);
  // Exponential schedule: 5 ms + 10 ms of sleeps excluded from exec time.
  EXPECT_GE(res.run_seconds - res.exec_seconds, 0.012);
  EXPECT_GT(res.exec_seconds, 0.0);
}

TEST(ServeFlightDump, FailedJobDumpsAndDoneJobDoesNot) {
  const std::string dir = ::testing::TempDir() + "/hs_flight_dump_test";
  std::filesystem::create_directories(dir);
  ServerOptions options;
  options.flight_dump_dir = dir;
  options.inject_fault = [](std::uint64_t id, int) { return id == 1; };
  Server server(options);
  const auto doomed = server.submit(small_spec(JobKind::Morphology, "boom"));
  const auto fine = server.submit(small_spec(JobKind::Morphology, "ok"));
  const JobResult doomed_res = server.wait(doomed.id);
  const JobResult fine_res = server.wait(fine.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(doomed_res.state, JobState::Failed);
  ASSERT_EQ(fine_res.state, JobState::Done) << fine_res.detail;

  const std::string doomed_path =
      dir + "/flight_job" + std::to_string(doomed.id) + ".json";
  const std::string fine_path =
      dir + "/flight_job" + std::to_string(fine.id) + ".json";
  std::ifstream in(doomed_path);
  ASSERT_TRUE(in.good()) << doomed_path;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  EXPECT_TRUE(trace::json::validate_flight_json(ss.str(), &error))
      << error << "\n" << ss.str();
  EXPECT_FALSE(std::ifstream(fine_path).good());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hs::serve
