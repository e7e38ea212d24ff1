// Soak battery: a long-running front door must hold memory steady however
// many requests it serves. Tens of thousands of cached requests go over
// loopback TCP through net::Client into (a) an in-process NetServer over a
// serve::Server and (b) a NetServer over a shard::Router with two real
// hsi-served --worker processes. After a warm-up, VmRSS growth per request
// must stay under kMaxGrowthBytesPerRequest in every process: the backend
// retires each job's record once its on_terminal hook has delivered it,
// and spans are not recorded unless asked for. The end state is checked
// too: with the front door's hook installed, results() is empty after the
// drain; with no hook, the backend still returns every job; every Done
// witness equals the in-process baseline.
//
// Under AddressSanitizer or ThreadSanitizer freed memory is quarantined
// or shadowed rather than reused, so RSS grows per request by design; those
// builds run the same traffic and end-state checks but not the RSS bound.
// tests/CMakeLists.txt labels this binary `soak`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/net_server.hpp"
#include "net/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "shard/router.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HS_SOAK_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HS_SOAK_SANITIZED 1
#endif
#endif

namespace hs {
namespace {

#ifdef HS_SOAK_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr std::size_t kWarmRequests = 4000;
constexpr std::size_t kMeasuredRequests = 20000;
/// Per-request record retention measured 737-785 B before records were
/// retired; a bounded server sits near zero.
constexpr double kMaxGrowthBytesPerRequest = 64;
/// Requests kept in flight on the one connection (below the front door's
/// per-connection cap of 32, so flow control never pauses it).
constexpr std::size_t kWindow = 16;

long vm_rss_kb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

void expect_flat(const std::string& who, long before_kb, long after_kb,
                 std::uint64_t requests) {
  ASSERT_GT(before_kb, 0) << who;
  ASSERT_GT(after_kb, 0) << who;
  ASSERT_GT(requests, 0u) << who;
  const double per_request = static_cast<double>(after_kb - before_kb) *
                             1024.0 / static_cast<double>(requests);
  std::cout << "[ soak ] " << who << ": VmRSS " << before_kb << " -> "
            << after_kb << " kB over " << requests << " requests ("
            << per_request << " B/request)\n";
  if (kSanitized) return;  // see the file comment
  EXPECT_LT(per_request, kMaxGrowthBytesPerRequest) << who;
}

serve::JobSpec hot_spec(int i) {
  serve::JobSpec s;
  s.name = "soak-" + std::to_string(i);
  s.kind = i % 2 == 0 ? serve::JobKind::Morphology : serve::JobKind::Classify;
  s.scene.width = 16;
  s.scene.height = 16;
  s.scene.bands = 8;
  s.scene.seed = 500 + i;
  s.se_radius = 1;
  s.endmembers = 3;
  s.workers = 1;
  return s;
}

serve::ServerOptions server_options() {
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.keep_payloads = false;
  opt.result_cache_bytes = 16u << 20;
  opt.scene_cache_bytes = 16u << 20;
  return opt;
}

/// name -> output_hash from a hook-less in-process Server: the witness the
/// served results must reproduce. Without a hook every record stays, so
/// results() returns every job.
std::map<std::string, std::uint64_t> baseline_hashes(
    const std::vector<serve::JobSpec>& specs) {
  serve::Server server(server_options());
  for (const serve::JobSpec& s : specs) server.submit(s);
  server.shutdown(/*drain=*/true);
  const std::vector<serve::JobResult> results = server.results();
  EXPECT_EQ(results.size(), specs.size());
  std::map<std::string, std::uint64_t> hashes;
  for (const serve::JobResult& r : results) {
    EXPECT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    hashes[r.name] = r.output_hash;
  }
  return hashes;
}

/// Pipelined request loop over one connection: cycles through `specs`,
/// keeps kWindow requests in flight, and tallies every terminal frame.
/// It keeps counters only, so the test process itself stays flat.
class RequestLoop {
 public:
  RequestLoop(net::Client& client, const std::vector<serve::JobSpec>& specs,
         const std::map<std::string, std::uint64_t>& expected)
      : client_(client), specs_(specs), expected_(expected) {}

  /// Sends `count` more requests and returns once all are answered.
  void run(std::size_t count) {
    std::string error;
    std::size_t sent = 0, answered = 0;
    while (answered < count) {
      while (sent < count && sent - answered < kWindow) {
        const serve::JobSpec& spec = specs_[next_id_ % specs_.size()];
        ASSERT_TRUE(client_.send_line(serve::to_request_line(spec, next_id_),
                                      &error))
            << error;
        ++next_id_;
        ++sent;
      }
      const auto frame = client_.read_frame(30.0, &error);
      ASSERT_TRUE(frame.has_value()) << error;
      const auto resp = net::parse_response_frame(*frame);
      ASSERT_TRUE(resp.has_value()) << *frame;
      if (!resp->terminal()) continue;
      ++answered;
      if (resp->type != "result" || resp->state != "done") {
        ++not_done;
        continue;
      }
      ++done;
      if (resp->cached) ++cached;
      const auto hash = net::parse_output_hash(resp->output_hash);
      const auto want = expected_.find(resp->name);
      if (!hash || want == expected_.end() || *hash != want->second) {
        ++mismatches;
      }
    }
  }

  std::uint64_t done = 0, not_done = 0, cached = 0, mismatches = 0;

 private:
  net::Client& client_;
  const std::vector<serve::JobSpec>& specs_;
  const std::map<std::string, std::uint64_t>& expected_;
  std::uint64_t next_id_ = 1;
};

void connect(net::Client& client, int port) {
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", port, &error)) << error;
  const auto hello = client.read_frame(10.0, &error);
  ASSERT_TRUE(hello.has_value()) << error;
  ASSERT_EQ(net::parse_response_frame(*hello)->type, "hello");
}

TEST(Soak, InProcessFrontDoorMemoryIsFlat) {
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 8; ++i) specs.push_back(hot_spec(i));
  const auto expected = baseline_hashes(specs);
  const int self = static_cast<int>(::getpid());

  serve::Server server(server_options());
  long before = 0, after = 0;
  {
    net::NetServer front(server, net::NetServerOptions{});
    front.start();
    net::Client client;
    ASSERT_NO_FATAL_FAILURE(connect(client, front.port()));
    RequestLoop traffic(client, specs, expected);
    ASSERT_NO_FATAL_FAILURE(traffic.run(kWarmRequests));
    before = vm_rss_kb(self);
    ASSERT_NO_FATAL_FAILURE(traffic.run(kMeasuredRequests));
    after = vm_rss_kb(self);
    client.close();
    front.stop(/*drain=*/true);

    const std::uint64_t total = kWarmRequests + kMeasuredRequests;
    EXPECT_EQ(traffic.done, total);
    EXPECT_EQ(traffic.not_done, 0u);
    EXPECT_EQ(traffic.mismatches, 0u);
    EXPECT_GE(traffic.cached, total - specs.size());
    // The front door's hook took every result, so nothing is retained,
    // while the counters still account for every job.
    EXPECT_TRUE(server.results().empty());
    const serve::Server::Stats st = server.stats();
    EXPECT_EQ(st.submitted, total);
    EXPECT_EQ(st.done, total);
    EXPECT_EQ(st.terminal(), total);
    EXPECT_EQ(st.cached, traffic.cached);
  }
  expect_flat("in-process server", before, after, kMeasuredRequests);

  // Front door gone, hook detached: records stay again, so a library
  // caller sees every job it submits.
  std::vector<std::uint64_t> ids;
  for (const serve::JobSpec& s : specs) ids.push_back(server.submit(s).id);
  server.shutdown(/*drain=*/true);
  EXPECT_EQ(server.results().size(), specs.size());
  for (const std::uint64_t id : ids) {
    const serve::JobResult r = server.wait(id);
    ASSERT_EQ(r.state, serve::JobState::Done) << r.detail;
    EXPECT_EQ(r.output_hash, expected.at(r.name)) << r.name;
  }
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/hs_soak_test_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Soak, ShardedFrontDoorMemoryIsFlat) {
  TempDir dir;
  shard::RouterOptions opt;
  opt.shards = 2;
  opt.worker_cmd = HSI_SERVED_BIN;
  opt.state_dir = dir.path() + "/state";
  opt.worker_cache_mb = 16;
  shard::Router router(opt);
  router.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (router.alive_shards() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ::usleep(10000);
  }
  ASSERT_EQ(router.alive_shards(), 2u);

  // Four hot specs homed on each shard, so both worker processes serve
  // a share of the traffic.
  std::vector<serve::JobSpec> specs;
  std::size_t per_shard[2] = {0, 0};
  for (int i = 0; specs.size() < 8 && i < 200; ++i) {
    const serve::JobSpec s = hot_spec(i);
    std::size_t& n = per_shard[router.shard_for(s)];
    if (n < 4) {
      ++n;
      specs.push_back(s);
    }
  }
  ASSERT_EQ(specs.size(), 8u);
  const auto expected = baseline_hashes(specs);

  const std::vector<shard::Router::ShardStats> start = router.shard_stats();
  ASSERT_EQ(start.size(), 2u);
  const int self = static_cast<int>(::getpid());
  std::vector<int> pids = {self, start[0].pid, start[1].pid};
  std::vector<long> before(3), after(3);
  std::vector<std::uint64_t> routed_before(2), routed_after(2);
  {
    net::NetServer front(router, net::NetServerOptions{});
    front.start();
    net::Client client;
    ASSERT_NO_FATAL_FAILURE(connect(client, front.port()));
    RequestLoop traffic(client, specs, expected);
    ASSERT_NO_FATAL_FAILURE(traffic.run(kWarmRequests));
    for (std::size_t p = 0; p < pids.size(); ++p) before[p] = vm_rss_kb(pids[p]);
    const auto mid = router.shard_stats();
    ASSERT_NO_FATAL_FAILURE(traffic.run(kMeasuredRequests));
    for (std::size_t p = 0; p < pids.size(); ++p) after[p] = vm_rss_kb(pids[p]);
    const auto end = router.shard_stats();
    for (std::size_t k = 0; k < 2; ++k) {
      // Same process throughout: no death, no respawn.
      ASSERT_EQ(end[k].pid, pids[k + 1]);
      routed_before[k] = mid[k].routed;
      routed_after[k] = end[k].routed;
    }
    client.close();
    front.stop(/*drain=*/true);

    const std::uint64_t total = kWarmRequests + kMeasuredRequests;
    EXPECT_EQ(traffic.done, total);
    EXPECT_EQ(traffic.not_done, 0u);
    EXPECT_EQ(traffic.mismatches, 0u);
    EXPECT_GE(traffic.cached, total - specs.size());
    EXPECT_TRUE(router.results().empty());
    const shard::Router::Stats st = router.stats();
    EXPECT_EQ(st.submitted, total);
    EXPECT_EQ(st.completed, total);
    EXPECT_EQ(st.terminal(), total);
    EXPECT_EQ(st.deaths, 0u);
  }
  expect_flat("router process", before[0], after[0], kMeasuredRequests);
  for (std::size_t k = 0; k < 2; ++k) {
    expect_flat("shard " + std::to_string(k), before[k + 1], after[k + 1],
                routed_after[k] - routed_before[k]);
  }

  // Front door gone, hook detached: the router keeps records again.
  std::vector<std::uint64_t> ids;
  for (const serve::JobSpec& s : specs) ids.push_back(router.submit(s).id);
  router.shutdown(/*drain=*/true);
  EXPECT_EQ(router.results().size(), specs.size());
  for (const std::uint64_t id : ids) {
    const serve::JobResult r = router.wait(id);
    ASSERT_EQ(r.state, serve::JobState::Done) << r.detail;
    EXPECT_EQ(r.output_hash, expected.at(r.name)) << r.name;
  }
}

}  // namespace
}  // namespace hs
