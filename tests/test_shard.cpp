// The sharded serving tier battery: consistent-hash ring properties
// (distribution, bounded remap on growth, dead-shard fallback), request
// serialization round-trips (to_request_line inverts the parsers and
// preserves the job fingerprint), ENVI content-hash fingerprinting, and
// Router end-to-end runs against real hsi-served --worker processes
// (witness parity with the in-process server, kill-mid-job reroute,
// all-shards-down 429s, graceful drain). The e2e suite fork/execs the
// hsi-served binary baked in via HSI_SERVED_BIN; tests/CMakeLists.txt
// labels the whole binary `shard`.
#include "shard/router.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/server.hpp"
#include "shard/ring.hpp"
#include "util/rng.hpp"

namespace hs::shard {
namespace {

// ---------------------------------------------------------------------------
// HashRing

TEST(ShardRing, EveryShardGetsAFairShare) {
  HashRing ring(64);
  for (std::uint32_t s = 0; s < 4; ++s) ring.add(s);
  std::map<std::uint32_t, int> counts;
  util::SplitMix64 keys(42);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const auto shard = ring.pick(keys.next());
    ASSERT_TRUE(shard.has_value());
    ++counts[*shard];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, n / 20) << "shard " << shard << " starved";
  }
}

TEST(ShardRing, StablePicksForEqualKeys) {
  HashRing ring(64);
  for (std::uint32_t s = 0; s < 3; ++s) ring.add(s);
  util::SplitMix64 keys(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t key = keys.next();
    EXPECT_EQ(ring.pick(key), ring.pick(key));
  }
}

TEST(ShardRing, GrowthRemapsBoundedFractionAndOnlyToNewShard) {
  HashRing ring(64);
  ring.add(0);
  ring.add(1);
  std::vector<std::uint64_t> keys;
  util::SplitMix64 gen(9);
  for (int i = 0; i < 10000; ++i) keys.push_back(gen.next());
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (const std::uint64_t key : keys) before.push_back(*ring.pick(key));
  ring.add(2);
  int moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t now = *ring.pick(keys[i]);
    if (now != before[i]) {
      ++moved;
      // Consistent hashing's defining property: a new shard only steals
      // keys for itself; nothing shuffles between the survivors.
      EXPECT_EQ(now, 2u);
    }
  }
  // Expected ~1/3; a full reshuffle would move ~2/3.
  EXPECT_LT(moved, static_cast<int>(keys.size()) / 2);
  EXPECT_GT(moved, static_cast<int>(keys.size()) / 10);
}

TEST(ShardRing, DeadShardFallsToNextAndComesBack) {
  HashRing ring(64);
  for (std::uint32_t s = 0; s < 3; ++s) ring.add(s);
  util::SplitMix64 gen(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = gen.next();
    const std::uint32_t home = *ring.pick(key);
    const auto fallback =
        ring.pick(key, [home](std::uint32_t s) { return s != home; });
    ASSERT_TRUE(fallback.has_value());
    EXPECT_NE(*fallback, home);
    // Deterministic fallback, and the key returns home once it is alive.
    EXPECT_EQ(fallback,
              ring.pick(key, [home](std::uint32_t s) { return s != home; }));
    EXPECT_EQ(*ring.pick(key), home);
  }
}

TEST(ShardRing, EmptyOrFullyDeadRingPicksNothing) {
  HashRing ring(8);
  EXPECT_FALSE(ring.pick(123).has_value());
  ring.add(0);
  ring.add(1);
  EXPECT_FALSE(ring.pick(123, [](std::uint32_t) { return false; }).has_value());
  ring.remove(0);
  ring.remove(1);
  EXPECT_FALSE(ring.pick(123).has_value());
}

// ---------------------------------------------------------------------------
// to_request_line round trips

serve::JobSpec varied_spec(int i) {
  serve::JobSpec s;
  s.name = "job \"q\" #" + std::to_string(i);  // exercises escaping
  s.kind = i % 3 == 0   ? serve::JobKind::Morphology
           : i % 3 == 1 ? serve::JobKind::Classify
                        : serve::JobKind::Unmix;
  s.priority = i % 2 == 0 ? serve::Priority::High : serve::Priority::Low;
  s.deadline_seconds = i % 4 == 0 ? 0.25 * (i + 1) : 0;
  s.max_retries = i % 5;
  s.scene.width = 16 + i;
  s.scene.height = 12 + i;
  s.scene.bands = 8 + (i % 3);
  s.scene.seed = 100 + i;
  s.se_radius = 1 + (i % 2);
  s.endmembers = 3 + (i % 4);
  s.workers = 1 + (i % 3);
  s.chunk_texel_budget = i % 2 == 0 ? 256 : 0;
  s.half_precision = i % 2 == 1;
  return s;
}

TEST(ShardRequest, RoundTripPreservesEveryFieldAndTheFingerprint) {
  for (int i = 0; i < 12; ++i) {
    const serve::JobSpec spec = varied_spec(i);
    const std::string line = serve::to_request_line(spec);
    std::string error;
    const auto parsed = serve::parse_request_line(line, &error);
    ASSERT_TRUE(parsed.has_value()) << line << " -- " << error;
    EXPECT_EQ(parsed->name, spec.name);
    EXPECT_EQ(parsed->kind, spec.kind);
    EXPECT_EQ(parsed->priority, spec.priority);
    EXPECT_DOUBLE_EQ(parsed->deadline_seconds, spec.deadline_seconds);
    EXPECT_EQ(parsed->max_retries, spec.max_retries);
    EXPECT_EQ(parsed->scene.width, spec.scene.width);
    EXPECT_EQ(parsed->scene.height, spec.scene.height);
    EXPECT_EQ(parsed->scene.bands, spec.scene.bands);
    EXPECT_EQ(parsed->scene.seed, spec.scene.seed);
    EXPECT_EQ(parsed->half_precision, spec.half_precision);
    EXPECT_EQ(serve::job_fingerprint(*parsed), serve::job_fingerprint(spec))
        << line;
  }
}

TEST(ShardRequest, FrameModeCarriesTheClientId) {
  const serve::JobSpec spec = varied_spec(3);
  const std::string line = serve::to_request_line(spec, 777);
  std::string error;
  const auto parsed = serve::parse_request_frame(line, &error);
  ASSERT_TRUE(parsed.has_value()) << line << " -- " << error;
  EXPECT_TRUE(parsed->has_client_id);
  EXPECT_EQ(parsed->client_id, 777u);
  EXPECT_EQ(serve::job_fingerprint(parsed->spec), serve::job_fingerprint(spec));
  // File mode must keep rejecting "id" lines.
  EXPECT_FALSE(serve::parse_request_line(line).has_value());
}

TEST(ShardRequest, ParseJobStateInvertsToString) {
  for (serve::JobState s :
       {serve::JobState::Queued, serve::JobState::Running,
        serve::JobState::Done, serve::JobState::Failed,
        serve::JobState::Rejected, serve::JobState::TimedOut,
        serve::JobState::Cancelled}) {
    const auto parsed = serve::parse_job_state(serve::to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(serve::parse_job_state("sleeping").has_value());
  EXPECT_FALSE(serve::parse_job_state("").has_value());
}

// ---------------------------------------------------------------------------
// ENVI content-hash fingerprints

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/hs_shard_test_XXXXXX";
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

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

serve::JobSpec envi_spec(const std::string& hdr) {
  serve::JobSpec s;
  s.name = "envi";
  s.kind = serve::JobKind::Morphology;
  s.scene.envi_path = hdr;
  return s;
}

TEST(ShardEnviFingerprint, EqualContentHashesEqualAcrossPaths) {
  TempDir a, b;
  const std::string hdr = "ENVI\nsamples = 2\nlines = 2\nbands = 1\n";
  const std::string dat = "payload-bytes-0123";
  write_file(a.path() + "/cube.hdr", hdr);
  write_file(a.path() + "/cube.dat", dat);
  write_file(b.path() + "/other.hdr", hdr);
  write_file(b.path() + "/other.dat", dat);

  const serve::JobSpec sa = envi_spec(a.path() + "/cube.hdr");
  const serve::JobSpec sb = envi_spec(b.path() + "/other.hdr");
  EXPECT_TRUE(serve::is_cacheable(sa));
  EXPECT_TRUE(serve::is_cacheable(sb));
  // Identical bytes under different names: one fingerprint, one cache
  // entry, one home shard.
  EXPECT_EQ(serve::job_fingerprint(sa), serve::job_fingerprint(sb));
}

TEST(ShardEnviFingerprint, ContentChangeChangesTheFingerprint) {
  TempDir dir;
  const std::string hdr_path = dir.path() + "/cube.hdr";
  write_file(hdr_path, "ENVI\nsamples = 2\nlines = 2\nbands = 1\n");
  write_file(dir.path() + "/cube.dat", "payload-v1");
  const auto fp1 = serve::job_fingerprint(envi_spec(hdr_path));
  write_file(dir.path() + "/cube.dat", "payload-v2");
  const auto fp2 = serve::job_fingerprint(envi_spec(hdr_path));
  EXPECT_NE(fp1, fp2);
  // Same total length, different bytes -- the hash is content, not size.
  EXPECT_EQ(std::string("payload-v1").size(), std::string("payload-v2").size());
}

TEST(ShardEnviFingerprint, HeaderAndPayloadBoundaryIsUnambiguous) {
  // hdr="ab", dat="c" must not collide with hdr="a", dat="bc": the length
  // separator between the two streams keeps concatenations distinct.
  TempDir a, b;
  write_file(a.path() + "/c.hdr", "ab");
  write_file(a.path() + "/c.dat", "c");
  write_file(b.path() + "/c.hdr", "a");
  write_file(b.path() + "/c.dat", "bc");
  EXPECT_NE(serve::job_fingerprint(envi_spec(a.path() + "/c.hdr")),
            serve::job_fingerprint(envi_spec(b.path() + "/c.hdr")));
}

TEST(ShardEnviFingerprint, UnreadableFallsBackToPathIdentity) {
  const serve::JobSpec s1 = envi_spec("/no/such/a.hdr");
  const serve::JobSpec s2 = envi_spec("/no/such/b.hdr");
  EXPECT_FALSE(serve::is_cacheable(s1));
  EXPECT_FALSE(serve::scene_content_hash(s1.scene).has_value());
  EXPECT_NE(serve::job_fingerprint(s1), serve::job_fingerprint(s2));
  EXPECT_EQ(serve::job_fingerprint(s1), serve::job_fingerprint(s1));
}

// ---------------------------------------------------------------------------
// Router end-to-end (real hsi-served --worker processes)

serve::JobSpec work_spec(int i) {
  serve::JobSpec s;
  s.name = "e2e-" + std::to_string(i);
  s.kind = i % 3 == 0   ? serve::JobKind::Morphology
           : i % 3 == 1 ? serve::JobKind::Classify
                        : serve::JobKind::Unmix;
  s.scene.width = 24 + (i % 4) * 4;
  s.scene.height = 20 + (i % 3) * 4;
  s.scene.bands = 8;
  s.scene.seed = 100 + i;
  s.se_radius = 1;
  s.endmembers = 3;
  s.workers = 1;
  return s;
}

/// name -> output_hash from an in-process serve::Server run of the same
/// specs: the single-process witness the sharded tier must reproduce.
std::map<std::string, std::uint64_t> baseline_hashes(
    const std::vector<serve::JobSpec>& specs) {
  serve::ServerOptions opt;
  opt.workers = 1;
  serve::Server server(opt);
  for (const serve::JobSpec& s : specs) server.submit(s);
  server.shutdown(/*drain=*/true);
  std::map<std::string, std::uint64_t> hashes;
  for (const serve::JobResult& r : server.results()) {
    EXPECT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    hashes[r.name] = r.output_hash;
  }
  return hashes;
}

RouterOptions e2e_options(const TempDir& dir, std::size_t shards) {
  RouterOptions opt;
  opt.shards = shards;
  opt.worker_cmd = HSI_SERVED_BIN;
  opt.state_dir = dir.path() + "/state";
  opt.worker_cache_mb = 16;
  return opt;
}

/// Router::start() returns once one shard is up, while jobs route (and
/// restart_shard() acts) only on shards that are Up. Waits up to 20 s for
/// `n` shards to be up and returns how many are.
std::size_t wait_for_shards(const Router& router, std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (router.alive_shards() < n &&
         std::chrono::steady_clock::now() < deadline) {
    ::usleep(10000);
  }
  return router.alive_shards();
}

TEST(ShardRouterE2E, TwoShardsMatchTheSingleProcessWitness) {
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 18; ++i) specs.push_back(work_spec(i));
  const auto expected = baseline_hashes(specs);

  TempDir dir;
  Router router(e2e_options(dir, 2));
  router.start();
  // Otherwise a slow spawn sends every job to the first shard and the
  // both-shards-worked check below fails.
  ASSERT_EQ(wait_for_shards(router, 2), 2u);
  std::vector<std::uint64_t> ids;
  for (const serve::JobSpec& s : specs) {
    const serve::Submitted sub = router.submit(s);
    EXPECT_TRUE(sub.admitted) << sub.detail;
    ids.push_back(sub.id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const serve::JobResult r = router.wait(ids[i]);
    ASSERT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    EXPECT_EQ(r.output_hash, expected.at(r.name)) << r.name;
  }
  router.shutdown(/*drain=*/true);

  // Both shards did real work, and the stats add up.
  const Router::Stats st = router.stats();
  EXPECT_EQ(st.submitted, specs.size());
  EXPECT_EQ(st.completed, specs.size());
  EXPECT_EQ(st.deaths, 0u);
  std::size_t shards_used = 0;
  for (const Router::ShardStats& s : router.shard_stats()) {
    if (s.done > 0) ++shards_used;
  }
  EXPECT_EQ(shards_used, 2u);
}

TEST(ShardRouterE2E, EqualFingerprintsRouteToOneShardAndHitItsCache) {
  // 4 distinct specs, submitted 4 times each: affinity sends repeats to
  // their home shard, whose result cache serves them.
  std::vector<serve::JobSpec> pool;
  for (int i = 0; i < 4; ++i) {
    serve::JobSpec s = work_spec(i);
    s.name = "repeat-" + std::to_string(i);  // name is not in the digest
    pool.push_back(s);
  }
  TempDir dir;
  Router router(e2e_options(dir, 2));
  router.start();
  std::vector<std::uint64_t> ids;
  for (int round = 0; round < 4; ++round) {
    for (const serve::JobSpec& s : pool) ids.push_back(router.submit(s).id);
  }
  std::map<std::string, std::set<std::uint64_t>> hashes;
  std::uint64_t cached = 0;
  for (const std::uint64_t id : ids) {
    const serve::JobResult r = router.wait(id);
    ASSERT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    hashes[r.name].insert(r.output_hash);
    if (r.cached) ++cached;
  }
  router.shutdown(/*drain=*/true);
  for (const auto& [name, set] : hashes) {
    EXPECT_EQ(set.size(), 1u) << "witness drift for " << name;
  }
  // Every repeat beyond a spec's first serve can hit its home shard's
  // cache; demand at least half of them to allow for in-flight overlap.
  EXPECT_GE(cached, 6u);
  for (const serve::JobSpec& s : pool) {
    EXPECT_EQ(router.shard_for(s), router.shard_for(s));
  }
}

TEST(ShardRouterE2E, KilledShardReroutesWithoutDroppingJobs) {
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 24; ++i) specs.push_back(work_spec(i));
  const auto expected = baseline_hashes(specs);

  TempDir dir;
  RouterOptions opt = e2e_options(dir, 2);
  opt.flight_dump_dir = dir.path() + "/flight";
  std::filesystem::create_directories(opt.flight_dump_dir);
  Router router(opt);
  router.start();

  // SIGKILL shard 0, then submit immediately: the router has not yet seen
  // the death, so jobs homed on shard 0 are written into a dead socket and
  // must come back through the requeue path -- the deterministic
  // kill-mid-job scenario.
  ASSERT_TRUE(router.kill_shard(0));
  std::vector<std::uint64_t> ids;
  for (const serve::JobSpec& s : specs) ids.push_back(router.submit(s).id);
  for (const std::uint64_t id : ids) {
    const serve::JobResult r = router.wait(id);
    ASSERT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    EXPECT_EQ(r.output_hash, expected.at(r.name)) << r.name;
  }
  router.shutdown(/*drain=*/true);
  const Router::Stats st = router.stats();
  EXPECT_EQ(st.completed, specs.size());
  EXPECT_GE(st.deaths, 1u);
  EXPECT_GE(st.restarts, 1u);
}

TEST(ShardRouterE2E, AllShardsDownYieldsCleanRejectsNotHangs) {
  TempDir dir;
  RouterOptions opt = e2e_options(dir, 2);
  opt.max_restarts = 0;  // killed shards stay dead
  Router router(opt);
  router.start();
  // A shard killed while still starting is not Up, so the wait below
  // could end before the router has seen it die, and the submit would
  // park instead of being rejected.
  ASSERT_EQ(wait_for_shards(router, 2), 2u);

  ASSERT_TRUE(router.kill_shard(0));
  ASSERT_TRUE(router.kill_shard(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (router.alive_shards() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ::usleep(10000);
  }
  ASSERT_EQ(router.alive_shards(), 0u);

  const serve::Submitted sub = router.submit(work_spec(0));
  EXPECT_FALSE(sub.admitted);
  EXPECT_EQ(sub.state, serve::JobState::Rejected);
  const serve::JobResult r = router.wait(sub.id);
  EXPECT_EQ(r.state, serve::JobState::Rejected);
  EXPECT_EQ(r.detail, "no live shards");
  router.shutdown(/*drain=*/false);
  EXPECT_GE(router.stats().rejected, 1u);
}

TEST(ShardRouterE2E, GracefulDrainRestartsWithoutDeathsOrDrops) {
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 20; ++i) specs.push_back(work_spec(i));
  const auto expected = baseline_hashes(specs);

  TempDir dir;
  Router router(e2e_options(dir, 2));
  router.start();
  // restart_shard() refuses a shard that is still starting.
  ASSERT_EQ(wait_for_shards(router, 2), 2u);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(router.submit(specs[i]).id);
  ASSERT_TRUE(router.restart_shard(0));
  for (int i = 10; i < 20; ++i) ids.push_back(router.submit(specs[i]).id);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const serve::JobResult r = router.wait(ids[i]);
    ASSERT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    EXPECT_EQ(r.output_hash, expected.at(r.name)) << r.name;
  }
  router.shutdown(/*drain=*/true);
  const Router::Stats st = router.stats();
  EXPECT_EQ(st.completed, specs.size());
  EXPECT_EQ(st.deaths, 0u) << "graceful drain must not count as a death";
  EXPECT_GE(st.restarts, 1u);
}

TEST(ShardRouterE2E, ShutdownWithoutDrainCancelsOutstanding) {
  TempDir dir;
  Router router(e2e_options(dir, 1));
  router.start();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(router.submit(work_spec(i)).id);
  router.shutdown(/*drain=*/false);
  for (const std::uint64_t id : ids) {
    const serve::JobResult r = router.wait(id);
    EXPECT_TRUE(serve::is_terminal(r.state)) << r.name;
  }
  // Post-shutdown submissions terminalize instantly instead of queueing.
  const serve::Submitted late = router.submit(work_spec(9));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.state, serve::JobState::Rejected);
}

TEST(ShardRouterE2E, WaitOnUnknownIdThrowsLikeTheServer) {
  TempDir dir;
  Router router(e2e_options(dir, 1));
  EXPECT_THROW(router.wait(42), std::invalid_argument);
  serve::Server server(serve::ServerOptions{});
  EXPECT_THROW(server.wait(42), std::invalid_argument);
}

TEST(ShardRouterE2E, HookedRecordsRetireOnceDelivered) {
  TempDir dir;
  Router router(e2e_options(dir, 1));
  std::mutex mu;
  std::vector<serve::JobResult> delivered;
  router.set_on_terminal([&](const serve::JobResult& r) {
    std::lock_guard<std::mutex> lk(mu);
    delivered.push_back(r);
  });
  router.start();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(router.submit(work_spec(i)).id);
  router.shutdown(/*drain=*/true);
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(delivered.size(), ids.size());
    for (const serve::JobResult& r : delivered) {
      EXPECT_EQ(r.state, serve::JobState::Done) << r.name << ": " << r.detail;
    }
  }
  // The hook holds the only copy: nothing is retained, and waiting on a
  // delivered id is an error rather than a default-constructed result.
  EXPECT_TRUE(router.results().empty());
  for (const std::uint64_t id : ids) {
    EXPECT_FALSE(router.result(id).has_value());
    EXPECT_THROW(router.wait(id), std::invalid_argument);
  }
  const Router::Stats st = router.stats();
  EXPECT_EQ(st.submitted, ids.size());
  EXPECT_EQ(st.completed, ids.size());
  EXPECT_EQ(st.terminal(), ids.size());

  // Detached: a late (rejected) submission stays queryable again.
  router.set_on_terminal(nullptr);
  const serve::Submitted late = router.submit(work_spec(5));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(router.wait(late.id).state, serve::JobState::Rejected);
  EXPECT_EQ(router.results().size(), 1u);
}

/// One job through a router whose only shard is the scripted fake worker
/// answering with `hash` as the witness.
serve::JobResult run_with_fake_witness(const std::string& hash) {
  TempDir dir;
  RouterOptions opt = e2e_options(dir, 1);
  opt.worker_cmd = FAKE_SHARD_BIN;
  opt.worker_args = {"--hash", hash};
  opt.max_restarts = 0;
  Router router(opt);
  router.start();
  const serve::Submitted sub = router.submit(work_spec(0));
  EXPECT_TRUE(sub.admitted) << sub.detail;
  const serve::JobResult r = router.wait(sub.id);
  router.shutdown(/*drain=*/false);
  return r;
}

TEST(ShardRouterE2E, MalformedWitnessFailsTheJobNamingTheShard) {
  // Control: the fake's well-formed witness is forwarded as its value.
  const serve::JobResult good = run_with_fake_witness("00ABcdef12345678");
  EXPECT_EQ(good.state, serve::JobState::Done) << good.detail;
  EXPECT_EQ(good.output_hash, 0xabcdef12345678u);
  // strtoull would have turned these into 0, 0x12 and ULLONG_MAX.
  for (const std::string bad : {"", "12g", "1ffffffffffffffff"}) {
    const serve::JobResult r = run_with_fake_witness(bad);
    EXPECT_EQ(r.state, serve::JobState::Failed) << "'" << bad << "'";
    EXPECT_NE(r.detail.find("shard 0"), std::string::npos) << r.detail;
    EXPECT_NE(r.detail.find("malformed output_hash"), std::string::npos)
        << r.detail;
    EXPECT_EQ(r.output_hash, 0u);
  }
}

}  // namespace
}  // namespace hs::shard
