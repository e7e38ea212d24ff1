// Tests for the content-addressed caching layer (hs::cache) and its
// serve/gpusim integrations: canonical fingerprints, the byte-budgeted
// LRU, the scene memo cache, the server result cache (bit-identity of
// hits), and the cross-device SharedProgramStore. Suites are prefixed
// "Cache" so tools/check.sh runs them under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/lru.hpp"
#include "cache/result_cache.hpp"
#include "cache/scene_cache.hpp"
#include "core/amc_gpu.hpp"
#include "core/structuring_element.hpp"
#include "core/unmix_gpu.hpp"
#include "gpusim/assembler.hpp"
#include "gpusim/compiled_program.hpp"
#include "gpusim/soa_program.hpp"
#include "gpusim/device_profile.hpp"
#include "gpusim/gpu_device.hpp"
#include "hsi/synthetic.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace hs {
namespace {

// ---------------------------------------------------------------------------
// Fingerprints.

cache::Fingerprint fp_of_one(std::string_view name, std::string_view value) {
  return cache::Fingerprinter{}.field(name, value).finish();
}

TEST(CacheFingerprint, FieldBoundariesMatter) {
  // Length-prefixed encoding: moving a byte between the name and the
  // value must change the key.
  EXPECT_NE(fp_of_one("ab", "c"), fp_of_one("a", "bc"));
  EXPECT_NE(fp_of_one("a", ""), fp_of_one("", "a"));
}

TEST(CacheFingerprint, TypesAreTagged) {
  const auto as_int =
      cache::Fingerprinter{}.field("v", std::int64_t{1}).finish();
  const auto as_bool = cache::Fingerprinter{}.field("v", true).finish();
  const auto as_uint =
      cache::Fingerprinter{}.field("v", std::uint64_t{1}).finish();
  EXPECT_NE(as_int, as_bool);
  EXPECT_NE(as_int, as_uint);
}

TEST(CacheFingerprint, DigestIsFnv1aOverKey) {
  const auto fp = cache::Fingerprinter{}
                      .field("a", std::uint64_t{7})
                      .field("b", std::string_view("x"))
                      .finish();
  EXPECT_EQ(fp.digest, cache::fnv1a(fp.key.data(), fp.key.size()));
}

TEST(CacheFingerprint, NegativeZeroNormalized) {
  const auto pos = cache::Fingerprinter{}.field("d", 0.0).finish();
  const auto neg = cache::Fingerprinter{}.field("d", -0.0).finish();
  EXPECT_EQ(pos, neg);
}

serve::JobSpec cacheable_spec() {
  serve::JobSpec spec;
  spec.name = "job";
  spec.kind = serve::JobKind::Morphology;
  spec.scene.width = 12;
  spec.scene.height = 10;
  spec.scene.bands = 8;
  spec.scene.seed = 21;
  spec.se_radius = 1;
  spec.endmembers = 3;
  return spec;
}

TEST(CacheFingerprint, JobFingerprintIgnoresNonFunctionalFields) {
  const serve::JobSpec base = cacheable_spec();
  serve::JobSpec other = base;
  other.name = "different-name";
  other.priority = serve::Priority::High;
  other.deadline_seconds = 30;
  other.max_retries = 5;
  other.workers = 4;  // chunk-parallel determinism: outputs invariant
  EXPECT_EQ(serve::job_fingerprint(base), serve::job_fingerprint(other));
}

TEST(CacheFingerprint, JobFingerprintCoversFunctionalFields) {
  const serve::JobSpec base = cacheable_spec();
  const auto base_fp = serve::job_fingerprint(base);

  serve::JobSpec v = base;
  v.kind = serve::JobKind::Unmix;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
  v = base;
  v.scene.seed = 22;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
  v = base;
  v.scene.width = 13;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
  v = base;
  v.se_radius = 2;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
  v = base;
  v.endmembers = 4;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
  v = base;
  v.chunk_texel_budget = 256;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
  v = base;
  v.half_precision = true;
  EXPECT_NE(serve::job_fingerprint(v), base_fp);
}

TEST(CacheFingerprint, UnreadableEnviJobsAreNotCacheable) {
  // ENVI-backed jobs are cacheable when the whole file can be content-
  // hashed into the fingerprint (tests/test_shard.cpp covers that path);
  // an unreadable path falls back to path identity and stays uncacheable.
  serve::JobSpec spec = cacheable_spec();
  EXPECT_TRUE(serve::is_cacheable(spec));
  spec.scene.envi_path = "/no/such/cube.hdr";
  EXPECT_FALSE(serve::is_cacheable(spec));
}

// ---------------------------------------------------------------------------
// Byte-budgeted LRU.

cache::Fingerprint key_of(std::uint64_t n) {
  return cache::Fingerprinter{}.field("k", n).finish();
}

TEST(CacheLru, HitMissEvictionAndRecency) {
  // Entry cost = 100 (value) + 18 (key) + 64 (overhead) = 182.
  cache::ByteBudgetLru<int> lru("cache.test", 400);
  ASSERT_TRUE(lru.enabled());
  lru.put(key_of(1), 10, 100);
  lru.put(key_of(2), 20, 100);
  EXPECT_EQ(lru.stats().entries, 2u);

  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_EQ(lru.get(key_of(1)).value_or(-1), 10);
  lru.put(key_of(3), 30, 100);

  EXPECT_EQ(lru.get(key_of(1)).value_or(-1), 10);
  EXPECT_EQ(lru.get(key_of(3)).value_or(-1), 30);
  EXPECT_FALSE(lru.get(key_of(2)).has_value()) << "LRU entry evicted";

  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_LE(s.bytes, s.max_bytes);
}

TEST(CacheLru, ZeroBudgetDisablesEverything) {
  cache::ByteBudgetLru<int> lru("cache.test", 0);
  EXPECT_FALSE(lru.enabled());
  lru.put(key_of(1), 10, 1);
  EXPECT_FALSE(lru.get(key_of(1)).has_value());
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 0u);
}

TEST(CacheLru, OversizeEntriesAreDropped) {
  cache::ByteBudgetLru<int> lru("cache.test", 200);
  lru.put(key_of(1), 10, 100);
  lru.put(key_of(2), 20, 10'000);  // alone exceeds the whole budget
  EXPECT_FALSE(lru.get(key_of(2)).has_value());
  EXPECT_EQ(lru.get(key_of(1)).value_or(-1), 10) << "resident entry kept";
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.oversize, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(CacheLru, DuplicatePutRefreshesInsteadOfDuplicating) {
  cache::ByteBudgetLru<int> lru("cache.test", 1000);
  lru.put(key_of(1), 10, 10);
  lru.put(key_of(1), 10, 10);
  const cache::CacheStats s = lru.stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(CacheContention, EvictionUnderContentionStaysConsistent) {
  // A budget small enough that concurrent inserts constantly evict: the
  // invariant under ThreadSanitizer is no race and exact accounting.
  cache::ByteBudgetLru<int> lru("cache.test", 1200);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  std::atomic<int> observed_wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lru, &observed_wrong, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k =
            static_cast<std::uint64_t>((t * kOpsPerThread + i) % 13);
        if (const auto hit = lru.get(key_of(k))) {
          if (*hit != static_cast<int>(k)) observed_wrong.fetch_add(1);
        } else {
          lru.put(key_of(k), static_cast<int>(k), 150);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(observed_wrong.load(), 0);
  const cache::CacheStats s = lru.stats();
  EXPECT_LE(s.bytes, s.max_bytes);
  EXPECT_EQ(s.insertions - s.evictions, s.entries);
  EXPECT_GT(s.evictions, 0u) << "budget chosen to force eviction";
}

// ---------------------------------------------------------------------------
// Scene memo cache.

TEST(CacheScene, MemoizedCubeIsBitIdenticalToFreshGeneration) {
  cache::SceneCache scenes(16 << 20);
  const cache::SceneKey key{12, 10, 8, 21};
  const auto first = scenes.get_or_generate(key);
  const auto second = scenes.get_or_generate(key);
  EXPECT_EQ(first.get(), second.get()) << "second call is a memo hit";
  EXPECT_EQ(scenes.stats().hits, 1u);
  EXPECT_EQ(scenes.stats().misses, 1u);

  hsi::SceneConfig cfg;
  cfg.width = key.width;
  cfg.height = key.height;
  cfg.bands = key.bands;
  cfg.seed = key.seed;
  const hsi::HyperCube fresh = hsi::generate_indian_pines_scene(cfg).cube;
  ASSERT_EQ(first->raw().size(), fresh.raw().size());
  for (std::size_t i = 0; i < fresh.raw().size(); ++i) {
    ASSERT_EQ(first->raw()[i], fresh.raw()[i]) << "texel " << i;
  }
}

TEST(CacheScene, DistinctKeysYieldDistinctCubes) {
  cache::SceneCache scenes(16 << 20);
  const auto a = scenes.get_or_generate(cache::SceneKey{12, 10, 8, 21});
  const auto b = scenes.get_or_generate(cache::SceneKey{12, 10, 8, 22});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(serve::fnv1a(a->raw().data(), a->raw().size() * sizeof(float)),
            serve::fnv1a(b->raw().data(), b->raw().size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Server result cache.

/// The hash chain the server computes, recomputed from direct pipeline
/// calls (fnv1a over mei, db, then labels).
std::uint64_t direct_hash(const serve::JobSpec& spec) {
  hsi::SceneConfig cfg;
  cfg.width = spec.scene.width;
  cfg.height = spec.scene.height;
  cfg.bands = spec.scene.bands;
  cfg.seed = spec.scene.seed;
  const hsi::HyperCube cube = hsi::generate_indian_pines_scene(cfg).cube;
  core::AmcGpuOptions opt;
  opt.workers = spec.workers;
  opt.chunk_texel_budget = spec.chunk_texel_budget;
  opt.half_precision = spec.half_precision;
  std::uint64_t hash = serve::fnv1a(nullptr, 0);
  if (spec.kind != serve::JobKind::Unmix) {
    const auto report = core::morphology_gpu(
        cube, core::StructuringElement::square(spec.se_radius), opt);
    hash = serve::fnv1a(report.morph.mei.data(),
                        report.morph.mei.size() * sizeof(float), hash);
    hash = serve::fnv1a(report.morph.db.data(),
                        report.morph.db.size() * sizeof(float), hash);
  }
  if (spec.kind != serve::JobKind::Morphology) {
    const auto endmembers = serve::synthetic_endmembers(
        spec.endmembers, cube.bands(), spec.scene.seed);
    const auto report = core::unmix_gpu(cube, endmembers, opt);
    hash = serve::fnv1a(report.labels.data(),
                        report.labels.size() * sizeof(int), hash);
  }
  return hash;
}

}  // namespace

// Names the kind in ctest's parameter comment (ADL finds it here).
namespace serve {
void PrintTo(JobKind kind, std::ostream* os) { *os << to_string(kind); }
}  // namespace serve

namespace {

/// The result cache's witness contract: a second submission of `kind` is a
/// cache hit whose output is bit-identical to the live run and the witness.
void expect_second_submission_cached(serve::JobKind kind) {
  serve::ServerOptions options;
  options.result_cache_bytes = 8 << 20;
  options.scene_cache_bytes = 8 << 20;
  serve::Server server(options);

  serve::JobSpec spec = cacheable_spec();
  spec.kind = kind;
  const auto first = server.submit(spec);
  ASSERT_TRUE(first.admitted);
  const serve::JobResult live = server.wait(first.id);
  ASSERT_EQ(live.state, serve::JobState::Done) << live.detail;
  EXPECT_FALSE(live.cached);
  EXPECT_EQ(live.attempts, 1);

  const auto second = server.submit(spec);
  ASSERT_TRUE(second.admitted);
  const serve::JobResult hit = server.wait(second.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(hit.state, serve::JobState::Done) << hit.detail;
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.attempts, 0);
  EXPECT_EQ(hit.output_hash, live.output_hash);
  EXPECT_EQ(hit.output_hash, direct_hash(spec)) << "bit-identity witness";
  EXPECT_EQ(hit.modeled_seconds, live.modeled_seconds);
  EXPECT_EQ(hit.chunk_count, live.chunk_count);
  // keep_payloads defaults on: the cached payload is the live payload.
  EXPECT_EQ(hit.mei, live.mei);
  EXPECT_EQ(hit.labels, live.labels);

  const cache::CacheStats rs = server.result_cache_stats();
  EXPECT_EQ(rs.hits, 1u);
  EXPECT_EQ(rs.misses, 1u);
}

TEST(CacheServer, SecondSubmissionIsServedFromCacheBitIdentical) {
  expect_second_submission_cached(serve::JobKind::Morphology);
}

/// The same contract holds for the other job kinds.
class CacheServerKinds : public ::testing::TestWithParam<serve::JobKind> {};

TEST_P(CacheServerKinds, SecondSubmissionIsServedFromCacheBitIdentical) {
  expect_second_submission_cached(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CacheServerKinds,
    ::testing::Values(serve::JobKind::Classify, serve::JobKind::Unmix),
    [](const ::testing::TestParamInfo<serve::JobKind>& kind) {
      return std::string(serve::to_string(kind.param));
    });

TEST(CacheServer, CacheIsOffByDefault) {
  serve::ServerOptions options;
  serve::Server server(options);
  const serve::JobSpec spec = cacheable_spec();
  const auto a = server.submit(spec);
  const serve::JobResult ra = server.wait(a.id);
  const auto b = server.submit(spec);
  const serve::JobResult rb = server.wait(b.id);
  server.shutdown(/*drain=*/true);
  ASSERT_EQ(ra.state, serve::JobState::Done) << ra.detail;
  ASSERT_EQ(rb.state, serve::JobState::Done) << rb.detail;
  EXPECT_FALSE(ra.cached);
  EXPECT_FALSE(rb.cached);
  EXPECT_EQ(rb.attempts, 1);
  EXPECT_EQ(ra.output_hash, rb.output_hash);
}

TEST(CacheServer, HitsSpanNamesPrioritiesRetriesAndWorkerCounts) {
  serve::ServerOptions options;
  options.result_cache_bytes = 8 << 20;
  serve::Server server(options);

  serve::JobSpec first = cacheable_spec();
  first.kind = serve::JobKind::Classify;
  const auto a = server.submit(first);
  const serve::JobResult live = server.wait(a.id);
  ASSERT_EQ(live.state, serve::JobState::Done) << live.detail;

  serve::JobSpec variant = first;
  variant.name = "other-name";
  variant.priority = serve::Priority::High;
  variant.max_retries = 3;
  variant.workers = 2;
  const auto b = server.submit(variant);
  const serve::JobResult hit = server.wait(b.id);
  server.shutdown(/*drain=*/true);

  ASSERT_EQ(hit.state, serve::JobState::Done) << hit.detail;
  EXPECT_TRUE(hit.cached) << "non-functional fields share one entry";
  EXPECT_EQ(hit.output_hash, live.output_hash);
}

TEST(CacheServer, EnviJobsBypassTheCache) {
  serve::ServerOptions options;
  options.result_cache_bytes = 8 << 20;
  serve::Server server(options);
  serve::JobSpec spec = cacheable_spec();
  spec.scene.envi_path = "/nonexistent/cube.hdr";
  const auto sub = server.submit(spec);
  const serve::JobResult res =
      sub.admitted ? server.wait(sub.id) : *server.result(sub.id);
  server.shutdown(/*drain=*/true);
  EXPECT_NE(res.state, serve::JobState::Done);
  EXPECT_EQ(server.result_cache_stats().hits, 0u);
  EXPECT_EQ(server.result_cache_stats().misses, 0u)
      << "ENVI-backed jobs never consult the result cache";
}

// ---------------------------------------------------------------------------
// Cross-device shared program store.

TEST(CacheProgramStore, CompilesEachBindingOnce) {
  gpusim::SharedProgramStore store;
  const auto program = gpusim::assemble_or_die(
      "p", "!!HSFP1.0\nMOV result.color, c[0];\nEND\n");
  const std::vector<gpusim::float4> constants{{1, 2, 3, 4}};
  const auto a = store.get_or_compile(program, constants, {});
  const auto b = store.get_or_compile(program, constants, {});
  EXPECT_EQ(a.get(), b.get()) << "one lowering per distinct binding";
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 1u);

  // A different constant binding is a different specialization.
  const std::vector<gpusim::float4> other{{5, 6, 7, 8}};
  const auto c = store.get_or_compile(program, other, {});
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(store.stats().misses, 2u);
}

TEST(CacheProgramStore, ConcurrentLookupsShareOneCompilation) {
  gpusim::SharedProgramStore store;
  const auto p0 = gpusim::assemble_or_die(
      "p0", "!!HSFP1.0\nMOV result.color, c[0];\nEND\n");
  const auto p1 = gpusim::assemble_or_die(
      "p1", "!!HSFP1.0\nADD result.color, c[0], c[1];\nEND\n");
  const std::vector<gpusim::float4> constants{{1, 2, 3, 4}, {5, 6, 7, 8}};

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::shared_ptr<const gpusim::SoaProgram>> seen0(kThreads);
  std::vector<std::shared_ptr<const gpusim::SoaProgram>> seen1(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        seen0[static_cast<std::size_t>(t)] =
            store.get_or_compile(p0, constants, {});
        seen1[static_cast<std::size_t>(t)] =
            store.get_or_compile(p1, constants, {});
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen0[0].get(), seen0[static_cast<std::size_t>(t)].get());
    EXPECT_EQ(seen1[0].get(), seen1[static_cast<std::size_t>(t)].get());
  }
  EXPECT_EQ(store.stats().misses, 2u) << "each binding compiled exactly once";
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST(CacheProgramStore, SharedStoreKeepsDeviceResultsBitIdentical) {
  // Two blank devices, one with a shared store and one without, must
  // produce identical pass results and counters for the same draw.
  const auto run = [](std::shared_ptr<gpusim::SharedProgramStore> store) {
    gpusim::SimConfig config;
    config.shared_programs = std::move(store);
    gpusim::Device device(gpusim::geforce_7800_gtx(), config);
    const auto tex = device.create_texture(8, 8, gpusim::TextureFormat::R32F);
    std::vector<float> texels(64);
    for (std::size_t i = 0; i < texels.size(); ++i) {
      texels[i] = static_cast<float>(i) * 0.25f;
    }
    device.upload(tex, std::span<const float>(texels));
    const auto out = device.create_texture(8, 8, gpusim::TextureFormat::R32F);
    const auto program = gpusim::assemble_or_die(
        "scale",
        "!!HSFP1.0\nTEX R0, fragment.texcoord[0], texture[0];\n"
        "MUL result.color, R0, c[0];\nEND\n");
    const std::vector<gpusim::float4> constants{{2, 2, 2, 2}};
    const gpusim::TextureHandle inputs[] = {tex};
    const gpusim::TextureHandle outputs[] = {out};
    device.draw(program, inputs, constants, outputs);
    return device.download_scalar(out);
  };

  const auto store = std::make_shared<gpusim::SharedProgramStore>();
  const std::vector<float> shared_result = run(store);
  const std::vector<float> local_result = run(nullptr);
  ASSERT_EQ(shared_result.size(), local_result.size());
  for (std::size_t i = 0; i < shared_result.size(); ++i) {
    ASSERT_EQ(shared_result[i], local_result[i]) << "texel " << i;
  }
  EXPECT_EQ(store->stats().misses, 1u);
}

}  // namespace
}  // namespace hs
