#include "trace/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace hs::trace {
namespace {

// gtest_discover_tests runs every TEST in its own process, so mutating the
// process-global histogram registry here cannot leak into other tests.

#if HS_TRACE_ENABLED

TEST(Histogram, BucketBoundsTileTheRangeWithoutGapsOrOverlap) {
  // Walking every bucket: lower bounds are strictly increasing and each
  // bucket's upper bound is the next bucket's lower bound.
  for (int i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_LT(Histogram::bucket_lower(i), Histogram::bucket_upper(i)) << i;
    EXPECT_EQ(Histogram::bucket_upper(i), Histogram::bucket_lower(i + 1)) << i;
  }
  EXPECT_EQ(Histogram::bucket_lower(0), 0.0);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBucketCount - 1)));
}

TEST(Histogram, BucketIndexAgreesWithBucketBounds) {
  // For a spread of magnitudes (sub-ns to minutes), the value must land in
  // a bucket whose [lower, upper) interval contains it.
  for (const double v : {1e-10, 2.3e-9, 1e-6, 3.7e-5, 1e-3, 0.25, 1.0, 7.5,
                         60.0, 1023.0, 5000.0}) {
    const int idx = Histogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kBucketCount);
    EXPECT_GE(v, Histogram::bucket_lower(idx)) << v;
    EXPECT_LT(v, Histogram::bucket_upper(idx)) << v;
  }
  // Exact octave boundaries land in the bucket they open.
  const int at_one = Histogram::bucket_index(1.0);
  EXPECT_EQ(Histogram::bucket_lower(at_one), 1.0);
}

TEST(Histogram, RelativeBucketWidthIsBounded) {
  // The log-linear scheme promises <= 1/kSubBuckets relative width inside
  // the covered range; that bound is what makes quantile cross-checks
  // against exact percentiles meaningful.
  for (double v = 2e-9; v < 500.0; v *= 1.7) {
    EXPECT_LE(Histogram::bucket_width_at(v) / v,
              1.0 / Histogram::kSubBuckets + 1e-12)
        << v;
  }
}

TEST(Histogram, CountSumMinMaxAndIgnoredValues) {
  Histogram h;
  h.record(0.010);
  h.record(0.020);
  h.record(0.030);
  h.record(-1.0);  // dropped
  h.record(std::nan(""));  // dropped
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum, 0.060, 1e-12);
  EXPECT_EQ(snap.min, 0.010);
  EXPECT_EQ(snap.max, 0.030);
  EXPECT_NEAR(snap.mean(), 0.020, 1e-12);
}

TEST(Histogram, QuantilesAgreeWithExactRankWithinOneBucketWidth) {
  // 1000 deterministic samples spanning three decades: every reported
  // quantile must sit within one bucket width of the exact ceil(q*n)-th
  // order statistic -- the same tolerance the serve-load bench enforces.
  util::Xoshiro256 rng(1234);
  Histogram h;
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 3.0 * rng.uniform());
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, vals.size());
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(vals.size()))));
    const double exact = vals[rank - 1];
    EXPECT_NEAR(snap.quantile(q), exact, Histogram::bucket_width_at(exact))
        << "q=" << q;
  }
  // Quantiles clamp to the observed extremes.
  EXPECT_EQ(snap.quantile(0.0), snap.min);
  EXPECT_EQ(snap.quantile(1.0), snap.max);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Histogram, ConcurrentRecordsAreAllCounted) {
  // 8 threads x 4000 records into one histogram: the merged snapshot must
  // account for every sample exactly (shards are per-thread, so nothing
  // can be lost to a data race by construction -- this pins it).
  Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kIters; ++i) {
        h.record(1e-6 * static_cast<double>(1 + (t * kIters + i) % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kIters);
  EXPECT_EQ(snap.min, 1e-6);
  EXPECT_NEAR(snap.max, 1e-3, 1e-12);
}

TEST(Histogram, RegistryFindsSameInstanceAndResetZeroes) {
  Histogram& h = histogram("test.hist_s");
  EXPECT_EQ(&histogram("test.hist_s"), &h);
  h.record(0.5);
  bool found = false;
  for (const auto& [name, snap] : histograms_snapshot()) {
    if (name == "test.hist_s") {
      found = true;
      EXPECT_EQ(snap.count, 1u);
    }
  }
  EXPECT_TRUE(found);

  reset_histograms();
  EXPECT_EQ(h.snapshot().count, 0u);
  // The registration survives reset; only the samples are dropped.
  EXPECT_EQ(&histogram("test.hist_s"), &h);
}

#else  // HS_TRACE_ENABLED == 0

TEST(Histogram, DisabledBuildIsANoOpWithEmptySnapshots) {
  Histogram& h = histogram("off.hist_s");
  h.record(0.5);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(histograms_snapshot().empty());
  reset_histograms();  // must not crash
}

#endif  // HS_TRACE_ENABLED

}  // namespace
}  // namespace hs::trace
