#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace hs::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, IsDeterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Xoshiro256, UniformMeanIsCentered) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, UniformIntStaysBelowBound) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(7), 7u);
  }
}

TEST(Xoshiro256, UniformIntCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Xoshiro256, UniformIntOfOneIsZero) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Xoshiro256, NormalMomentsMatchStandardNormal) {
  Xoshiro256 rng(13);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Xoshiro256, NormalWithParametersScales) {
  Xoshiro256 rng(13);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

/// The polar method one value at a time, as normal() drew it before
/// normals() batched it: the reference normals() must reproduce bit for
/// bit, spare value included.
struct ScalarPolar {
  Xoshiro256 rng;
  bool have_spare = false;
  double spare = 0;

  double normal() {
    if (have_spare) {
      have_spare = false;
      return spare;
    }
    double u, v, s;
    do {
      u = rng.uniform(-1.0, 1.0);
      v = rng.uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare = v * f;
    have_spare = true;
    return u * f;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Xoshiro256, NormalsMatchRepeatedNormal) {
  for (std::size_t n : {0, 1, 2, 3, 63, 64, 65, 200}) {
    for (bool spare : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " spare=" << spare);
      const std::uint64_t seed = 1000 + n;
      Xoshiro256 batch(seed);
      Xoshiro256 single(seed);
      ScalarPolar ref{Xoshiro256(seed)};
      if (spare) {  // one normal leaves the pair's second value cached
        batch.normal();
        single.normal();
        ref.normal();
      }
      // A uniform draw in between must not disturb a cached spare.
      const double between = ref.rng.uniform();
      ASSERT_EQ(batch.uniform(), between);
      ASSERT_EQ(single.uniform(), between);
      std::vector<double> got(n, -99.0);
      batch.normals(got);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t want = bits(ref.normal());
        EXPECT_EQ(bits(got[i]), want) << "value " << i;
        EXPECT_EQ(bits(single.normal()), want) << "value " << i;
      }
      // Later draws, spare included, continue the same stream.
      EXPECT_EQ(batch.uniform(), ref.rng.uniform());
      std::vector<double> later(3);
      batch.normals(later);
      for (double v : later) EXPECT_EQ(bits(v), bits(ref.normal()));
      EXPECT_EQ(bits(batch.normal()), bits(ref.normal()));
      EXPECT_EQ(batch.next(), ref.rng.next());
    }
  }
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256::min() == 0);
  static_assert(Xoshiro256::max() == ~0ULL);
  Xoshiro256 rng;
  (void)rng();  // callable
}

}  // namespace
}  // namespace hs::util
