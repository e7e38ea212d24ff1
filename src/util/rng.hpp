// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (synthetic scene generation,
// noise injection, test data) draw from these generators so that every
// experiment is reproducible from a single seed. We provide splitmix64 for
// seeding and xoshiro256** as the workhorse generator; both are tiny,
// allocation-free and much faster than std::mt19937_64.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace hs::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Passes BigCrush when used directly; here it only seeds xoshiro.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: general-purpose 64-bit generator (Blackman & Vigna).
/// Satisfies UniformRandomBitGenerator so it can feed <random>
/// distributions, but the uniform()/normal()/normals() members below avoid
/// the libstdc++ distribution objects entirely for cross-platform
/// bit-exact reproducibility.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection sampling to
  /// avoid modulo bias (bias is irrelevant for our n but correctness is
  /// cheap here).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Fills `out` with standard normals via the Marsaglia polar method
  /// (deterministic given the stream position, unlike
  /// std::normal_distribution across libstdc++ versions). Each accepted
  /// point of the unit disc yields two values; an odd count leaves the
  /// second as a spare that the next call returns first. The points are
  /// drawn branch-free into a small fixed batch and transformed together;
  /// a call is bit-identical to out.size() calls of normal(), spare
  /// included.
  void normals(std::span<double> out);

  /// One standard normal: normals() of one value.
  double normal() {
    double z = 0;
    normals(std::span(&z, 1));
    return z;
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace hs::util
