// Deterministic random number generation for the synthetic dataset
// generators, the seeded fault schedules and the property-based tests.
// SplitMix64 seeds Xoshiro256**; both are tiny, fast, and fully
// reproducible across platforms.
#pragma once

#include <array>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cuszp2 {

/// SplitMix64: used to expand a single seed into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(u64 seed) : state_(seed) {}

  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// The one way a seed and up to two keys become an independent stream
/// (fault schedules, crash tears, fuzz mutants, ring vnodes, retry
/// jitter). Each key gets its own odd multiplier, the golden ratio for
/// `a` and another for `b`, so (a, b) pairs never cancel each other
/// before the SplitMix64 finalizer.
inline SplitMix64 keyedStream(u64 seed, u64 a, u64 b = 0) {
  return SplitMix64(seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xD1B54A32D192ED03ull));
}

/// Edge-cascaded choice among N mutually exclusive outcomes from one
/// uniform draw: outcome i owns [r0 + ... + r(i-1), r0 + ... + ri), and
/// the rest of [0, 1) is "nothing happens". The constructor rejects a
/// negative or NaN rate and rates summing past 1.
template <usize N>
class RateCascade {
 public:
  RateCascade(const std::array<f64, N>& rates, const std::string& owner)
      : rates_(rates) {
    f64 sum = 0.0;
    bool ok = true;
    for (f64 r : rates_) {
      ok = ok && r >= 0.0;  // false for NaN too
      sum += r;
    }
    require(ok && sum <= 1.0 + 1e-9,
            owner + ": fault rates must be >= 0 and sum to <= 1");
  }

  /// The outcome the draw `u` in [0, 1) lands in, or N for none.
  usize pick(f64 u) const {
    f64 edge = 0.0;
    for (usize i = 0; i < N; ++i) {
      if (u < (edge += rates_[i])) return i;
    }
    return N;
  }

 private:
  std::array<f64, N> rates_;
};

/// Xoshiro256**: the workhorse generator.
class Rng {
 public:
  explicit Rng(u64 seed);

  /// Uniform 64-bit value.
  u64 next();

  /// Uniform double in [0, 1).
  f64 uniform();

  /// Uniform double in [lo, hi).
  f64 uniform(f64 lo, f64 hi);

  /// Uniform integer in [0, n).
  u64 uniformInt(u64 n);

  /// Standard normal via Box-Muller (cached second value).
  f64 normal();

  /// Normal with given mean / stddev.
  f64 normal(f64 mean, f64 stddev);

 private:
  u64 s_[4];
  bool hasCached_ = false;
  f64 cached_ = 0.0;
};

}  // namespace cuszp2
