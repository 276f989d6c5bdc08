// Unit tests for common/rng.hpp: determinism and distribution sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace cuszp2 {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at step " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const f64 u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const f64 u = rng.uniform(-3.5, 9.25);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 9.25);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(99);
  f64 sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(5);
  for (u64 n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.uniformInt(n), n);
    }
  }
  EXPECT_EQ(rng.uniformInt(0), 0u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(2024);
  const int n = 200000;
  f64 sum = 0.0;
  f64 sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const f64 x = rng.normal();
    sum += x;
    sumSq += x * x;
  }
  const f64 mean = sum / n;
  const f64 var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(11);
  const int n = 100000;
  f64 sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const u64 first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm.next(), first);
}

// keyedStream replaced the hand-written (seed, key, key) mixes of the
// fault schedules, the crash tear, the fuzz mutants and the ring. At the
// keys each of them used it must seed the identical stream, or every
// pinned drill fingerprint, ring placement and fuzz fingerprint moves.
// Each legacy expression below is copied from the code it replaced.
TEST(KeyedStream, MatchesEveryLegacyMixAtItsKeys) {
  const auto same = [](SplitMix64 a, SplitMix64 b) {
    for (int i = 0; i < 4; ++i) {
      if (a.next() != b.next()) return false;
    }
    return true;
  };
  for (const u64 seed : {u64{0}, u64{1}, u64{0xC1A57E12u}, u64{20260805},
                         ~u64{0}}) {
    for (u64 k = 0; k < 40; ++k) {
      // Shard chaos (cluster.cpp): a = shard + 1, b = heartbeat.
      const u32 shard = static_cast<u32>(k % 8);
      const u64 heartbeat = k + 1;
      EXPECT_TRUE(same(keyedStream(seed, u64{shard} + 1, heartbeat),
                       SplitMix64(seed ^
                                  ((u64{shard} + 1) * 0x9E3779B97F4A7C15ull) ^
                                  (heartbeat * 0xD1B54A32D192ED03ull))));
      // Ring vnodes (ring.cpp): a = shard + 1, b = vnode + 1.
      const u32 v = static_cast<u32>(k);
      EXPECT_TRUE(same(keyedStream(seed, u64{shard} + 1, u64{v} + 1),
                       SplitMix64(seed ^
                                  ((u64{shard} + 1) * 0x9E3779B97F4A7C15ull) ^
                                  ((u64{v} + 1) * 0xD1B54A32D192ED03ull))));
      // Crash tear (crash.cpp): a = op.
      EXPECT_TRUE(same(keyedStream(seed, k),
                       SplitMix64(seed ^ (k * 0x9e3779b97f4a7c15ULL))));
      // Fuzz mutants (fuzz_decode.cpp): a = iteration.
      EXPECT_TRUE(same(keyedStream(seed, k),
                       SplitMix64(seed ^ (k * 0x9E3779B97F4A7C15ull))));
      // Service chaos (chaos.cpp), which only ever mixed attempt 0:
      // a = job id.
      const u32 attempt = 0;
      EXPECT_TRUE(same(keyedStream(seed, k),
                       SplitMix64(seed ^ (k * 0x9E3779B97F4A7C15ull) ^
                                  (u64{attempt} << 32))));
    }
    // Launcher bit flips (launcher.cpp) at a plan's first firing: a = 0.
    const u64 launchIdx = 7, triggerLaunch = 7;
    EXPECT_TRUE(same(keyedStream(seed, launchIdx - triggerLaunch),
                     SplitMix64(seed ^ (launchIdx - triggerLaunch))));
  }
}

TEST(RateCascade, PicksEdgeCascadedOutcomes) {
  const RateCascade<3> c({0.25, 0.25, 0.125}, "test");
  EXPECT_EQ(c.pick(0.0), 0u);
  EXPECT_EQ(c.pick(0.2499), 0u);
  EXPECT_EQ(c.pick(0.25), 1u);
  EXPECT_EQ(c.pick(0.4999), 1u);
  EXPECT_EQ(c.pick(0.5), 2u);
  EXPECT_EQ(c.pick(0.6249), 2u);
  EXPECT_EQ(c.pick(0.625), 3u);  // the fault-free remainder
  EXPECT_EQ(c.pick(0.9999), 3u);
  EXPECT_EQ(RateCascade<2>({0.0, 0.0}, "test").pick(0.0), 2u);
}

}  // namespace
}  // namespace cuszp2
