// Tests for the per-block Plain-FLE / Outlier-FLE codec: header byte
// layout, payload sizes, the selection strategy, and round-trip properties.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/block_codec.hpp"

namespace cuszp2::core {
namespace {

std::vector<i32> roundTrip(const BlockCodec& codec,
                           const std::vector<i32>& quants,
                           EncodingMode mode) {
  const auto plan = codec.plan(quants, mode);
  std::vector<std::byte> payload(plan.payloadBytes);
  codec.encode(quants, plan, payload.data());
  std::vector<i32> rec(quants.size());
  const auto header = BlockHeader::unpack(plan.header.pack());
  codec.decode(header, payload.data(), rec);
  return rec;
}

// ---- Header byte layout (paper Fig. 8) ----------------------------------

TEST(BlockHeader, PackUnpackAllCombinations) {
  for (u32 fl = 0; fl <= 31; ++fl) {
    for (u32 ob = 1; ob <= 4; ++ob) {
      for (bool mode : {false, true}) {
        BlockHeader h;
        h.outlierMode = mode;
        h.outlierBytes = ob;
        h.fixedLength = fl;
        const auto r = BlockHeader::unpack(h.pack());
        EXPECT_EQ(r.outlierMode, mode);
        EXPECT_EQ(r.fixedLength, fl);
        if (mode) {
          EXPECT_EQ(r.outlierBytes, ob);
        }
      }
    }
  }
}

TEST(BlockHeader, ModeFlagIsBit7) {
  BlockHeader h;
  h.outlierMode = true;
  h.outlierBytes = 1;
  h.fixedLength = 0;
  EXPECT_EQ(h.pack() & 0x80u, 0x80u);
  h.outlierMode = false;
  EXPECT_EQ(h.pack() & 0x80u, 0u);
}

TEST(BlockHeader, OutlierSizeBitsAre65) {
  BlockHeader h;
  h.outlierMode = true;
  h.fixedLength = 5;
  h.outlierBytes = 3;  // encoded as binary 10
  EXPECT_EQ((h.pack() >> 5) & 0x3u, 2u);
}

// ---- Payload sizes -------------------------------------------------------

TEST(PayloadSize, ZeroBlockIsZeroBytes) {
  BlockHeader h;  // plain, fl = 0
  EXPECT_EQ(payloadSize(h, 32), 0u);
}

TEST(PayloadSize, PaperRunningExamplePlain) {
  // Paper Fig. 5/7: block 8, Plain-FLE with fl=4 -> 1 B signs + 4 B planes
  // = 5 bytes.
  BlockHeader h;
  h.fixedLength = 4;
  EXPECT_EQ(payloadSize(h, 8), 5u);
}

TEST(PayloadSize, PaperRunningExampleOutlier) {
  // Paper Fig. 7: Outlier-FLE with 1-byte outlier and fl=1 -> signs 1 +
  // outlier 1 + plane 1 = 3 bytes (ratio 32/3 = 10.7).
  BlockHeader h;
  h.outlierMode = true;
  h.outlierBytes = 1;
  h.fixedLength = 1;
  EXPECT_EQ(payloadSize(h, 8), 3u);
}

TEST(PayloadSize, MaxPayloadDominates) {
  for (u32 bs : {8u, 32u, 64u}) {
    for (u32 fl = 0; fl <= 31; ++fl) {
      for (bool mode : {false, true}) {
        BlockHeader h;
        h.outlierMode = mode;
        h.outlierBytes = 4;
        h.fixedLength = fl;
        EXPECT_LE(payloadSize(h, bs), maxPayloadSize(bs));
      }
    }
  }
}

// ---- Codec construction ---------------------------------------------------

TEST(BlockCodec, RejectsBadBlockSizes) {
  EXPECT_THROW(BlockCodec(0), Error);
  EXPECT_THROW(BlockCodec(7), Error);
  EXPECT_THROW(BlockCodec(12), Error);
  EXPECT_THROW(BlockCodec(264), Error);
  EXPECT_NO_THROW(BlockCodec(8));
  EXPECT_NO_THROW(BlockCodec(256));
}

// ---- Selection strategy ----------------------------------------------------

TEST(BlockCodec, ZeroBlockCostsNothing) {
  const BlockCodec codec(32);
  const std::vector<i32> quants(32, 0);
  for (auto mode : {EncodingMode::Plain, EncodingMode::Outlier}) {
    const auto plan = codec.plan(quants, mode);
    EXPECT_EQ(plan.payloadBytes, 0u);
    EXPECT_FALSE(plan.header.outlierMode);
    EXPECT_EQ(plan.header.fixedLength, 0u);
  }
}

TEST(BlockCodec, SmoothBlockSelectsOutlier) {
  // Constant value 1000: first diff is 1000, the rest are 0 — the exact
  // motif of paper Fig. 6.
  const BlockCodec codec(32);
  const std::vector<i32> quants(32, 1000);
  const auto plan = codec.plan(quants, EncodingMode::Outlier);
  EXPECT_TRUE(plan.header.outlierMode);
  EXPECT_EQ(plan.header.outlierBytes, 2u);  // 1000 needs 2 bytes
  EXPECT_EQ(plan.header.fixedLength, 0u);   // tail is all zero
  EXPECT_EQ(plan.payloadBytes, 4u + 2u);    // signs + outlier
  EXPECT_LT(plan.payloadBytes, plan.plainBytes);
}

TEST(BlockCodec, PlainModeNeverUsesOutlier) {
  const BlockCodec codec(32);
  const std::vector<i32> quants(32, 1000);
  const auto plan = codec.plan(quants, EncodingMode::Plain);
  EXPECT_FALSE(plan.header.outlierMode);
  EXPECT_EQ(plan.payloadBytes, plan.plainBytes);
}

TEST(BlockCodec, SelectionPicksStrictlySmaller) {
  const BlockCodec codec(32);
  Rng rng(55);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<i32> quants(32);
    i32 v = static_cast<i32>(rng.uniformInt(20000)) - 10000;
    for (auto& q : quants) {
      v += static_cast<i32>(rng.uniformInt(2 * trial + 3)) - trial - 1;
      q = v;
    }
    const auto plan = codec.plan(quants, EncodingMode::Outlier);
    EXPECT_EQ(plan.payloadBytes,
              std::min(plan.plainBytes, plan.outlierBytes));
    if (plan.header.outlierMode) {
      EXPECT_LT(plan.outlierBytes, plan.plainBytes);
    } else {
      EXPECT_LE(plan.plainBytes, plan.outlierBytes);
    }
  }
}

TEST(BlockCodec, OutlierSizesAdaptOneToFourBytes) {
  const BlockCodec codec(32);
  for (u32 magnitude :
       {200u, 60000u, 10'000'000u, 1'000'000'000u}) {
    std::vector<i32> quants(32, static_cast<i32>(magnitude));
    const auto plan = codec.plan(quants, EncodingMode::Outlier);
    ASSERT_TRUE(plan.header.outlierMode) << magnitude;
    u32 expect = 1;
    if (magnitude > 0xFFFFFFu) {
      expect = 4;
    } else if (magnitude > 0xFFFFu) {
      expect = 3;
    } else if (magnitude > 0xFFu) {
      expect = 2;
    }
    EXPECT_EQ(plan.header.outlierBytes, expect) << magnitude;
  }
}

// ---- Round-trip properties -------------------------------------------------

class BlockCodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<u32, EncodingMode>> {};

TEST_P(BlockCodecRoundTrip, RandomWalksRoundTrip) {
  const auto [blockSize, mode] = GetParam();
  const BlockCodec codec(blockSize);
  Rng rng(900 + blockSize);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<i32> quants(blockSize);
    i32 v = static_cast<i32>(rng.uniformInt(100000)) - 50000;
    const i32 step = 1 + static_cast<i32>(rng.uniformInt(1u << (trial % 20)));
    for (auto& q : quants) {
      v += static_cast<i32>(rng.uniformInt(2 * step + 1)) - step;
      q = v;
    }
    ASSERT_EQ(roundTrip(codec, quants, mode), quants)
        << "trial " << trial << " bs " << blockSize;
  }
}

TEST_P(BlockCodecRoundTrip, EdgeBlocksRoundTrip) {
  const auto [blockSize, mode] = GetParam();
  const BlockCodec codec(blockSize);
  const i32 big = (i32{1} << 30) - 1;  // kMaxQuant
  std::vector<std::vector<i32>> cases;
  cases.push_back(std::vector<i32>(blockSize, 0));
  cases.push_back(std::vector<i32>(blockSize, big));
  cases.push_back(std::vector<i32>(blockSize, -big));
  {
    std::vector<i32> alt(blockSize);
    for (usize i = 0; i < blockSize; ++i) alt[i] = (i % 2) ? big : -big;
    cases.push_back(alt);
  }
  {
    std::vector<i32> ramp(blockSize);
    for (usize i = 0; i < blockSize; ++i) {
      ramp[i] = static_cast<i32>(i) - static_cast<i32>(blockSize / 2);
    }
    cases.push_back(ramp);
  }
  {
    std::vector<i32> spike(blockSize, 5);
    spike[blockSize / 2] = big;
    cases.push_back(spike);
  }
  for (const auto& c : cases) {
    EXPECT_EQ(roundTrip(codec, c, mode), c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockCodecRoundTrip,
    ::testing::Combine(::testing::Values<u32>(8, 32, 64, 128),
                       ::testing::Values(EncodingMode::Plain,
                                         EncodingMode::Outlier)));

// ---- Residual-level API -----------------------------------------------------

TEST(BlockCodec, ResidualRoundTrip) {
  const BlockCodec codec(64);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<i32> res(64);
    for (auto& r : res) {
      r = static_cast<i32>(rng.uniformInt(2001)) - 1000;
    }
    res[0] = static_cast<i32>(rng.uniformInt(2'000'000'000u)) -
             1'000'000'000;  // big head outlier
    const auto plan = codec.planResiduals(res, EncodingMode::Outlier);
    std::vector<std::byte> payload(plan.payloadBytes);
    codec.encodeResiduals(res, plan, payload.data());
    std::vector<i32> rec(64);
    codec.decodeResiduals(BlockHeader::unpack(plan.header.pack()),
                          payload.data(), rec);
    ASSERT_EQ(rec, res) << trial;
  }
}

// A hostile payload whose magnitudes overflow i32 (every plane bit set, a
// 2^31 outlier, every sign negative) decodes by wrapping in u32, in both
// SIMD modes: no signed overflow for UBSan to report.
TEST(BlockCodec, DecodeWrapsHostileMagnitudes) {
  const simd::Mode saved = simd::activeMode();
  const BlockCodec codec(32);
  for (const bool outlier : {false, true}) {
    BlockHeader h;
    h.outlierMode = outlier;
    h.outlierBytes = 4;
    h.fixedLength = 31;
    std::vector<std::byte> payload(payloadSize(h, 32), std::byte{0xFF});
    if (outlier) {
      payload[4] = payload[5] = payload[6] = std::byte{0x00};
      payload[7] = std::byte{0x80};
    }
    std::vector<i32> expected(32);
    u32 acc = 0;
    for (usize i = 0; i < 32; ++i) {
      const u32 mag = outlier && i == 0 ? 0x80000000u : 0x7FFFFFFFu;
      acc += 0u - mag;
      expected[i] = static_cast<i32>(acc);
    }
    for (const simd::Mode mode : {simd::Mode::Scalar, simd::Mode::Native}) {
      simd::setMode(mode);
      std::vector<i32> rec(32);
      codec.decode(h, payload.data(), rec);
      EXPECT_EQ(rec, expected) << "outlier " << outlier << " mode "
                               << simd::modeName();
    }
  }
  simd::setMode(saved);
}

TEST(BlockCodec, PlanRejectsWrongSize) {
  const BlockCodec codec(32);
  const std::vector<i32> tooShort(16, 0);
  EXPECT_THROW(codec.plan(tooShort, EncodingMode::Plain), Error);
}

// Both modes decode to identical integers (the paper's point that P and O
// share the lossy step and reconstruction).
TEST(BlockCodec, ModesReconstructIdentically) {
  const BlockCodec codec(32);
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<i32> quants(32);
    i32 v = 5000;
    for (auto& q : quants) {
      v += static_cast<i32>(rng.uniformInt(7)) - 3;
      q = v;
    }
    EXPECT_EQ(roundTrip(codec, quants, EncodingMode::Plain),
              roundTrip(codec, quants, EncodingMode::Outlier));
  }
}

}  // namespace
}  // namespace cuszp2::core
