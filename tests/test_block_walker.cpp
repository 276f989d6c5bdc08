// Tests for the one block walker that decodes every format generation
// (core/stream_decode.cpp): the generation rules it keeps, the v1/v2
// second-order predictor on every decode entry point, and the decode
// kernels' model charges, pinned to the values of the per-generation
// decoders the walker replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/compressor.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::core {
namespace {

/// A smooth field with a run of exact zeros (blocks 32-36 are all-zero).
std::vector<f32> fieldWithZeroRun(usize n) {
  std::vector<f32> v(n);
  for (usize i = 0; i < n; ++i) {
    const f64 x = 0.01 * static_cast<f64>(i);
    v[i] = (i >= 1000 && i < 1200) ? 0.0f
                                   : static_cast<f32>(10.0 * std::sin(x));
  }
  return v;
}

Config plainLegacy(bool v2) {
  Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.mode = EncodingMode::Plain;
  cfg.blockChecksums = v2;
  return cfg;
}

/// Sets bit 5 on the first all-zero block's offset byte (0x00 -> 0x20, the
/// v3 Huffman id) and on the first nonzero plain-FLE one (a reserved v3
/// id). Returns the two block indices, in order.
std::vector<u64> setBit5(std::vector<std::byte>& stream) {
  const StreamHeader h = StreamHeader::parse(stream);
  std::byte* offsets = stream.data() + StreamHeader::offsetsBegin();
  u64 zero = h.numBlocks();
  u64 plain = h.numBlocks();
  for (u64 blk = 0; blk < h.numBlocks(); ++blk) {
    const u8 b = std::to_integer<u8>(offsets[blk]);
    if (b == 0 && zero == h.numBlocks()) zero = blk;
    if (b > 0 && b < 0x20 && plain == h.numBlocks()) plain = blk;
  }
  EXPECT_LT(zero, h.numBlocks());
  EXPECT_LT(plain, h.numBlocks());
  offsets[zero] |= std::byte{0x20};
  offsets[plain] |= std::byte{0x20};
  return zero < plain ? std::vector<u64>{zero, plain}
                      : std::vector<u64>{plain, zero};
}

// A v1 byte with bit 5 set is still plain FLE (BlockHeader::unpack ignores
// bits 5-6): every entry point decodes it exactly like the clean byte and
// never reads it as a v3 pipeline id.
TEST(BlockWalker, V1ByteWithBit5DecodesAsPlainFle) {
  const auto data = fieldWithZeroRun(4096);
  CompressorStream codec(plainLegacy(false));
  std::vector<std::byte> stream = codec.compress<f32>(data).stream;
  const auto clean = codec.decompress<f32>(stream);
  const std::vector<u64> touched = setBit5(stream);

  EXPECT_EQ(codec.decompress<f32>(stream).data, clean.data);
  for (const u64 blk : touched) {
    const auto range = codec.decompressBlocks<f32>(stream, blk, 1);
    EXPECT_TRUE(std::equal(range.values.begin(), range.values.end(),
                           clean.data.begin() + range.firstElement));
  }
  const auto salvaged = codec.decompressResilient<f32>(stream, -1.0f);
  EXPECT_TRUE(salvaged.report.clean());
  EXPECT_EQ(salvaged.data, clean.data);
}

// In v2 the digest covers the descriptor byte: the flipped bit fails its
// own block's digest (strict names the first such block, salvage
// quarantines exactly those blocks). Re-stamped digests make the stream
// decode exactly like the clean one.
TEST(BlockWalker, V2ByteWithBit5FailsItsDigestThenDecodesAsPlainFle) {
  const auto data = fieldWithZeroRun(4096);
  CompressorStream codec(plainLegacy(true));
  std::vector<std::byte> stream = codec.compress<f32>(data).stream;
  const auto clean = codec.decompress<f32>(stream);
  const std::vector<u64> touched = setBit5(stream);

  try {
    codec.decompress<f32>(stream);
    FAIL() << "a damaged v2 digest must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "per-block checksum mismatch at block " +
                  std::to_string(touched[0]) + " "),
              std::string::npos)
        << e.what();
  }
  const auto salvaged = codec.decompressResilient<f32>(stream, -1.0f);
  EXPECT_EQ(salvaged.report.badBlocks, 2u);
  for (u64 blk = 0; blk < salvaged.report.totalBlocks; ++blk) {
    const bool hit = blk == touched[0] || blk == touched[1];
    EXPECT_EQ(salvaged.report.verdicts[blk],
              hit ? BlockVerdict::ChecksumMismatch : BlockVerdict::Good)
        << blk;
  }

  // Re-stamp the two digests over the modified descriptor bytes.
  const StreamHeader h = StreamHeader::parse(stream);
  const std::byte* offsets = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + h.payloadBegin();
  std::byte* footer = stream.data() + stream.size() - h.footerBytes();
  const PayloadSizeTable psize(h.blockSize);
  u64 cursor = 0;
  for (u64 blk = 0; blk < h.numBlocks(); ++blk) {
    const usize size = psize[offsets[blk]];
    const u16 digest =
        blockDigest(offsets[blk], ConstByteSpan(payload + cursor, size));
    footer[2 * blk] = static_cast<std::byte>(digest & 0xFFu);
    footer[2 * blk + 1] = static_cast<std::byte>(digest >> 8);
    cursor += size;
  }
  EXPECT_EQ(codec.decompress<f32>(stream).data, clean.data);
  const auto restamped = codec.decompressResilient<f32>(stream, -1.0f);
  EXPECT_TRUE(restamped.report.clean());
  EXPECT_EQ(restamped.data, clean.data);
}

// An empty stream is walked like any other: bytes after an empty v3
// stream's header are a framing error, as after an empty v2 stream's.
TEST(BlockWalker, EmptyV3StreamWithTrailingBytesIsRejected) {
  for (const bool v3 : {false, true}) {
    Config cfg;
    cfg.absErrorBound = 1e-3;
    cfg.blockChecksums = true;
    if (v3) cfg.pipeline = PipelineMode::Auto;
    CompressorStream codec(cfg);
    std::vector<std::byte> stream =
        codec.compress<f32>(std::vector<f32>{}).stream;
    EXPECT_TRUE(codec.decompress<f32>(stream).data.empty());
    stream.push_back(std::byte{0x5A});
    stream.push_back(std::byte{0xA5});
    try {
      (void)codec.decompress<f32>(stream);
      ADD_FAILURE() << "trailing bytes accepted, v3 " << v3;
    } catch (const Error& e) {
      const std::string expected = std::string("version-") +
                                   (v3 ? "3" : "2") +
                                   " stream framing mismatch";
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

// A v3 header records the first-order predictor; a damaged predictor byte
// (SecondOrder: bit 0 of header byte 11) fails strict decode even without
// a CRC stamp to catch it.
TEST(BlockWalker, V3HeaderWithAnotherPredictorIsRejected) {
  Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.pipeline = PipelineMode::Auto;
  CompressorStream codec(cfg);
  std::vector<std::byte> stream =
      codec.compress<f32>(fieldWithZeroRun(4096)).stream;
  ASSERT_EQ(StreamHeader::parse(stream).checksum, 0u);
  stream[11] ^= std::byte{0x01};
  EXPECT_THROW((void)codec.decompress<f32>(stream), Error);
  EXPECT_THROW((void)codec.decompressBlocks<f32>(stream, 0, 1), Error);
  EXPECT_FALSE(codec.decompressResilient<f32>(stream).report.headerOk);
}

class SecondOrderPaths : public ::testing::TestWithParam<bool> {};

// Range decode, salvage and replaceBlocks on v1 and v2 SecondOrder
// streams: a range is a slice of the full decode, a clean stream salvages
// to the strict output, and a splice round-trips within the bound while
// every untouched block stays bit-identical.
TEST_P(SecondOrderPaths, RangeSalvageAndReplaceHonourThePredictor) {
  const bool v2 = GetParam();
  const auto data = datagen::generateF32("cesm_atm", 0, 1 << 13);
  Config cfg;
  cfg.absErrorBound =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  cfg.predictor = Predictor::SecondOrder;
  cfg.blockChecksums = v2;
  cfg.checksum = true;
  CompressorStream codec(cfg);
  const auto c = codec.compress<f32>(data);
  ASSERT_EQ(StreamHeader::parse(c.stream).predictor, Predictor::SecondOrder);
  const auto full = codec.decompress<f32>(c.stream);

  const auto range = codec.decompressBlocks<f32>(c.stream, 5, 7);
  ASSERT_EQ(range.values.size(), 7u * 32);
  EXPECT_TRUE(std::equal(range.values.begin(), range.values.end(),
                         full.data.begin() + range.firstElement));

  const auto salvaged = codec.decompressResilient<f32>(c.stream, -1.0f);
  EXPECT_TRUE(salvaged.report.clean());
  EXPECT_EQ(salvaged.data, full.data);

  std::vector<f32> replacement(3 * 32);
  for (usize i = 0; i < replacement.size(); ++i) {
    replacement[i] = static_cast<f32>(2.0 + 0.05 * static_cast<f64>(i));
  }
  const auto updated = codec.replaceBlocks<f32>(c.stream, 10, replacement);
  const auto d = codec.decompress<f32>(updated.stream);
  ASSERT_EQ(d.data.size(), full.data.size());
  for (usize i = 0; i < d.data.size(); ++i) {
    if (i >= 10 * 32 && i < 13 * 32) {
      ASSERT_NEAR(d.data[i], replacement[i - 10 * 32],
                  cfg.absErrorBound * (1 + 1e-6) +
                      std::abs(replacement[i - 10 * 32]) * 6e-8)
          << i;
    } else {
      ASSERT_EQ(d.data[i], full.data[i]) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(V1AndV2, SecondOrderPaths, ::testing::Bool());

// ---- model charges -----------------------------------------------------

struct Row {
  u64 dramBytes = 0;
  f64 modelledSeconds = 0.0;
};

/// Runs `op` alone against the global registry and returns the row of
/// kernel `name`.
template <typename Op>
Row kernelRow(const char* name, Op&& op) {
  telemetry::MetricsRegistry& reg = telemetry::registry();
  reg.setEnabled(true);
  reg.reset();
  op();
  Row out;
  bool found = false;
  for (const auto& row : reg.snapshotKernels()) {
    if (row.name != name) continue;
    EXPECT_EQ(row.launches, 1u) << name;
    out = {row.dramBytes, row.modelledSeconds};
    found = true;
  }
  EXPECT_TRUE(found) << name;
  reg.reset();
  reg.setEnabled(false);
  return out;
}

/// One generation's kernel charges on the pinned field. Lookback kernels
/// (v1/v2 strict and range decode) pin DRAM bytes net of their flag reads:
/// each lookback step reads one 8-byte status word, and the step count
/// depends on scheduling. Their modelled time carries the lookback depth
/// and is not pinned.
struct Charges {
  u64 strictBytes = 0;
  f64 strictSeconds = 0.0;  // v3 only
  u64 rangeBytes = 0;
  f64 rangeSeconds = 0.0;  // v3 only
  u64 salvageBytes = 0;
  f64 salvageSeconds = 0.0;
  u64 replaceBytes = 0;
  f64 replaceSeconds = 0.0;
};

void expectCharges(const Config& cfg, const Charges& want) {
  const auto data = datagen::generateF32("cesm_atm", 0, 1 << 14);
  CompressorStream codec(cfg);
  const std::vector<std::byte> stream = codec.compress<f32>(data).stream;
  const bool v3 = StreamHeader::parse(stream).version >= kFormatVersionV3;
  const std::vector<f32> values(2 * 32, 1.5f);

  u64 lookbackSteps = 0;
  const Row strict = kernelRow(v3 ? "v3_decompress" : "decompress", [&] {
    lookbackSteps = codec.decompress<f32>(stream).profile.sync.lookbackSteps;
  });
  EXPECT_EQ(strict.dramBytes - 8 * lookbackSteps, want.strictBytes);
  if (v3) {
    EXPECT_DOUBLE_EQ(strict.modelledSeconds, want.strictSeconds);
  }

  const Row range = kernelRow("random_access_decode", [&] {
    lookbackSteps = codec.decompressBlocks<f32>(stream, 37, 9)
                        .profile.sync.lookbackSteps;
  });
  EXPECT_EQ(range.dramBytes - 8 * lookbackSteps, want.rangeBytes);
  if (v3) {
    EXPECT_DOUBLE_EQ(range.modelledSeconds, want.rangeSeconds);
  }

  const Row salvage = kernelRow(
      "salvage_decode", [&] { codec.decompressResilient<f32>(stream); });
  EXPECT_EQ(salvage.dramBytes, want.salvageBytes);
  EXPECT_DOUBLE_EQ(salvage.modelledSeconds, want.salvageSeconds);

  const Row replace = kernelRow("replace_blocks", [&] {
    codec.replaceBlocks<f32>(stream, 100, values);
  });
  EXPECT_EQ(replace.dramBytes, want.replaceBytes);
  EXPECT_DOUBLE_EQ(replace.modelledSeconds, want.replaceSeconds);
}

Config chargesConfig(u32 version) {
  Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.blockChecksums = version == 2;
  if (version == 3) cfg.pipeline = PipelineMode::Auto;
  return cfg;
}

// The footer is checked on the host, so v1 and v2 kernels charge alike.
constexpr Charges kLegacyCharges{.strictBytes = 87539,
                                 .rangeBytes = 2094,
                                 .salvageBytes = 87483,
                                 .salvageSeconds = 6.0607780000000003e-06,
                                 .replaceBytes = 782,
                                 .replaceSeconds = 6.0058780000000002e-06};

TEST(DecodeCharges, V1) { expectCharges(chargesConfig(1), kLegacyCharges); }

TEST(DecodeCharges, V2) { expectCharges(chargesConfig(2), kLegacyCharges); }

TEST(DecodeCharges, V3) {
  expectCharges(chargesConfig(3),
                {.strictBytes = 87483,
                 .strictSeconds = 6.0655359999999999e-06,
                 .rangeBytes = 2038,
                 .rangeSeconds = 6.0016639999999995e-06,
                 .salvageBytes = 87483,
                 .salvageSeconds = 6.0655359999999999e-06,
                 .replaceBytes = 782,
                 .replaceSeconds = 6.0016109999999995e-06});
}

}  // namespace
}  // namespace cuszp2::core
