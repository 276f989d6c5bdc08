// common/output_alloc.hpp and the decoders built on it: a fresh output
// must hold exactly n copies of the fill value whatever its size relative
// to a 2 MiB huge page, and routing the strict, batch-raw, block-range and
// salvage outputs through it must not change a decoded value. Whether the
// host actually backs the buffer with huge pages depends on its THP policy,
// so nothing here asserts that it did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/output_alloc.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"

namespace cuszp2 {
namespace {

template <typename T>
void expectFilled(usize n, T fill) {
  std::vector<T> out;
  allocOutput(out, n, fill);
  ASSERT_EQ(out.size(), n);
  EXPECT_GE(out.capacity(), n);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [&](const T& x) {
    return std::memcmp(&x, &fill, sizeof(T)) == 0;
  })) << "n=" << n;
}

TEST(OutputAlloc, SizeAndFillAcrossHugePageBoundaries) {
  const usize below = kHugePageBytes / sizeof(f32) - 3;  // < 2 MiB
  const usize exact = kHugePageBytes / sizeof(f32);      // == 2 MiB
  const usize large = 3 * kHugePageBytes / sizeof(f32) + 12345;
  for (const usize n : {usize{0}, usize{1}, below, exact, large}) {
    expectFilled<f32>(n, 0.0f);
    expectFilled<f32>(n, -7.5f);
  }
  expectFilled<f64>(0, -0.0);
  expectFilled<f64>(kHugePageBytes / sizeof(f64), -0.0);
  expectFilled<f64>(2 * kHugePageBytes / sizeof(f64) + 1, 1e300);
  expectFilled<std::byte>(kHugePageBytes + 1, std::byte{0xA5});
}

/// Field large enough that every decode output spans several huge pages.
constexpr usize kElems = 2 * kHugePageBytes / sizeof(f32) + 1000;

std::vector<f32> largeField() {
  return datagen::generateF32("cesm_atm", 1, kElems);
}

core::Config legacyConfig() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.blockChecksums = true;
  return cfg;
}

core::Config v3Config() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.pipeline = core::PipelineMode::Auto;
  return cfg;
}

TEST(OutputAlloc, BlockRangeMatchesFullDecode) {
  const std::vector<f32> field = largeField();
  for (const core::Config& cfg : {legacyConfig(), v3Config()}) {
    core::CompressorStream codec(cfg);
    const auto c = codec.compress<f32>(std::span<const f32>(field));
    const auto full = codec.decompress<f32>(c.stream);
    ASSERT_EQ(full.data.size(), field.size());
    const u64 numBlocks = (kElems + cfg.blockSize - 1) / cfg.blockSize;
    // A multi-huge-page range ending in the partial last block.
    const u64 first = 3;
    const auto range =
        codec.decompressBlocks<f32>(c.stream, first, numBlocks - first);
    ASSERT_EQ(range.firstElement, first * cfg.blockSize);
    ASSERT_EQ(range.values.size(), kElems - range.firstElement);
    EXPECT_EQ(std::memcmp(range.values.data(),
                          full.data.data() + range.firstElement,
                          range.values.size() * sizeof(f32)),
              0)
        << "pipeline=" << static_cast<int>(cfg.pipeline);
  }
}

TEST(OutputAlloc, BatchRawMatchesDecompress) {
  const std::vector<f32> field = largeField();
  core::CompressorStream codec(legacyConfig());
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto full = codec.decompress<f32>(c.stream);
  const ConstByteSpan streams[] = {c.stream, c.stream};
  const auto raw = codec.decompressBatchRaw(streams);
  ASSERT_EQ(raw.size(), 2u);
  for (const core::DecompressedRaw& r : raw) {
    ASSERT_EQ(r.data.size(), kElems * sizeof(f32));
    EXPECT_EQ(std::memcmp(r.data.data(), full.data.data(), r.data.size()),
              0);
  }
}

TEST(OutputAlloc, SalvageKeepsFillValueAndGoodBlocks) {
  const std::vector<f32> field = largeField();
  constexpr f32 kFill = -7.0f;
  for (const core::Config& cfg : {legacyConfig(), v3Config()}) {
    core::CompressorStream codec(cfg);
    const auto c = codec.compress<f32>(std::span<const f32>(field));
    const auto clean = codec.decompress<f32>(c.stream);

    std::vector<std::byte> damaged = c.stream;
    damaged[damaged.size() / 2] ^= std::byte{0x5A};
    const auto salvaged = codec.decompressResilient<f32>(damaged, kFill);
    ASSERT_TRUE(salvaged.report.headerOk);
    ASSERT_EQ(salvaged.data.size(), kElems);
    ASSERT_GT(salvaged.report.badBlocks, 0u);
    ASSERT_LT(salvaged.report.badBlocks, salvaged.report.totalBlocks);
    for (u64 b = 0; b < salvaged.report.totalBlocks; ++b) {
      const usize lo = b * cfg.blockSize;
      const usize hi = std::min<usize>(kElems, lo + cfg.blockSize);
      const bool good =
          salvaged.report.verdicts[b] == core::BlockVerdict::Good;
      for (usize i = lo; i < hi; ++i) {
        const f32 want = good ? clean.data[i] : kFill;
        ASSERT_EQ(std::memcmp(&salvaged.data[i], &want, sizeof(f32)), 0)
            << "pipeline=" << static_cast<int>(cfg.pipeline)
            << " block=" << b << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace cuszp2
