// common/simd.hpp: the native (AVX2/NEON) kernels must be bit-identical
// drop-ins for the scalar loops they replace — the stream format, golden
// files and checksums all assume one canonical byte stream regardless of
// CUSZP2_SIMD. Each sweep below compares the native kernel against an
// independently written scalar reference across odd lengths (tails of
// 0..vector_width-1), unaligned base pointers, and — for the bit-plane
// kernels — every fixed-length 0..31.
//
// On hosts without the vector ISA the dispatchers report "not handled"
// and the sweeps skip; the codec-level test still runs (both modes then
// take the scalar path and trivially agree).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "core/fle.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

namespace {

/// Restores the dispatch mode on scope exit so test order can't leak an
/// override into unrelated tests.
struct ModeGuard {
  simd::Mode saved = simd::activeMode();
  ~ModeGuard() { simd::setMode(saved); }
};

// Lengths exercising every tail residue of an 8-lane kernel plus a few
// multi-vector sizes.
const usize kLengths[] = {0,  1,  2,  3,  4,  5,   6,   7,   8,   9,
                          15, 16, 17, 31, 32, 33,  63,  64,  65,  100,
                          255, 256, 257, 1000, 1024};

// Base-pointer misalignments (in elements) relative to a fresh vector,
// covering unaligned loads on every sweep.
const usize kOffsets[] = {0, 1, 2, 3, 5};

std::vector<i32> randomResiduals(u64 seed, usize n, i32 magnitude) {
  Rng rng(seed);
  std::vector<i32> v(n);
  for (i32& x : v) {
    x = static_cast<i32>(rng.next() % (2 * static_cast<u64>(magnitude) +
                                          1)) -
        magnitude;
  }
  return v;
}

}  // namespace

TEST(SimdTest, ScalarModeNeverClaimsWork) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Scalar);
  std::vector<i32> v(64, 1);
  std::vector<u32> abs(64);
  u32 m = 0;
  i32 res[64];
  i32 prev = 0;
  std::vector<f32> f(64, 1.0f);
  EXPECT_EQ(simd::quantizeDiffPrefix(1.0, std::span<const f32>(f), res,
                                     &prev),
            0u);
  EXPECT_FALSE(simd::maxAbsU32(v, &m));
  EXPECT_FALSE(simd::absI32(v, abs.data()));
  EXPECT_FALSE(simd::diffI32(v, res));
  EXPECT_FALSE(simd::prefixSumI32(v, res));
  u16 symbols[64];
  u32 changes = 0;
  u32 escapes = 0;
  EXPECT_FALSE(simd::symbolRuns(v, 1023, symbols, &changes, &escapes));
  EXPECT_FALSE(simd::lorenzo2dI32(v, res));
  EXPECT_FALSE(simd::lorenzo2dReconstructI32(v, res));
  const std::vector<u8> lengths(1024, 1);
  u64 bits = 0;
  EXPECT_FALSE(simd::huffmanBits(std::span<const u16>(symbols), lengths,
                                 1023, &bits, &escapes));
}

TEST(SimdTest, QuantizeDiffPrefixMatchesScalarF32) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const f64 eb = 1e-3;
  const f64 recip = 1.0 / (2.0 * eb);
  Rng rng(42);
  for (const usize n : kLengths) {
    for (const usize off : kOffsets) {
      std::vector<f32> buf(off + n);
      for (f32& x : buf) {
        x = static_cast<f32>(rng.uniform() * 2.0 - 1.0);
      }
      const std::span<const f32> values(buf.data() + off, n);

      // Scalar reference: the exact loop quantizeDiffBlock runs.
      std::vector<i32> want(n);
      i32 wantPrev = 0;
      for (usize i = 0; i < n; ++i) {
        const i32 q = static_cast<i32>(core::Quantizer::roundHalfAway(
            static_cast<f64>(values[i]) * recip));
        want[i] = q - wantPrev;
        wantPrev = q;
      }

      std::vector<i32> got(n);
      i32 prev = 0;
      const usize done =
          simd::quantizeDiffPrefix(recip, values, got.data(), &prev);
      ASSERT_NE(done, simd::kLaneFault);
      for (usize i = done; i < n; ++i) {  // caller's scalar tail
        const i32 q = static_cast<i32>(core::Quantizer::roundHalfAway(
            static_cast<f64>(values[i]) * recip));
        got[i] = q - prev;
        prev = q;
      }
      EXPECT_EQ(got, want) << "n=" << n << " off=" << off;
      EXPECT_EQ(prev, wantPrev) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, QuantizeDiffPrefixMatchesScalarF64) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const f64 recip = 1.0 / (2.0 * 1e-6);
  Rng rng(43);
  for (const usize n : kLengths) {
    for (const usize off : kOffsets) {
      std::vector<f64> buf(off + n);
      for (f64& x : buf) x = rng.uniform() * 0.5 - 0.25;
      const std::span<const f64> values(buf.data() + off, n);

      std::vector<i32> want(n);
      i32 wantPrev = 0;
      for (usize i = 0; i < n; ++i) {
        const i32 q = static_cast<i32>(
            core::Quantizer::roundHalfAway(values[i] * recip));
        want[i] = q - wantPrev;
        wantPrev = q;
      }

      std::vector<i32> got(n);
      i32 prev = 0;
      const usize done =
          simd::quantizeDiffPrefix(recip, values, got.data(), &prev);
      ASSERT_NE(done, simd::kLaneFault);
      for (usize i = done; i < n; ++i) {
        const i32 q = static_cast<i32>(
            core::Quantizer::roundHalfAway(values[i] * recip));
        got[i] = q - prev;
        prev = q;
      }
      EXPECT_EQ(got, want) << "n=" << n << " off=" << off;
      EXPECT_EQ(prev, wantPrev) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdTest, QuantizeDiffPrefixFaultsOnBadLanes) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const f32 bad[] = {std::numeric_limits<f32>::quiet_NaN(),
                     std::numeric_limits<f32>::infinity(),
                     -std::numeric_limits<f32>::infinity(), 1e30f, -1e30f};
  for (const f32 poison : bad) {
    for (usize pos = 0; pos < 8; ++pos) {
      std::vector<f32> values(16, 0.5f);
      values[pos] = poison;
      std::vector<i32> res(values.size());
      i32 prev = 0;
      EXPECT_EQ(simd::quantizeDiffPrefix(
                    1000.0, std::span<const f32>(values), res.data(), &prev),
                simd::kLaneFault)
          << "poison=" << poison << " pos=" << pos;
    }
  }
}

TEST(SimdTest, IntegerKernelsMatchScalar) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const i32 kEdges[] = {0, 1, -1, std::numeric_limits<i32>::max(),
                        std::numeric_limits<i32>::min()};
  u64 seed = 7;
  for (const usize n : kLengths) {
    for (const usize off : kOffsets) {
      std::vector<i32> buf = randomResiduals(seed++, off + n, 1 << 20);
      // Sprinkle the extreme values so abs(INT32_MIN) wrap behavior and
      // saturation-free paths are both covered.
      for (usize i = 0; i < buf.size(); ++i) {
        if (i % 17 == 3) buf[i] = kEdges[i % 5];
      }
      const std::span<const i32> v(buf.data() + off, n);

      u32 gotMax = 0;
      if (simd::maxAbsU32(v, &gotMax)) {
        u32 want = 0;
        for (const i32 x : v) want = std::max(want, absU32(x));
        EXPECT_EQ(gotMax, want) << "maxAbsU32 n=" << n << " off=" << off;
      }

      if (n % 8 == 0 && n > 0) {
        u32 gotTail = 0;
        if (simd::maxAbsTailU32(v, &gotTail)) {
          u32 want = 0;
          for (usize i = 1; i < n; ++i) want = std::max(want, absU32(v[i]));
          EXPECT_EQ(gotTail, want)
              << "maxAbsTailU32 n=" << n << " off=" << off;
        }
      }

      std::vector<u32> gotAbs(n);
      if (simd::absI32(v, gotAbs.data())) {
        for (usize i = 0; i < n; ++i) {
          ASSERT_EQ(gotAbs[i], absU32(v[i]))
              << "absI32 n=" << n << " off=" << off << " i=" << i;
        }
      }

      std::vector<i32> gotDiff(n);
      if (simd::diffI32(v, gotDiff.data())) {
        for (usize i = 0; i < n; ++i) {
          // Wrapping difference, computed in u32 (no signed overflow).
          const u32 prev = i == 0 ? 0u : static_cast<u32>(v[i - 1]);
          ASSERT_EQ(gotDiff[i], static_cast<i32>(static_cast<u32>(v[i]) - prev))
              << "diffI32 n=" << n << " off=" << off << " i=" << i;
        }
      }

      std::vector<i32> gotScan(n);
      if (simd::prefixSumI32(v, gotScan.data())) {
        i32 acc = 0;
        for (usize i = 0; i < n; ++i) {
          acc = static_cast<i32>(static_cast<u32>(acc) +
                                 static_cast<u32>(v[i]));
          ASSERT_EQ(gotScan[i], acc)
              << "prefixSumI32 n=" << n << " off=" << off << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, SignAndAbsKernelsMatchScalar) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  u64 seed = 11;
  for (const usize n : {usize{8}, usize{16}, usize{32}, usize{64},
                        usize{256}}) {
    for (const usize off : kOffsets) {
      std::vector<i32> buf = randomResiduals(seed++, off + n, 1 << 24);
      buf[off] = std::numeric_limits<i32>::min();  // abs wrap edge
      const std::span<const i32> v(buf.data() + off, n);

      std::vector<std::byte> wantSigns(n / 8);
      for (usize j = 0; j < n / 8; ++j) {
        u32 byte = 0;
        for (u32 k = 0; k < 8; ++k) {
          byte |= (v[j * 8 + k] < 0 ? 1u : 0u) << k;
        }
        wantSigns[j] = static_cast<std::byte>(byte);
      }

      std::vector<std::byte> gotSigns(n / 8);
      if (simd::packSigns(v, gotSigns.data())) {
        EXPECT_EQ(gotSigns, wantSigns)
            << "packSigns n=" << n << " off=" << off;
      }

      std::vector<u32> gotAbs(n);
      std::vector<std::byte> fusedSigns(n / 8);
      if (simd::absAndPackSigns(v, gotAbs.data(), fusedSigns.data())) {
        EXPECT_EQ(fusedSigns, wantSigns)
            << "absAndPackSigns n=" << n << " off=" << off;
        for (usize i = 0; i < n; ++i) {
          ASSERT_EQ(gotAbs[i], absU32(v[i]))
              << "absAndPackSigns abs n=" << n << " i=" << i;
        }
      }

      // applySigns must invert the pair (except the INT32_MIN lane, whose
      // abs is unrepresentable; use representable values for this leg).
      std::vector<u32> absVals(n);
      for (usize i = 0; i < n; ++i) {
        absVals[i] = absU32(v[i] == std::numeric_limits<i32>::min()
                                ? std::numeric_limits<i32>::min() + 1
                                : v[i]);
      }
      std::vector<i32> reconstructed(n);
      if (simd::applySigns(wantSigns.data(), absVals, reconstructed.data())) {
        for (usize i = 0; i < n; ++i) {
          const i32 want = core::signBit(wantSigns.data(), i)
                               ? -static_cast<i32>(absVals[i])
                               : static_cast<i32>(absVals[i]);
          ASSERT_EQ(reconstructed[i], want)
              << "applySigns n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, BitPlanePackUnpackAllWidths) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  Rng rng(99);
  for (u32 fl = 0; fl <= 31; ++fl) {
    for (const usize n : {usize{8}, usize{32}, usize{64}, usize{256}}) {
      std::vector<u32> vals(n);
      const u32 mask = fl == 0 ? 0u : (fl >= 32 ? ~0u : (1u << fl) - 1u);
      for (u32& x : vals) x = static_cast<u32>(rng.next()) & mask;
      if (fl > 0) vals[0] = mask;  // force the top plane to be exercised

      const usize pb = core::planeBytes(static_cast<u32>(n));
      std::vector<std::byte> want(fl * pb);
      core::packPlanesReference(vals, fl, want.data());

      // A guard region past the fl planes must stay untouched.
      std::vector<std::byte> got(fl * pb + 32, std::byte{0xAA});
      core::packPlanes(vals, fl, got.data());  // dispatches to native
      EXPECT_EQ(std::vector<std::byte>(got.begin(), got.begin() + fl * pb),
                want)
          << "packPlanes fl=" << fl << " n=" << n;
      EXPECT_EQ(std::count(got.begin() + fl * pb, got.end(), std::byte{0xAA}),
                32)
          << "packPlanes wrote past plane " << fl << " n=" << n;

      std::vector<u32> back(n, 123u);
      core::unpackPlanes(want.data(), fl, back);
      EXPECT_EQ(back, vals) << "unpackPlanes fl=" << fl << " n=" << n;
    }
  }
}

TEST(SimdTest, DequantizeMatchesScalar) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const f64 twoEb = 2.0 * 1e-3;
  u64 seed = 21;
  for (const usize n : kLengths) {
    for (const usize off : kOffsets) {
      std::vector<i32> buf = randomResiduals(seed++, off + n, 1 << 30);
      const std::span<const i32> q(buf.data() + off, n);

      std::vector<f32> got32(n);
      if (simd::dequantize(q, twoEb, got32.data())) {
        for (usize i = 0; i < n; ++i) {
          const f32 want =
              static_cast<f32>(static_cast<f64>(q[i]) * twoEb);
          ASSERT_EQ(std::bit_cast<u32>(got32[i]), std::bit_cast<u32>(want))
              << "dequantize f32 n=" << n << " i=" << i;
        }
      }

      std::vector<f64> got64(n);
      if (simd::dequantize(q, twoEb, got64.data())) {
        for (usize i = 0; i < n; ++i) {
          const f64 want = static_cast<f64>(q[i]) * twoEb;
          ASSERT_EQ(std::bit_cast<u64>(got64[i]), std::bit_cast<u64>(want))
              << "dequantize f64 n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, SumMaskedU64MatchesScalar) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  Rng rng(5);
  const u64 masks[] = {0, ~u64{0}, 0xFFFFFFFFull, 0xFFFF00000000ull};
  for (const usize n : kLengths) {
    std::vector<u64> words(n);
    for (u64& w : words) w = rng.next();
    for (const u64 mask : masks) {
      u64 got = 0;
      if (!simd::sumMaskedU64(words, mask, &got)) continue;
      u64 want = 0;
      for (const u64 w : words) want += w & mask;
      EXPECT_EQ(got, want) << "n=" << n << " mask=" << mask;
    }
  }
}

/// Bit pattern of a float, for exact comparisons that see NaN payloads
/// and the sign of zero.
template <typename T>
auto bitsOf(T v) {
  if constexpr (sizeof(T) == 4) {
    return std::bit_cast<u32>(v);
  } else {
    return std::bit_cast<u64>(v);
  }
}

/// The range reduction of every special shape: a seeded random field with
/// NaN at index 0, NaN in the interior and the tail, +-inf, -0/+0 ties and
/// a constant field. Native simd::minMax must return the scalar fold's
/// exact bits; the one allowed difference is which zero wins a -0/+0 tie,
/// and valueRange's REL bound must come out bit-identical regardless.
template <typename T>
void checkMinMaxAgainstScalar() {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  enum Shape { Random, NanHead, NanInside, Infs, Zeros, Constant, kShapes };
  Rng rng(sizeof(T));
  for (const usize n : kLengths) {
    if (n == 0) continue;
    for (const usize off : kOffsets) {
      for (int shape = 0; shape < kShapes; ++shape) {
        std::vector<T> buf(off + n);
        for (T& x : buf) x = static_cast<T>(rng.uniform() * 200.0 - 100.0);
        const std::span<T> v(buf.data() + off, n);
        switch (shape) {
          case NanHead: v[0] = nan; break;
          case NanInside:
            v[n / 2] = nan;
            v[n - 1] = nan;
            break;
          case Infs:
            v[rng.uniformInt(n)] = inf;
            v[rng.uniformInt(n)] = -inf;
            break;
          case Zeros:
            for (T& x : v) x = (rng.next() & 1) != 0 ? T{0} : -T{0};
            break;
          case Constant: std::fill(v.begin(), v.end(), T(3.25)); break;
          default: break;
        }

        // Independent reference: the fold valueRange documents.
        T wantLo = v[0];
        T wantHi = v[0];
        for (const T x : v) {
          wantLo = std::min(wantLo, x);
          wantHi = std::max(wantHi, x);
        }
        T lo = T{1};
        T hi = T{1};
        ASSERT_TRUE(simd::minMax(std::span<const T>(v), &lo, &hi));
        for (const auto& [got, want] : {std::pair{lo, wantLo},
                                        std::pair{hi, wantHi}}) {
          if (want == T{0}) {
            EXPECT_EQ(got, T{0}) << "n=" << n << " shape=" << shape;
          } else {
            EXPECT_EQ(bitsOf(got), bitsOf(want))
                << "n=" << n << " off=" << off << " shape=" << shape;
          }
        }

        const f64 nativeRange = metrics::valueRange(std::span<const T>(v));
        simd::setMode(simd::Mode::Scalar);
        const f64 scalarRange = metrics::valueRange(std::span<const T>(v));
        simd::setMode(simd::Mode::Native);
        EXPECT_EQ(bitsOf(core::Quantizer::absFromRel(1e-3, nativeRange)),
                  bitsOf(core::Quantizer::absFromRel(1e-3, scalarRange)))
            << "n=" << n << " off=" << off << " shape=" << shape;
      }
    }
  }
}

TEST(SimdTest, MinMaxMatchesScalarF32) { checkMinMaxAgainstScalar<f32>(); }

TEST(SimdTest, MinMaxMatchesScalarF64) { checkMinMaxAgainstScalar<f64>(); }

// The REL bound is resolved on the host before the kernel runs, so every
// writer that takes it — legacy v1, legacy v2, v3 Auto — must emit the
// same stream bytes whichever dispatch mode reduced the range.
TEST(SimdTest, RelBoundStreamsByteIdenticalAcrossModes) {
  ModeGuard guard;
  core::Config v1;
  v1.relErrorBound = 1e-3;
  core::Config v2 = v1;
  v2.blockChecksums = true;
  core::Config v3 = v1;
  v3.pipeline = core::PipelineMode::Auto;
  const usize n = 20003;  // partial last block, partial last vector
  const std::vector<f32> f32Fields[] = {datagen::generateF32("cesm_atm", 2, n),
                                        datagen::generateF32("hacc", 0, n),
                                        datagen::generateF32("jetin", 0, n)};
  const std::vector<f64> f64Field = datagen::generateF64("s3d", 1, n);

  for (const core::Config& cfg : {v1, v2, v3}) {
    auto compressBoth = [&](auto span) {
      using T = typename decltype(span)::value_type;
      simd::setMode(simd::Mode::Scalar);
      core::CompressorStream scalarCodec(cfg);
      const auto a = scalarCodec.compress<T>(span);
      simd::setMode(simd::Mode::Native);
      core::CompressorStream nativeCodec(cfg);
      const auto b = nativeCodec.compress<T>(span);
      EXPECT_EQ(a.stream, b.stream)
          << "pipeline=" << static_cast<int>(cfg.pipeline)
          << " blockChecksums=" << cfg.blockChecksums;
    };
    for (const std::vector<f32>& field : f32Fields) {
      compressBoth(std::span<const f32>(field));
    }
    compressBoth(std::span<const f64>(f64Field));
  }
}

// The end-to-end guarantee the sweeps above exist for: one canonical
// compressed byte stream per input, whatever the dispatch mode.
TEST(SimdTest, CompressedStreamsByteIdenticalAcrossModes) {
  ModeGuard guard;
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  cfg.checksum = true;
  for (const usize n : {usize{1}, usize{7}, usize{31}, usize{32},
                        usize{33}, usize{100}, usize{1000}, usize{4097}}) {
    const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, n);

    simd::setMode(simd::Mode::Scalar);
    core::CompressorStream scalarCodec(cfg);
    const core::Compressed a =
        scalarCodec.compress<f32>(std::span<const f32>(data));

    simd::setMode(simd::Mode::Native);
    core::CompressorStream nativeCodec(cfg);
    const core::Compressed b =
        nativeCodec.compress<f32>(std::span<const f32>(data));

    ASSERT_EQ(a.stream, b.stream) << "n=" << n;

    // And the decoders agree on the same stream.
    const auto da = scalarCodec.decompress<f32>(a.stream);
    simd::setMode(simd::Mode::Scalar);
    const auto db = nativeCodec.decompress<f32>(b.stream);
    ASSERT_EQ(da.data.size(), db.data.size());
    EXPECT_EQ(std::memcmp(da.data.data(), db.data.data(),
                          da.data.size() * sizeof(f32)),
              0)
        << "n=" << n;
  }
}
