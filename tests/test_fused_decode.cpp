// The fused FLE block decode (simd::decodeFleBlock, reached through
// BlockCodec::decodeValues) against the chain it stands in for on the
// decode path: plane unpack + signs (decodeResiduals), the wrapping
// first-order prefix sum, then the f64 dequantize. Then the decoders that
// use it: strict, batch, range and salvage output of every format
// generation is byte-identical under CUSZP2_SIMD=scalar and native, and a
// fault-checked launch still rewrites zero blocks on its relaunch although
// an unchecked one leaves them to the zero-filled output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/block_codec.hpp"
#include "core/compressor.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "gpusim/launcher.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::core {
namespace {

struct ModeGuard {
  simd::Mode saved = simd::activeMode();
  ~ModeGuard() { simd::setMode(saved); }
};

constexpr u32 kBlock = 32;

enum class Signs { Random, AllSet, AllClear };

/// A payload of exactly 4 + outlierBytes + 4 * fl bytes, in its own heap
/// allocation so a read past it is a sanitizer error. `fill` sets every
/// outlier and plane byte (the largest magnitudes); otherwise they are
/// random.
std::unique_ptr<std::byte[]> makePayload(Rng& rng, u32 outlierBytes, u32 fl,
                                         Signs signs, bool fill,
                                         usize* bytes) {
  *bytes = 4 + outlierBytes + 4 * static_cast<usize>(fl);
  auto p = std::make_unique<std::byte[]>(*bytes);
  for (usize i = 0; i < *bytes; ++i) {
    const bool signByte = i < 4;
    u32 b = 0;
    if (signByte) {
      b = signs == Signs::AllSet     ? 0xFF
          : signs == Signs::AllClear ? 0x00
                                     : static_cast<u32>(rng.next() & 0xFF);
    } else {
      b = fill ? 0xFF : static_cast<u32>(rng.next() & 0xFF);
    }
    p[i] = static_cast<std::byte>(b);
  }
  return p;
}

/// The scalar chain: decodeResiduals, the u32 (wrapping) prefix sum of
/// the stream decoder, then Quantizer::dequantize's f64 multiply.
template <FloatingPoint T>
std::vector<T> chainDecode(const BlockCodec& codec, const BlockHeader& h,
                           const std::byte* payload, f64 eb, usize n) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Scalar);
  std::vector<i32> res(kBlock);
  codec.decodeResiduals(h, payload, res);
  const Quantizer quantizer(eb);
  std::vector<T> out(n);
  u32 q = 0;
  for (usize i = 0; i < n; ++i) {
    q += static_cast<u32>(res[i]);
    out[i] = quantizer.dequantize<T>(static_cast<i32>(q));
  }
  return out;
}

/// The fused pass into out[0..n) of a buffer with a guard band after it;
/// fails the test if the guard changed. Returns false when the pass did
/// not run.
template <FloatingPoint T>
bool fusedDecode(const BlockCodec& codec, const BlockHeader& h,
                 const std::byte* payload, f64 eb, usize n,
                 std::vector<T>* out) {
  constexpr usize kGuard = 16;
  std::vector<T> buf(n + kGuard);
  std::memset(buf.data(), 0xA5, buf.size() * sizeof(T));
  const bool ran = codec.decodeValues(h, payload, Quantizer(eb).twoEb(),
                                      std::span<T>(buf.data(), n));
  for (usize i = n; i < buf.size(); ++i) {
    u8 bytes[sizeof(T)];
    std::memcpy(bytes, &buf[i], sizeof(T));
    for (const u8 b : bytes) EXPECT_EQ(b, 0xA5) << "store past n = " << n;
  }
  buf.resize(n);
  *out = std::move(buf);
  return ran;
}

template <FloatingPoint T>
bool sameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Every plain fl 1-31 and outlier width 1-4 x fl 0-31 block, under random,
/// all-set and all-clear signs, with random and all-ones magnitudes (the
/// latter wrap the i32 scan), for every final-block length.
template <FloatingPoint T>
void checkFusedAgainstChain() {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const BlockCodec codec(kBlock);
  Rng rng(0xF05EDull);
  const f64 ebs[] = {1e-3, 0.37};
  usize cases = 0;
  for (u32 outlierBytes = 0; outlierBytes <= 4; ++outlierBytes) {
    for (u32 fl = outlierBytes == 0 ? 1 : 0; fl <= 31; ++fl) {
      for (const Signs signs : {Signs::Random, Signs::AllSet,
                                Signs::AllClear}) {
        for (const bool fill : {false, true}) {
          BlockHeader h;
          h.outlierMode = outlierBytes > 0;
          h.outlierBytes = outlierBytes > 0 ? outlierBytes : 1;
          h.fixedLength = fl;
          usize bytes = 0;
          const auto payload =
              makePayload(rng, outlierBytes, fl, signs, fill, &bytes);
          const f64 eb = ebs[cases % 2];
          const usize n = cases % 3 == 0 ? 1 + rng.uniformInt(kBlock)
                                         : kBlock;
          std::vector<T> fused;
          ASSERT_TRUE(fusedDecode(codec, h, payload.get(), eb, n, &fused));
          EXPECT_TRUE(sameBytes(
              fused, chainDecode<T>(codec, h, payload.get(), eb, n)))
              << "outlierBytes " << outlierBytes << " fl " << fl << " n "
              << n << " signs " << static_cast<int>(signs) << " fill "
              << fill;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 6u * (31 + 4 * 32));
}

TEST(FusedDecode, MatchesScalarChainF32) { checkFusedAgainstChain<f32>(); }
TEST(FusedDecode, MatchesScalarChainF64) { checkFusedAgainstChain<f64>(); }

TEST(FusedDecode, EveryFinalBlockLength) {
  ModeGuard guard;
  simd::setMode(simd::Mode::Native);
  if (!simd::nativeActive()) GTEST_SKIP() << "no vector ISA";
  const BlockCodec codec(kBlock);
  Rng rng(77);
  BlockHeader h;
  h.outlierMode = true;
  h.outlierBytes = 3;
  h.fixedLength = 13;
  usize bytes = 0;
  const auto payload = makePayload(rng, 3, 13, Signs::Random, false, &bytes);
  for (usize n = 1; n <= kBlock; ++n) {
    std::vector<f32> f;
    std::vector<f64> d;
    ASSERT_TRUE(fusedDecode(codec, h, payload.get(), 1e-2, n, &f));
    ASSERT_TRUE(fusedDecode(codec, h, payload.get(), 1e-2, n, &d));
    EXPECT_TRUE(
        sameBytes(f, chainDecode<f32>(codec, h, payload.get(), 1e-2, n)))
        << n;
    EXPECT_TRUE(
        sameBytes(d, chainDecode<f64>(codec, h, payload.get(), 1e-2, n)))
        << n;
  }
}

// Where the fused pass does not run, the caller keeps the chain: scalar
// mode, block sizes other than 32, and a plain fl == 0 block (no payload).
TEST(FusedDecode, DeclinesWhatItDoesNotCover) {
  ModeGuard guard;
  std::vector<std::byte> payload(4 + 4 + 4 * 31);
  std::vector<f32> out(64);
  BlockHeader plain;
  plain.fixedLength = 5;
  BlockHeader zero;
  simd::setMode(simd::Mode::Scalar);
  EXPECT_FALSE(BlockCodec(32).decodeValues(plain, payload.data(), 2e-3,
                                           std::span<f32>(out.data(), 32)));
  simd::setMode(simd::Mode::Native);
  for (const u32 L : {8u, 16u, 64u}) {
    EXPECT_FALSE(BlockCodec(L).decodeValues(plain, payload.data(), 2e-3,
                                            std::span<f32>(out.data(), L)));
  }
  EXPECT_FALSE(BlockCodec(32).decodeValues(zero, payload.data(), 2e-3,
                                           std::span<f32>(out.data(), 32)));
}

// ---- the decoders ------------------------------------------------------

/// Smooth with per-block jumps (outlier blocks), a run of exact zeros
/// (zero blocks) and a length that leaves a partial final block.
template <FloatingPoint T>
std::vector<T> mixedField(usize n) {
  std::vector<T> v(n);
  for (usize i = 0; i < n; ++i) {
    const f64 x = 0.003 * static_cast<f64>(i);
    const f64 jump = (i / 32) % 7 == 0 && i % 32 == 0 ? 40.0 : 0.0;
    v[i] = (i >= n / 3 && i < n / 2)
               ? T{}
               : static_cast<T>(20.0 * std::sin(x) + jump +
                                0.01 * static_cast<f64>(i % 5));
  }
  return v;
}

std::vector<Config> decoderConfigs() {
  std::vector<Config> out;
  Config v1;
  v1.absErrorBound = 1e-3;
  out.push_back(v1);
  Config v1Plain = v1;
  v1Plain.mode = EncodingMode::Plain;
  out.push_back(v1Plain);
  Config v1Second = v1;
  v1Second.predictor = Predictor::SecondOrder;
  out.push_back(v1Second);
  Config v2 = v1;
  v2.blockChecksums = true;
  v2.checksum = true;
  out.push_back(v2);
  Config v3 = v1;
  v3.pipeline = PipelineMode::Auto;
  v3.checksum = true;
  out.push_back(v3);
  return out;
}

/// Every decoded byte of one stream: strict, a two-stream batch, ranges
/// at the head, middle and partial tail, and salvage of a copy with one
/// flipped payload byte.
template <FloatingPoint T>
std::vector<std::byte> everyDecode(CompressorStream& codec,
                                   const std::vector<std::byte>& stream) {
  std::vector<std::byte> all;
  const auto append = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    all.insert(all.end(), p, p + v.size() * sizeof(v[0]));
  };
  append(codec.decompress<T>(stream).data);
  const ConstByteSpan batch[] = {stream, stream};
  for (const auto& raw : codec.decompressBatchRaw(batch)) append(raw.data);
  const u64 blocks = StreamHeader::parse(stream).numBlocks();
  for (const u64 first : {u64{0}, blocks / 2, blocks - 1}) {
    append(codec.decompressBlocks<T>(stream, first, 1).values);
  }
  std::vector<std::byte> damaged = stream;
  damaged[damaged.size() * 3 / 4] ^= std::byte{0x10};
  const auto salvaged = codec.decompressResilient<T>(damaged, T{-1});
  append(salvaged.data);
  append(salvaged.report.verdicts);
  return all;
}

template <FloatingPoint T>
void checkDecodersAcrossModes() {
  ModeGuard guard;
  const std::vector<T> data = mixedField<T>(20000 + 13);
  for (const Config& cfg : decoderConfigs()) {
    CompressorStream codec(cfg);
    const auto stream = codec.compress<T>(data).stream;
    simd::setMode(simd::Mode::Scalar);
    const auto scalar = everyDecode<T>(codec, stream);
    simd::setMode(simd::Mode::Native);
    const auto native = everyDecode<T>(codec, stream);
    EXPECT_EQ(scalar, native)
        << "version " << StreamHeader::parse(stream).version << " mode "
        << static_cast<int>(cfg.mode) << " predictor "
        << static_cast<int>(cfg.predictor);
  }
}

TEST(FusedDecode, DecodersByteIdenticalAcrossModesF32) {
  checkDecodersAcrossModes<f32>();
}

TEST(FusedDecode, DecodersByteIdenticalAcrossModesF64) {
  checkDecodersAcrossModes<f64>();
}

// A fault-checked launch keeps the zero-block stores: a bit flipped in a
// zero block after the launch must be rewritten by the relaunch, which
// the zero-filled output alone would not do.
TEST(FusedDecode, RelaunchRewritesZeroBlocks) {
  // JetIn-like: all zero but for a jet in the first 2 of 2048 blocks.
  const usize n = 2048 * kBlock;
  std::vector<f32> data(n, 0.0f);
  for (usize i = 0; i < 2 * kBlock; ++i) {
    data[i] = static_cast<f32>(std::sin(0.2 * static_cast<f64>(i)));
  }
  Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.faultRetries = 2;
  CompressorStream codec(cfg);
  const auto stream = codec.compress<f32>(data).stream;
  const auto clean = codec.decompress<f32>(stream);

  gpusim::FaultPlan plan;
  plan.seed = 11;
  plan.bitFlips = 4;
  // The flipped bytes are a pure function of the seed and the target size:
  // replay them on a zero buffer to show they all land in zero blocks.
  {
    std::vector<std::byte> probe(n * sizeof(f32));
    gpusim::Launcher replay;
    replay.setFaultPlan(plan);
    replay.launch(1, [](gpusim::BlockCtx&) {}, 0, probe);
    for (usize b = 0; b < probe.size(); ++b) {
      if (probe[b] != std::byte{0}) {
        EXPECT_GE(b / sizeof(f32) / kBlock, 2u) << "flip outside zero blocks";
      }
    }
  }
  plan.triggerLaunch = codec.launcher().launchCount();
  codec.launcher().setFaultPlan(plan);
  const auto retried = codec.decompress<f32>(stream);
  codec.launcher().clearFaultPlan();

  EXPECT_TRUE(sameBytes(retried.data, clean.data));
  EXPECT_EQ(codec.faultsDetected(), 1u);
  EXPECT_EQ(codec.faultRelaunches(), 1u);
}

// Every format generation joins one fused strict decode, also under a
// fault-retry budget with no fault armed: the kernel table counts one
// launch per distinct kernel name, and each member's bytes match its own
// decompress in both SIMD modes.
TEST(FusedDecode, BatchFusesEveryGenerationUnderRetryBudget) {
  ModeGuard guard;
  const std::vector<f32> data = mixedField<f32>(20000 + 13);
  Config v1;
  v1.absErrorBound = 1e-3;
  Config v2 = v1;
  v2.blockChecksums = true;
  v2.checksum = true;
  Config v3 = v1;
  v3.pipeline = PipelineMode::Auto;
  v3.checksum = true;
  std::vector<std::vector<std::byte>> streams;
  std::vector<ConstByteSpan> spans;
  for (const Config& cfg : {v1, v2, v3}) {
    streams.push_back(CompressorStream(cfg).compress<f32>(data).stream);
  }
  for (const auto& s : streams) spans.emplace_back(s);

  Config retry = v1;
  retry.faultRetries = 2;
  CompressorStream codec(retry);
  telemetry::MetricsRegistry& reg = telemetry::registry();
  std::vector<std::byte> perMode[2];
  for (const simd::Mode mode : {simd::Mode::Scalar, simd::Mode::Native}) {
    simd::setMode(mode);
    reg.setEnabled(true);
    reg.reset();
    const auto batch = codec.decompressBatchRaw(spans);
    std::map<std::string, u64> launches;
    for (const auto& row : reg.snapshotKernels()) {
      if (row.launches > 0) launches[row.name] = row.launches;
    }
    reg.setEnabled(false);
    EXPECT_EQ(launches, (std::map<std::string, u64>{{"decompress", 1},
                                                    {"v3_decompress", 1}}))
        << "mode " << static_cast<int>(mode);

    ASSERT_EQ(batch.size(), streams.size());
    std::vector<std::byte>& all = perMode[mode == simd::Mode::Native];
    for (usize i = 0; i < streams.size(); ++i) {
      const auto single = codec.decompress<f32>(streams[i]);
      ASSERT_EQ(batch[i].data.size(), single.data.size() * sizeof(f32));
      EXPECT_EQ(std::memcmp(batch[i].data.data(), single.data.data(),
                            batch[i].data.size()),
                0)
          << "stream " << i << " mode " << static_cast<int>(mode);
      all.insert(all.end(), batch[i].data.begin(), batch[i].data.end());
    }
  }
  reg.reset();
  EXPECT_EQ(perMode[0], perMode[1]);
  EXPECT_EQ(codec.faultsDetected(), 0u);
}

}  // namespace
}  // namespace cuszp2::core
