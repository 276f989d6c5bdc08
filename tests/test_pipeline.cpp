// Format-v3 pipeline tests: stage primitives (symbol mapping, Huffman
// table, RLE, Lorenzo-2D), the per-block selector's guarantees, the
// mixed-pipeline salvage regression (a corrupted Huffman block between
// intact FLE blocks quarantines exactly one block), dictionary-damage
// quarantine, v3 random access / block replacement, batch parity, and the
// service-layer rule that jobs never batch across pipeline policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "service/job.hpp"

namespace cuszp2 {
namespace {

using core::BlockCandidates;
using core::CompressorStream;
using core::Config;
using core::HuffDecoder;
using core::HuffTable;
using core::PipelineId;
using core::PipelineMode;
using core::StreamHeader;
using core::V3BlockDesc;

// ---- deterministic data shaped to force a mixed Auto selection ----------
//
// Even blocks are all-zero (FLE encodes them in 0 payload bytes — nothing
// can beat that); odd blocks carry skewed small-alphabet noise plus a few
// in-alphabet spikes, so plain FLE must widen every element to the spike
// magnitude while the shared-table Huffman encoding pays for the spikes
// only where they occur (comfortably beating FLE even with the u16
// entropy size prefix charged).
// With abs bound 0.01 the quantization step is 0.02 and every value below
// is an exact multiple, so the quantizer reproduces the intended residuals.

constexpr u32 kBlock = 32;
constexpr f64 kAbsBound = 0.01;

u64 lcgNext(u64& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

/// Residual drawn from a skewed small alphabet: mostly 0/±1, rare ±3.
i32 skewedResidual(u64& state) {
  const u64 r = lcgNext(state) % 16;
  if (r < 7) return 0;
  if (r < 10) return 1;
  if (r < 13) return -1;
  if (r < 14) return 2;
  if (r < 15) return -2;
  return 3;
}

std::vector<f32> mixedSelectionField(usize numBlocks, usize tailElems = 0) {
  std::vector<f32> field;
  field.reserve(numBlocks * kBlock + tailElems);
  u64 state = 0x5eed5eedULL;
  // Values are produced exactly as the decoder dequantizes (f64 multiply,
  // then narrow), so a clean round trip is bit-identical to the input.
  const f64 step = 2.0 * kAbsBound;
  for (usize blk = 0; blk < numBlocks; ++blk) {
    i32 q = 0;
    for (usize i = 0; i < kBlock; ++i) {
      if (blk % 2 == 1) {
        q += skewedResidual(state);
        if (i == 10) q += 37;  // rare large residuals: FLE widens the
        if (i == 20) q -= 53;  // whole block, Huffman pays per occurrence
      }
      field.push_back(static_cast<f32>(static_cast<f64>(q) * step));
    }
  }
  for (usize i = 0; i < tailElems; ++i) {
    field.push_back(static_cast<f32>(static_cast<f64>(i % 3) * step));
  }
  return field;
}

Config v3Config(PipelineMode mode) {
  Config cfg;
  cfg.absErrorBound = kAbsBound;
  cfg.blockSize = kBlock;
  cfg.pipeline = mode;
  return cfg;
}

/// Per-block pipeline ids of a v3 stream, from the descriptor array.
std::vector<PipelineId> streamPipelines(ConstByteSpan stream) {
  const StreamHeader header = StreamHeader::parse(stream);
  std::vector<PipelineId> ids;
  for (u64 blk = 0; blk < header.numBlocks(); ++blk) {
    const V3BlockDesc desc = V3BlockDesc::unpack(
        stream.data() + StreamHeader::offsetsBegin() + blk * core::kV3DescBytes);
    ids.push_back(desc.pipeline);
  }
  return ids;
}

/// Stream-relative byte offset of one block's payload in a v3 stream.
usize v3PayloadOffset(ConstByteSpan stream, u64 block) {
  const StreamHeader header = StreamHeader::parse(stream);
  const core::PayloadSizeTable psize(header.blockSize);
  const usize payloadEnd = stream.size() - header.footerBytes();
  usize cursor = header.payloadBegin();
  for (u64 blk = 0; blk < block; ++blk) {
    const V3BlockDesc desc = V3BlockDesc::unpack(
        stream.data() + StreamHeader::offsetsBegin() + blk * core::kV3DescBytes);
    cursor += desc.payloadBytes(psize, stream.data() + cursor,
                                payloadEnd - cursor);
  }
  return cursor;
}

// ---- stage primitives ---------------------------------------------------

TEST(PipelineStages, ZigzagAndSymbolMapping) {
  for (const i32 v : {0, 1, -1, 2, -2, 511, -511, 1 << 20, -(1 << 20)}) {
    EXPECT_EQ(core::zigzagDecode(core::zigzagEncode(v)), v) << v;
  }
  EXPECT_EQ(core::symbolOf(0), 0u);
  EXPECT_EQ(core::symbolOf(-1), 1u);
  EXPECT_EQ(core::symbolOf(1), 2u);
  // 511 zigzags to 1022 (last in-alphabet symbol); anything larger escapes.
  EXPECT_EQ(core::symbolOf(511), 1022u);
  EXPECT_EQ(core::symbolOf(-512), core::kEscapeSymbol);
  EXPECT_EQ(core::symbolOf(1 << 29), core::kEscapeSymbol);
}

TEST(PipelineStages, RleRoundTripWithRunsAndEscapes) {
  std::vector<i32> residuals;
  residuals.insert(residuals.end(), 300, 5);  // run longer than the 256 cap
  residuals.insert(residuals.end(), 10, -2);
  residuals.push_back(1 << 25);  // escape
  residuals.insert(residuals.end(), 40, 0);
  residuals.push_back(-(1 << 28));  // escape

  const usize bytes = core::rleBlockBytes([&] {
    std::vector<u16> symbols;
    for (const i32 r : residuals) symbols.push_back(core::symbolOf(r));
    return symbols;
  }());
  std::vector<std::byte> payload(bytes);
  ASSERT_EQ(core::encodeRleBlock(residuals, payload.data()), bytes);

  std::vector<i32> decoded(residuals.size());
  core::decodeRleBlock(payload, decoded);
  EXPECT_EQ(decoded, residuals);
}

TEST(PipelineStages, HuffmanTableAndBlockRoundTrip) {
  std::vector<u64> freq(core::kSymbolAlphabet, 0);
  freq[0] = 1000;
  freq[1] = 400;
  freq[2] = 380;
  freq[3] = 70;
  freq[4] = 60;
  freq[5] = 90;
  freq[6] = 85;
  freq[core::kEscapeSymbol] = 3;
  const HuffTable table = HuffTable::fromFrequencies(freq);
  ASSERT_FALSE(table.empty());

  // Wire round trip.
  std::vector<std::byte> wire(table.serializedBytes());
  table.serialize(wire.data());
  const HuffTable parsed = HuffTable::parse(wire);
  EXPECT_EQ(parsed.lengths, table.lengths);
  EXPECT_EQ(parsed.codes, table.codes);

  // Block round trip, escapes included.
  std::vector<i32> residuals = {0,  -1, 1,  0, 0, 2, -3, 0,
                                0,  1,  -1, 0, 0, 0, 1,  0,
                                -1, 0,  0,  1, 0, 0, -1, 1 << 26,
                                0,  0,  1,  0, 0, 0, -1, 0};
  std::vector<u16> symbols;
  for (const i32 r : residuals) symbols.push_back(core::symbolOf(r));
  const usize bytes = core::huffmanBlockBytes(symbols, table);
  ASSERT_NE(bytes, core::kInvalidSize);
  std::vector<std::byte> payload(bytes);
  ASSERT_EQ(core::encodeHuffmanBlock(residuals, table, payload.data()), bytes);

  const HuffDecoder decoder(table);
  std::vector<i32> decoded(residuals.size());
  core::decodeHuffmanBlock(payload, decoder, decoded);
  EXPECT_EQ(decoded, residuals);
}

TEST(PipelineStages, Lorenzo2dRoundTrip) {
  // A 4x8 tile (block of 32) with row/column structure Lorenzo removes.
  std::vector<i32> quants(32);
  for (usize r = 0; r < 4; ++r) {
    for (usize c = 0; c < 8; ++c) {
      quants[r * 8 + c] = static_cast<i32>(10 * r + 3 * c) - 15;
    }
  }
  std::vector<i32> residuals(32);
  ASSERT_TRUE(core::lorenzo2dResiduals(quants, residuals));
  std::vector<i32> rebuilt(32);
  core::lorenzo2dReconstruct(residuals, rebuilt);
  EXPECT_EQ(rebuilt, quants);
  // Interior of a bilinear surface predicts exactly.
  EXPECT_EQ(residuals[9], 0);
  EXPECT_EQ(residuals[31], 0);
}

// ---- write-path byte identity ---------------------------------------------
//
// The v3 write path sizes and encodes blocks with word-at-a-time and SIMD
// kernels. Each test below keeps the straightforward reference (the capped
// run walk, the i64 Lorenzo walk, the bit-serial Huffman writer) and
// checks the shipped function against it, in both dispatch modes where
// the function dispatches.

/// Restores the dispatch mode on scope exit.
struct ModeGuard {
  simd::Mode saved = simd::activeMode();
  ~ModeGuard() { simd::setMode(saved); }
};

constexpr simd::Mode kModes[] = {simd::Mode::Scalar, simd::Mode::Native};

std::vector<u16> symbolsOf(std::span<const i32> residuals) {
  std::vector<u16> symbols;
  for (const i32 r : residuals) symbols.push_back(core::symbolOf(r));
  return symbols;
}

/// RLE size by the run walk encodeRleBlock performs (runs capped at 256).
usize rleBytesByRunWalk(std::span<const u16> symbols) {
  usize runs = 0;
  usize escapes = 0;
  usize i = 0;
  while (i < symbols.size()) {
    usize j = i + 1;
    while (j < symbols.size() && symbols[j] == symbols[i] && j - i < 256) {
      ++j;
    }
    ++runs;
    if (symbols[i] == core::kEscapeSymbol) escapes += j - i;
    i = j;
  }
  return 2 + runs * 3 + escapes * 4;
}

TEST(PipelineWritePath, RleSizeMatchesRunWalkAndEncoder) {
  ModeGuard guard;
  for (const usize L : {usize{8}, usize{32}, usize{256}}) {
    std::vector<std::pair<std::string, std::vector<i32>>> blocks;
    blocks.emplace_back("single run", std::vector<i32>(L, 7));
    std::vector<i32> alternating(L);
    for (usize i = 0; i < L; ++i) alternating[i] = i % 2 == 0 ? 1 : -1;
    blocks.emplace_back("alternation", alternating);
    // Distinct residuals that all map to the escape symbol form one run.
    std::vector<i32> escapes(L);
    for (usize i = 0; i < L; ++i) {
      escapes[i] = (i % 2 == 0 ? 1 : -1) * ((1 << 20) + static_cast<i32>(i));
    }
    blocks.emplace_back("adjacent distinct escapes", escapes);
    std::vector<i32> mixed(L);
    u64 state = 0xabcdef ^ L;
    for (usize i = 0; i < L; ++i) {
      const u64 r = lcgNext(state) % 8;
      mixed[i] = r < 4 ? 0 : r < 6 ? skewedResidual(state)
                               : static_cast<i32>(lcgNext(state)) - (1 << 30);
    }
    blocks.emplace_back("mixed", mixed);

    for (const auto& [what, residuals] : blocks) {
      const std::vector<u16> symbols = symbolsOf(residuals);
      const usize want = rleBytesByRunWalk(symbols);
      EXPECT_EQ(core::rleBlockBytes(symbols), want) << what << " L=" << L;
      std::vector<std::byte> payload(want);
      EXPECT_EQ(core::encodeRleBlock(residuals, payload.data()), want)
          << what << " L=" << L;
      for (const simd::Mode mode : kModes) {
        simd::setMode(mode);
        std::vector<u16> got(L, 0xFFFF);
        EXPECT_EQ(core::symbolizeBlock(residuals, got), want)
            << what << " L=" << L << " mode=" << simd::modeName();
        EXPECT_EQ(got, symbols) << what << " L=" << L;
      }
    }
  }
  // The single 256-run and the adjacent escapes are exactly one run each.
  EXPECT_EQ(core::rleBlockBytes(std::vector<u16>(256, 3)), 2u + 3u);
  EXPECT_EQ(core::rleBlockBytes(std::vector<u16>(256, core::kEscapeSymbol)),
            2u + 3u + 256u * 4u);
}

/// The i64 reference walk lorenzo2dResiduals falls back to.
bool lorenzo2dReference(std::span<const i32> quants, std::span<i32> out) {
  for (usize i = 0; i < quants.size(); ++i) {
    const usize r = i / 8;
    const usize c = i % 8;
    const i64 west = c > 0 ? quants[i - 1] : 0;
    const i64 north = r > 0 ? quants[i - 8] : 0;
    const i64 northWest = r > 0 && c > 0 ? quants[i - 9] : 0;
    const i64 res = quants[i] - (west + north - northWest);
    if (res < std::numeric_limits<i32>::min() ||
        res > std::numeric_limits<i32>::max()) {
      return false;
    }
    out[i] = static_cast<i32>(res);
  }
  return true;
}

TEST(PipelineWritePath, Lorenzo2dMatchesReferenceAtTheFastPathBound) {
  ModeGuard guard;
  // A checkerboard of +-(2^29 - 1) drives every residual to its extreme,
  // 4 (2^29 - 1). With max |q| = 2^29 - 1 the block stays on the i32 fast
  // path; raising one cell to 2^29 sends it to the i64 walk. Both must
  // equal the reference.
  constexpr i32 kFast = (1 << 29) - 1;
  for (const i32 peak : {kFast, kFast + 1}) {
    for (const usize L : {usize{8}, usize{64}, usize{256}}) {
      std::vector<i32> quants(L);
      for (usize i = 0; i < L; ++i) {
        const bool neg = ((i / 8) + (i % 8)) % 2 == 1;
        quants[i] = neg ? -kFast : kFast;
      }
      quants[L / 2] = ((L / 2 / 8) + (L / 2 % 8)) % 2 == 1 ? -peak : peak;
      quants[L / 2 + 1] = 12345;  // break the pattern once
      std::vector<i32> want(L);
      ASSERT_TRUE(lorenzo2dReference(quants, want)) << peak;
      {
        simd::setMode(simd::Mode::Native);
        std::vector<i32> scratch(L);
        if (simd::nativeActive()) {
          EXPECT_EQ(simd::lorenzo2dI32(quants, scratch.data()), peak == kFast)
              << "peak=" << peak << " L=" << L;
        }
      }
      for (const simd::Mode mode : kModes) {
        simd::setMode(mode);
        std::vector<i32> got(L, -7);
        ASSERT_TRUE(core::lorenzo2dResiduals(quants, got))
            << "peak=" << peak << " L=" << L << " " << simd::modeName();
        EXPECT_EQ(got, want)
            << "peak=" << peak << " L=" << L << " " << simd::modeName();
      }
    }
  }
}

TEST(PipelineWritePath, Lorenzo2dReportsResidualOverflow) {
  ModeGuard guard;
  // Row 0 is a plain delta: INT32_MIN - INT32_MAX does not fit in i32.
  std::vector<i32> quants(16, 0);
  quants[0] = std::numeric_limits<i32>::max();
  quants[1] = std::numeric_limits<i32>::min();
  std::vector<i32> scratch(16);
  ASSERT_FALSE(lorenzo2dReference(quants, scratch));
  for (const simd::Mode mode : kModes) {
    simd::setMode(mode);
    EXPECT_FALSE(core::lorenzo2dResiduals(quants, scratch))
        << simd::modeName();
  }
}

/// The bit-serial Huffman writer: one bit at a time into a zeroed region.
usize bitSerialHuffmanBlock(std::span<const i32> residuals,
                            const HuffTable& table, std::byte* out) {
  usize bits = 0;
  for (const i32 r : residuals) bits += table.lengths[core::symbolOf(r)];
  const usize codedBytes = (bits + 7) / 8;
  out[0] = static_cast<std::byte>(bits & 0xFFu);
  out[1] = static_cast<std::byte>(bits >> 8);
  std::fill(out + 2, out + 2 + codedBytes, std::byte{0});
  usize bitPos = 0;
  std::byte* escapes = out + 2 + codedBytes;
  for (const i32 r : residuals) {
    const u16 s = core::symbolOf(r);
    for (i32 b = table.lengths[s] - 1; b >= 0; --b) {
      if ((table.codes[s] >> b) & 1u) {
        out[2 + (bitPos >> 3)] |= static_cast<std::byte>(0x80u >> (bitPos & 7));
      }
      ++bitPos;
    }
    if (s == core::kEscapeSymbol) {
      for (int k = 0; k < 4; ++k) {
        escapes[k] = static_cast<std::byte>((static_cast<u32>(r) >> (8 * k)) &
                                            0xFFu);
      }
      escapes += 4;
    }
  }
  return static_cast<usize>(escapes - out);
}

/// Geometric frequencies over symbols 0-31 plus the escape: a table with
/// every code length from 1 to 32.
HuffTable allLengthsTable() {
  std::vector<u64> freq(core::kSymbolAlphabet, 0);
  for (u32 s = 0; s <= 30; ++s) freq[s] = u64{1} << (31 - s);
  freq[31] = 1;
  freq[core::kEscapeSymbol] = 1;
  return HuffTable::fromFrequencies(freq);
}

/// A block of L residuals over allLengthsTable()'s symbols; every fourth
/// trial sticks to the three shortest codes.
std::vector<i32> allLengthsBlock(usize L, int trial, u64& state) {
  std::vector<i32> residuals(L);
  for (i32& r : residuals) {
    const u32 s = static_cast<u32>(lcgNext(state) % 33);
    r = s == 32 ? static_cast<i32>(lcgNext(state)) | (1 << 20)
                : core::zigzagDecode(trial % 4 == 0 ? s % 3 : s);
  }
  return residuals;
}

TEST(PipelineWritePath, HuffmanWriterMatchesBitSerialWriter) {
  const HuffTable table = allLengthsTable();
  u8 longest = 0;
  for (const u8 l : table.lengths) longest = std::max(longest, l);
  ASSERT_EQ(longest, 32);

  u64 state = 0x48756666;
  for (const usize L : {usize{8}, usize{32}, usize{256}}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<i32> residuals = allLengthsBlock(L, trial, state);
      const usize bytes = core::huffmanBlockBytes(symbolsOf(residuals), table);
      std::vector<std::byte> want(bytes, std::byte{0xAA});
      std::vector<std::byte> got(bytes, std::byte{0x55});
      ASSERT_EQ(bitSerialHuffmanBlock(residuals, table, want.data()), bytes);
      ASSERT_EQ(core::encodeHuffmanBlock(residuals, table, got.data()), bytes);
      EXPECT_EQ(got, want) << "L=" << L << " trial=" << trial;
    }
  }
}

TEST(PipelineWritePath, AutoChecksumStreamsByteIdenticalAcrossModes) {
  ModeGuard guard;
  Config cfg = v3Config(PipelineMode::Auto);
  cfg.checksum = true;
  const std::vector<f32> field = mixedSelectionField(96, 13);
  std::vector<std::byte> streams[2];
  for (usize m = 0; m < 2; ++m) {
    simd::setMode(kModes[m]);
    CompressorStream codec(cfg);
    streams[m] = codec.compress<f32>(std::span<const f32>(field)).stream;
  }
  EXPECT_EQ(streams[0], streams[1]);
  usize huff = 0;
  for (const PipelineId id : streamPipelines(streams[0])) {
    huff += id == PipelineId::Huffman;
  }
  EXPECT_GE(huff, 16u);
  EXPECT_NE(StreamHeader::parse(streams[0]).checksum, 0u);
}

// ---- read-path equivalence ------------------------------------------------
//
// The v3 read path decodes Huffman codes through a lookup table and
// rebuilds Lorenzo blocks with a vector scan. Each test keeps the
// straightforward reference (the canonical bit walk, the scalar i64
// reconstruction) and checks the shipped path against it.

/// What one decoder makes of bits [0, bitLimit): every symbol with the bit
/// position after it, then the error that ends the walk (decoding goes one
/// symbol past the limit, so a clean walk ends in an overrun).
struct DecodeTrace {
  std::vector<std::pair<u16, usize>> steps;
  std::string error;

  bool operator==(const DecodeTrace&) const = default;
};

/// One symbol through the lookup-table decoder.
u16 decodeOne(const HuffDecoder& decoder, const std::byte* bits,
              usize bitLimit, usize& bitPos) {
  u16 s = 0;
  decoder.decodeSymbols(bits, bitLimit, bitPos, std::span<u16>(&s, 1));
  return s;
}

template <typename Decode>
DecodeTrace traceDecode(const Decode& decode, usize bitLimit) {
  DecodeTrace t;
  usize bitPos = 0;
  try {
    for (;;) {
      const u16 s = decode(bitLimit, bitPos);
      t.steps.emplace_back(s, bitPos);
    }
  } catch (const Error& e) {
    t.error = e.what();
  }
  return t;
}

/// Table lookup and canonical walk over the same bits, cut at `bitLimit`.
void expectSameDecode(const HuffDecoder& decoder, const std::byte* bits,
                      usize bitLimit, const std::string& what) {
  const DecodeTrace table = traceDecode(
      [&](usize limit, usize& pos) {
        return decodeOne(decoder, bits, limit, pos);
      },
      bitLimit);
  const DecodeTrace walk = traceDecode(
      [&](usize limit, usize& pos) {
        return decoder.decodeSymbolCanonical(bits, limit, pos);
      },
      bitLimit);
  EXPECT_EQ(table, walk) << what << " bitLimit=" << bitLimit << " table: "
                         << table.error << " walk: " << walk.error;
  // The same symbols in one call, which reuses its bit window across them.
  std::vector<u16> batch(walk.steps.size() + 1, 0xFFFF);
  usize pos = 0;
  std::string error;
  try {
    decoder.decodeSymbols(bits, bitLimit, pos, batch);
  } catch (const Error& e) {
    error = e.what();
  }
  EXPECT_EQ(error, walk.error) << what << " bitLimit=" << bitLimit;
  for (usize k = 0; k < walk.steps.size(); ++k) {
    ASSERT_EQ(batch[k], walk.steps[k].first)
        << what << " bitLimit=" << bitLimit << " symbol " << k;
  }
}

/// The code section of one encoded Huffman block (bit count, bytes).
std::pair<usize, std::vector<std::byte>> codedBits(
    std::span<const i32> residuals, const HuffTable& table) {
  std::vector<std::byte> payload(
      core::huffmanBlockBytes(symbolsOf(residuals), table));
  core::encodeHuffmanBlock(residuals, table, payload.data());
  const usize bitCount = std::to_integer<usize>(payload[0]) |
                         (std::to_integer<usize>(payload[1]) << 8);
  return {bitCount, std::vector<std::byte>(
                        payload.begin() + 2,
                        payload.begin() + 2 + static_cast<std::ptrdiff_t>(
                                                  (bitCount + 7) / 8))};
}

TEST(PipelineReadPath, TableDecoderMatchesCanonicalWalk) {
  // Code lengths 1-32: codes up to 11 bits resolve in the table, the rest
  // take the walk. Every block is decoded whole and cut at every bit.
  const HuffTable table = allLengthsTable();
  const HuffDecoder decoder(table);
  u64 state = 0x7ab1e;
  for (const usize L : {usize{8}, usize{32}, usize{256}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<i32> residuals = allLengthsBlock(L, trial, state);
      const auto [bitCount, bits] = codedBits(residuals, table);
      std::vector<i32> decoded(L);
      std::vector<std::byte> payload(
          core::huffmanBlockBytes(symbolsOf(residuals), table));
      core::encodeHuffmanBlock(residuals, table, payload.data());
      core::decodeHuffmanBlock(payload, decoder, decoded);
      EXPECT_EQ(decoded, residuals) << "L=" << L << " trial=" << trial;
      for (usize cut = 0; cut <= bitCount; ++cut) {
        expectSameDecode(decoder, bits.data(), cut,
                         "L=" + std::to_string(L) + " trial=" +
                             std::to_string(trial));
      }
    }
  }
  // Random bits read as codes of every length, valid or not.
  std::vector<std::byte> noise(64);
  for (std::byte& b : noise) b = static_cast<std::byte>(lcgNext(state));
  expectSameDecode(decoder, noise.data(), noise.size() * 8, "noise");
}

TEST(PipelineReadPath, SingleSymbolTable) {
  std::vector<u64> freq(core::kSymbolAlphabet, 0);
  freq[4] = 100;
  const HuffTable table = HuffTable::fromFrequencies(freq);
  const HuffDecoder decoder(table);
  const std::vector<i32> residuals(32, core::zigzagDecode(4));
  const auto [bitCount, bits] = codedBits(residuals, table);
  ASSERT_EQ(bitCount, 32u * table.lengths[4]);
  for (usize cut = 0; cut <= bitCount; ++cut) {
    expectSameDecode(decoder, bits.data(), cut, "single symbol");
  }
  // The other one-bit pattern is no code at all.
  const std::byte ones[2] = {std::byte{0xFF}, std::byte{0xFF}};
  usize pos = 0;
  try {
    decodeOne(decoder, ones, 16, pos);
    ADD_FAILURE() << "decoded a code the table does not have";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "Huffman block: invalid code in stream");
  }
  expectSameDecode(decoder, ones, 16, "single symbol, ones");
}

TEST(PipelineReadPath, UnusedCodePrefixIsAnInvalidCode) {
  // Lengths {1, 3} leave the prefixes 101 and 11 unassigned (the table
  // parser admits incomplete codes: the Kraft sum is only bounded above).
  const std::byte wire[] = {std::byte{2},    std::byte{0}, std::byte{0},
                            std::byte{0},    std::byte{1}, std::byte{1},
                            std::byte{0},    std::byte{3}};
  const HuffTable table = HuffTable::parse(wire);
  const HuffDecoder decoder(table);
  // 0 | 100 | 0 | 101...: symbols 0, 1, 0, then an unused prefix.
  const std::byte bits[2] = {std::byte{0b01000101}, std::byte{0b10000000}};
  usize pos = 0;
  EXPECT_EQ(decodeOne(decoder, bits, 16, pos), 0u);
  EXPECT_EQ(decodeOne(decoder, bits, 16, pos), 1u);
  EXPECT_EQ(decodeOne(decoder, bits, 16, pos), 0u);
  try {
    decodeOne(decoder, bits, 16, pos);
    ADD_FAILURE() << "decoded the unused prefix 101";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "Huffman block: invalid code in stream");
  }
  for (usize cut = 0; cut <= 16; ++cut) {
    expectSameDecode(decoder, bits, cut, "unused prefix");
  }
  const std::byte ones[1] = {std::byte{0xFF}};
  expectSameDecode(decoder, ones, 8, "unused prefix 11");
}

TEST(PipelineReadPath, EscapeShortageBeforeABadCodeIsReportedFirst) {
  // Codes 0 -> "0", escape -> "10"; "11" is unused. The block's first
  // symbol is an escape with no escape bytes behind it, and its second
  // code is invalid: stream order makes the escape shortage the error.
  const std::byte wire[] = {std::byte{2}, std::byte{0},    std::byte{0},
                            std::byte{0}, std::byte{1},    std::byte{0xFF},
                            std::byte{3}, std::byte{2}};
  const HuffDecoder decoder(HuffTable::parse(wire));
  const std::byte payload[] = {std::byte{4}, std::byte{0},
                               std::byte{0b10110000}};
  std::vector<i32> residuals(8);
  try {
    core::decodeHuffmanBlock(payload, decoder, residuals);
    ADD_FAILURE() << "decoded a block with no escape bytes";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "Huffman block: truncated escape section");
  }
}

TEST(PipelineReadPath, HuffmanBlockBytesMatchAcrossModes) {
  ModeGuard guard;
  const HuffTable table = allLengthsTable();
  u64 state = 0x5a5a;
  for (const usize L : {usize{8}, usize{32}, usize{256}}) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<u16> symbols = symbolsOf(allLengthsBlock(L, trial, state));
      usize bits = 0;
      usize escapes = 0;
      for (const u16 s : symbols) {
        bits += table.lengths[s];
        escapes += s == core::kEscapeSymbol;
      }
      const usize want = 2 + (bits + 7) / 8 + escapes * 4;
      if (trial % 4 == 3) symbols[lcgNext(state) % L] = 700;  // no code
      for (const simd::Mode mode : kModes) {
        simd::setMode(mode);
        EXPECT_EQ(core::huffmanBlockBytes(symbols, table),
                  trial % 4 == 3 ? core::kInvalidSize : want)
            << "L=" << L << " trial=" << trial << " " << simd::modeName();
      }
    }
  }
}

TEST(PipelineReadPath, Lorenzo2dReconstructMatchesScalarAtFullRange) {
  ModeGuard guard;
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  u64 state = 0x10e2;
  for (const usize L : {usize{8}, usize{32}, usize{256}}) {
    for (int trial = 0; trial < 6; ++trial) {
      // Residuals at +-2^31, full-range noise and small values: the i64
      // sums leave i32 and truncate; the vector path wraps to the same.
      std::vector<i32> residuals(L);
      for (usize i = 0; i < L; ++i) {
        const u64 r = lcgNext(state) % 4;
        residuals[i] = r == 0   ? (trial % 2 == 0 ? kMin : kMax)
                       : r == 1 ? static_cast<i32>(static_cast<u32>(
                                      lcgNext(state) << 1 ^ lcgNext(state)))
                                : static_cast<i32>(lcgNext(state) % 7) - 3;
      }
      std::vector<i32> want(L, 1);
      simd::setMode(simd::Mode::Scalar);
      core::lorenzo2dReconstruct(residuals, want);
      simd::setMode(simd::Mode::Native);
      std::vector<i32> got(L, 2);
      core::lorenzo2dReconstruct(residuals, got);
      EXPECT_EQ(got, want) << "L=" << L << " trial=" << trial;
    }
  }
  // Forward then inverse gives the quants back, in both modes, on both
  // sides of the forward pass's 2^29 fast-path bound.
  for (const usize L : {usize{8}, usize{32}, usize{256}}) {
    for (const i32 peak : {1000, (1 << 29) - 1, 1 << 29, 1 << 30}) {
      std::vector<i32> quants(L);
      for (i32& q : quants) {
        q = static_cast<i32>(lcgNext(state) % (2 * static_cast<u64>(peak) + 1)) -
            peak;
      }
      for (const simd::Mode mode : kModes) {
        simd::setMode(mode);
        std::vector<i32> residuals(L);
        if (!core::lorenzo2dResiduals(quants, residuals)) continue;
        std::vector<i32> rebuilt(L);
        core::lorenzo2dReconstruct(residuals, rebuilt);
        EXPECT_EQ(rebuilt, quants)
            << "L=" << L << " peak=" << peak << " " << simd::modeName();
      }
    }
  }
}

TEST(PipelineStages, PipelineTableMatchesWireIds) {
  const auto table = core::pipelineTable();
  ASSERT_EQ(table.size(), core::kPipelineCount);
  for (u32 i = 0; i < core::kPipelineCount; ++i) {
    EXPECT_EQ(static_cast<u32>(table[i].id), i);
  }
  EXPECT_EQ(table[0].predict, core::PredictStage::Delta1);
  EXPECT_EQ(table[0].encode, core::EncodeStage::Fle);
  EXPECT_EQ(table[3].predict, core::PredictStage::Lorenzo2D);
  EXPECT_EQ(table[3].encode, core::EncodeStage::Fle);
}

// ---- selector -----------------------------------------------------------

TEST(PipelineSelector, AutoPicksPerBlockMinimumAndChargesTable) {
  std::vector<BlockCandidates> blocks(3);
  // Block 0: FLE wins outright.
  blocks[0].bytes[0] = 4;
  blocks[0].bytes[1] = 10;
  blocks[0].bytes[2] = 12;
  blocks[0].bytes[3] = 9;
  // Block 1: Huffman would save 20 bytes.
  blocks[1].bytes[0] = 30;
  blocks[1].bytes[1] = 10;
  blocks[1].bytes[2] = 40;
  blocks[1].bytes[3] = 28;
  // Block 2: RLE wins.
  blocks[2].bytes[0] = 20;
  blocks[2].bytes[1] = 18;
  blocks[2].bytes[2] = 6;
  blocks[2].bytes[3] = 22;

  // Table cheaper than Huffman's savings: admitted.
  auto sel = core::selectPipelines(blocks, PipelineMode::Auto, 15);
  EXPECT_TRUE(sel.usesHuffman);
  EXPECT_EQ(sel.choice[0], PipelineId::Fle);
  EXPECT_EQ(sel.choice[1], PipelineId::Huffman);
  EXPECT_EQ(sel.choice[2], PipelineId::Rle);
  EXPECT_EQ(sel.totalPayload, 4u + 10u + 6u);

  // Table dearer than the savings: Huffman rejected stream-wide.
  sel = core::selectPipelines(blocks, PipelineMode::Auto, 100);
  EXPECT_FALSE(sel.usesHuffman);
  EXPECT_EQ(sel.choice[1], PipelineId::LorenzoFle);
  EXPECT_EQ(sel.totalPayload, 4u + 28u + 6u);
}

TEST(PipelineSelector, PinnedFallsBackToFleWhenInvalid) {
  std::vector<BlockCandidates> blocks(2);
  blocks[0].bytes[0] = 7;
  blocks[0].bytes[3] = 5;
  blocks[1].bytes[0] = 9;
  blocks[1].bytes[3] = core::kInvalidSize;  // Lorenzo residual overflow

  const auto sel =
      core::selectPipelines(blocks, PipelineMode::LorenzoFle, 0);
  EXPECT_EQ(sel.choice[0], PipelineId::LorenzoFle);
  EXPECT_EQ(sel.choice[1], PipelineId::Fle);
  EXPECT_EQ(sel.totalPayload, 5u + 9u);
  EXPECT_FALSE(sel.usesHuffman);
}

// ---- mixed-stream behaviour and the salvage regression ------------------

TEST(PipelineV3, AutoSelectsMixedPipelinesOnShapedData) {
  const std::vector<f32> field = mixedSelectionField(64);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));

  const StreamHeader header = StreamHeader::parse(c.stream);
  EXPECT_EQ(header.version, core::kFormatVersionV3);
  EXPECT_GT(header.dictBytes, 8u);  // shared Huffman table admitted

  usize fle = 0;
  usize huff = 0;
  for (const PipelineId id : streamPipelines(c.stream)) {
    fle += id == PipelineId::Fle;
    huff += id == PipelineId::Huffman;
  }
  EXPECT_GE(fle, 16u);
  EXPECT_GE(huff, 16u);

  // The mixed stream must also beat pinned-FLE on this data.
  CompressorStream pinned(v3Config(PipelineMode::Fle));
  const auto cFle = pinned.compress<f32>(std::span<const f32>(field));
  EXPECT_LT(c.stream.size(), cFle.stream.size());

  const auto d = codec.decompress<f32>(c.stream);
  ASSERT_EQ(d.data.size(), field.size());
  EXPECT_EQ(std::memcmp(d.data.data(), field.data(),
                        field.size() * sizeof(f32)),
            0);
}

/// Regression (the satellite fix): one corrupted Huffman block between two
/// intact FLE blocks quarantines exactly that block; both neighbours and
/// every other block decode bit-exactly, and the dictionary stays good.
TEST(PipelineV3, SalvageQuarantinesOneHuffmanBlockBetweenFleBlocks) {
  const std::vector<f32> field = mixedSelectionField(64);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto clean = codec.decompress<f32>(c.stream);

  // Find a Huffman block with FLE blocks on both sides (the shaped data's
  // even/odd structure guarantees one exists).
  const std::vector<PipelineId> ids = streamPipelines(c.stream);
  usize victim = ids.size();
  for (usize blk = 1; blk + 1 < ids.size(); ++blk) {
    if (ids[blk] == PipelineId::Huffman && ids[blk - 1] == PipelineId::Fle &&
        ids[blk + 1] == PipelineId::Fle) {
      victim = blk;
      break;
    }
  }
  ASSERT_LT(victim, ids.size()) << "shaped data produced no FLE/Huffman/FLE "
                                   "sandwich; selection changed?";

  std::vector<std::byte> corrupt = c.stream;
  const usize payloadAt = v3PayloadOffset(corrupt, victim);
  corrupt[payloadAt + 2] ^= std::byte{0x5a};

  const auto s = codec.decompressResilient<f32>(
      ConstByteSpan(corrupt), std::numeric_limits<f32>::quiet_NaN());
  EXPECT_TRUE(s.report.headerOk);
  EXPECT_TRUE(s.report.blockChecksums);
  EXPECT_TRUE(s.report.dictionaryOk);
  EXPECT_FALSE(s.report.framingDamaged);
  EXPECT_EQ(s.report.badBlocks, 1u);
  EXPECT_EQ(s.report.goodBlocks, ids.size() - 1);
  EXPECT_EQ(s.report.firstCorruptOffset, payloadAt);
  ASSERT_EQ(s.report.verdicts.size(), ids.size());
  for (usize blk = 0; blk < ids.size(); ++blk) {
    if (blk == victim) {
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::ChecksumMismatch);
    } else {
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::Good) << blk;
    }
  }

  // Quarantined elements hold the fill; every other element is bit-exact.
  ASSERT_EQ(s.data.size(), field.size());
  for (usize i = 0; i < s.data.size(); ++i) {
    if (i / kBlock == victim) {
      EXPECT_TRUE(std::isnan(s.data[i])) << i;
    } else {
      EXPECT_EQ(std::memcmp(&s.data[i], &clean.data[i], sizeof(f32)), 0) << i;
    }
  }
}

/// Dictionary damage quarantines exactly the Huffman blocks: the shared
/// table fails its CRC, so table-free pipelines still decode bit-exactly.
TEST(PipelineV3, SalvageSurvivesDictionaryCorruption) {
  const std::vector<f32> field = mixedSelectionField(64);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto clean = codec.decompress<f32>(c.stream);
  const StreamHeader header = StreamHeader::parse(c.stream);
  ASSERT_GT(header.dictBytes, 8u);

  std::vector<std::byte> corrupt = c.stream;
  corrupt[header.dictBegin() + 8 + 3] ^= std::byte{0xff};

  const auto s = codec.decompressResilient<f32>(ConstByteSpan(corrupt), 0.0f);
  const std::vector<PipelineId> ids = streamPipelines(c.stream);
  EXPECT_TRUE(s.report.headerOk);
  EXPECT_FALSE(s.report.dictionaryOk);
  EXPECT_FALSE(s.report.clean());
  ASSERT_EQ(s.report.verdicts.size(), ids.size());
  usize huffBlocks = 0;
  for (usize blk = 0; blk < ids.size(); ++blk) {
    if (ids[blk] == PipelineId::Huffman) {
      ++huffBlocks;
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::DecodeError)
          << blk;
      for (usize i = blk * kBlock; i < (blk + 1) * kBlock; ++i) {
        EXPECT_EQ(s.data[i], 0.0f) << i;
      }
    } else {
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::Good) << blk;
      for (usize i = blk * kBlock; i < (blk + 1) * kBlock; ++i) {
        EXPECT_EQ(std::memcmp(&s.data[i], &clean.data[i], sizeof(f32)), 0)
            << i;
      }
    }
  }
  EXPECT_EQ(s.report.badBlocks, huffBlocks);
  EXPECT_GT(huffBlocks, 0u);
}

TEST(PipelineV3, IntactStreamSalvagesClean) {
  const std::vector<f32> field = mixedSelectionField(16, 13);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto s = codec.decompressResilient<f32>(ConstByteSpan(c.stream));
  EXPECT_TRUE(s.report.clean());
  EXPECT_EQ(s.report.badBlocks, 0u);
  EXPECT_EQ(s.report.goodBlocks, s.report.totalBlocks);
}

// ---- v3 random access, replacement, batch parity ------------------------

TEST(PipelineV3, RandomAccessMatchesFullDecode) {
  const std::vector<f32> field = mixedSelectionField(32, 7);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto full = codec.decompress<f32>(c.stream);

  const StreamHeader header = StreamHeader::parse(c.stream);
  const std::vector<std::pair<u64, u64>> ranges = {
      {0, 1}, {3, 5}, {30, 3}, {0, header.numBlocks()}};
  for (const auto& [first, count] : ranges) {
    const auto r = codec.decompressBlocks<f32>(c.stream, first, count);
    EXPECT_EQ(r.firstElement, first * kBlock);
    const usize begin = static_cast<usize>(r.firstElement);
    ASSERT_LE(begin + r.values.size(), full.data.size());
    EXPECT_EQ(std::memcmp(r.values.data(), full.data.data() + begin,
                          r.values.size() * sizeof(f32)),
              0)
        << "blocks [" << first << ", " << first + count << ")";
  }
}

TEST(PipelineV3, ReplaceBlocksReencodesAndPreservesTheRest) {
  const std::vector<f32> field = mixedSelectionField(32);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));

  // Overwrite two blocks (one of them Huffman-coded) with fresh values.
  const u64 firstBlock = 4;
  std::vector<f32> replacement(2 * kBlock);
  for (usize i = 0; i < replacement.size(); ++i) {
    replacement[i] = static_cast<f32>(static_cast<i32>(i) - 20) * 0.02f;
  }
  const auto patched = codec.replaceBlocks<f32>(
      ConstByteSpan(c.stream), firstBlock, std::span<const f32>(replacement));

  const StreamHeader header = StreamHeader::parse(patched.stream);
  EXPECT_EQ(header.version, core::kFormatVersionV3);

  const auto d = codec.decompress<f32>(patched.stream);
  ASSERT_EQ(d.data.size(), field.size());
  for (usize i = 0; i < d.data.size(); ++i) {
    const usize blk = i / kBlock;
    if (blk >= firstBlock && blk < firstBlock + 2) {
      const f32 want = replacement[i - firstBlock * kBlock];
      EXPECT_NEAR(d.data[i], want, kAbsBound * (1.0 + 1e-6)) << i;
    } else {
      EXPECT_EQ(std::memcmp(&d.data[i], &field[i], sizeof(f32)), 0) << i;
    }
  }
}

TEST(PipelineV3, BatchCompressAndDecodeMatchSerial) {
  const std::vector<f32> a = mixedSelectionField(16);
  const std::vector<f32> b = mixedSelectionField(24, 11);
  const std::vector<f32> c3 = mixedSelectionField(8, 1);
  const std::vector<std::span<const f32>> fields = {
      std::span<const f32>(a), std::span<const f32>(b),
      std::span<const f32>(c3)};

  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto batch = codec.compressBatch<f32>(fields);
  ASSERT_EQ(batch.size(), fields.size());
  std::vector<ConstByteSpan> streams;
  for (usize i = 0; i < fields.size(); ++i) {
    const auto serial = codec.compress<f32>(fields[i]);
    EXPECT_EQ(batch[i].stream, serial.stream) << i;
    streams.push_back(ConstByteSpan(batch[i].stream));
  }

  const auto decoded = codec.decompressBatchRaw(streams);
  ASSERT_EQ(decoded.size(), fields.size());
  for (usize i = 0; i < fields.size(); ++i) {
    const auto serial = codec.decompress<f32>(streams[i]);
    ASSERT_EQ(decoded[i].elements, serial.data.size()) << i;
    EXPECT_EQ(std::memcmp(decoded[i].data.data(), serial.data.data(),
                          serial.data.size() * sizeof(f32)),
              0)
        << i;
  }
}

// ---- service batching isolation -----------------------------------------

TEST(PipelineService, JobsNeverBatchAcrossPipelinePolicies) {
  service::detail::Job legacy;
  legacy.kind = service::JobKind::Compress;
  legacy.config = Config{};

  service::detail::Job autoSel;
  autoSel.kind = service::JobKind::Compress;
  autoSel.config = Config{};
  autoSel.config.pipeline = PipelineMode::Auto;

  service::detail::Job huffman;
  huffman.kind = service::JobKind::Compress;
  huffman.config = Config{};
  huffman.config.pipeline = PipelineMode::Huffman;

  service::detail::Job autoToo;
  autoToo.kind = service::JobKind::Compress;
  autoToo.config = Config{};
  autoToo.config.pipeline = PipelineMode::Auto;

  // Identical configs fuse; configs differing only in pipeline never do.
  EXPECT_TRUE(autoSel.batchableWith(autoToo));
  EXPECT_FALSE(legacy.batchableWith(autoSel));
  EXPECT_FALSE(autoSel.batchableWith(huffman));
  EXPECT_FALSE(legacy.batchableWith(huffman));
}

}  // namespace
}  // namespace cuszp2
