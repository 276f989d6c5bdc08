#include "core/lorenzo_nd.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/block_codec.hpp"
#include "core/quantizer.hpp"
#include "metrics/error_stats.hpp"
#include "scan/lookback.hpp"

namespace cuszp2::core {

namespace {

constexpr u32 kBlockElems = 64;

/// ND residuals sum up to 8 quantization integers, so the integers must be
/// bounded tighter than in the 1-D pipeline to keep residuals within i32.
constexpr i64 kMaxNdQuant = (i64{1} << 27) - 1;

// ND stream header (distinct magic; carries the grid dimensions).
constexpr u64 kNdMagic = 0x32505A43'444E0001ull;

struct NdHeader {
  Precision precision;
  LorenzoDims dims;
  EncodingMode mode;
  Dims3 grid;
  f64 absErrorBound;

  static constexpr usize kBytes = 64;
};

void serializeHeader(const NdHeader& h, std::byte* out) {
  storeLe<u64>(out + 0, kNdMagic);
  u64 meta = static_cast<u64>(static_cast<u8>(h.precision));
  meta |= static_cast<u64>(static_cast<u8>(h.dims)) << 8;
  meta |= static_cast<u64>(static_cast<u8>(h.mode)) << 16;
  storeLe<u64>(out + 8, meta);
  storeLe<u64>(out + 16, h.grid.nx);
  storeLe<u64>(out + 24, h.grid.ny);
  storeLe<u64>(out + 32, h.grid.nz);
  storeLe<u64>(out + 40, bitCast<u64>(h.absErrorBound));
  storeLe<u64>(out + 48, 0);
  storeLe<u64>(out + 56, 0);
}

NdHeader parseHeader(ConstByteSpan stream) {
  require(stream.size() >= NdHeader::kBytes, "NdCompressor: truncated stream");
  require(loadLe<u64>(stream.data()) == kNdMagic, "NdCompressor: bad magic");
  const u64 meta = loadLe<u64>(stream.data() + 8);
  NdHeader h{};
  const u8 prec = static_cast<u8>(meta & 0xFFu);
  require(prec <= 1, "NdCompressor: invalid precision tag");
  h.precision = static_cast<Precision>(prec);
  const u8 dims = static_cast<u8>((meta >> 8) & 0xFFu);
  require(dims >= 1 && dims <= 3, "NdCompressor: invalid dims tag");
  h.dims = static_cast<LorenzoDims>(dims);
  const u8 mode = static_cast<u8>((meta >> 16) & 0xFFu);
  require(mode <= 1, "NdCompressor: invalid mode tag");
  h.mode = static_cast<EncodingMode>(mode);
  h.grid.nx = loadLe<u64>(stream.data() + 16);
  h.grid.ny = loadLe<u64>(stream.data() + 24);
  h.grid.nz = loadLe<u64>(stream.data() + 32);
  require(h.grid.count() > 0, "NdCompressor: empty grid");
  h.absErrorBound = bitCast<f64>(loadLe<u64>(stream.data() + 40));
  require(h.absErrorBound > 0.0, "NdCompressor: invalid error bound");
  return h;
}

void shapeFor(LorenzoDims d, u64& bx, u64& by, u64& bz) {
  switch (d) {
    case LorenzoDims::D1: bx = 64; by = 1; bz = 1; break;
    case LorenzoDims::D2: bx = 8; by = 8; bz = 1; break;
    case LorenzoDims::D3: bx = 4; by = 4; bz = 4; break;
  }
}

/// In-block forward Lorenzo prediction; neighbours outside the block are 0.
/// `q` and `r` are (bz, by, bx) row-major with x fastest.
void forwardLorenzo(LorenzoDims d, std::span<const i32> q, std::span<i32> r,
                    u64 bx, u64 by, u64 bz) {
  auto at = [&](std::span<const i32> a, i64 i, i64 j, i64 k) -> i32 {
    if (i < 0 || j < 0 || k < 0) return 0;
    return a[(static_cast<u64>(k) * by + static_cast<u64>(j)) * bx +
             static_cast<u64>(i)];
  };
  for (u64 k = 0; k < bz; ++k) {
    for (u64 j = 0; j < by; ++j) {
      for (u64 i = 0; i < bx; ++i) {
        const i64 ii = static_cast<i64>(i);
        const i64 jj = static_cast<i64>(j);
        const i64 kk = static_cast<i64>(k);
        i32 pred = 0;
        switch (d) {
          case LorenzoDims::D1:
            pred = at(q, ii - 1, jj, kk);
            break;
          case LorenzoDims::D2:
            pred = at(q, ii - 1, jj, kk) + at(q, ii, jj - 1, kk) -
                   at(q, ii - 1, jj - 1, kk);
            break;
          case LorenzoDims::D3:
            pred = at(q, ii - 1, jj, kk) + at(q, ii, jj - 1, kk) +
                   at(q, ii, jj, kk - 1) - at(q, ii - 1, jj - 1, kk) -
                   at(q, ii - 1, jj, kk - 1) - at(q, ii, jj - 1, kk - 1) +
                   at(q, ii - 1, jj - 1, kk - 1);
            break;
        }
        r[(k * by + j) * bx + i] = at(q, ii, jj, kk) - pred;
      }
    }
  }
}

/// Inverse of forwardLorenzo: reconstructs q in raster order.
void inverseLorenzo(LorenzoDims d, std::span<const i32> r, std::span<i32> q,
                    u64 bx, u64 by, u64 bz) {
  auto at = [&](std::span<const i32> a, i64 i, i64 j, i64 k) -> i32 {
    if (i < 0 || j < 0 || k < 0) return 0;
    return a[(static_cast<u64>(k) * by + static_cast<u64>(j)) * bx +
             static_cast<u64>(i)];
  };
  for (u64 k = 0; k < bz; ++k) {
    for (u64 j = 0; j < by; ++j) {
      for (u64 i = 0; i < bx; ++i) {
        const i64 ii = static_cast<i64>(i);
        const i64 jj = static_cast<i64>(j);
        const i64 kk = static_cast<i64>(k);
        i32 pred = 0;
        switch (d) {
          case LorenzoDims::D1:
            pred = at(q, ii - 1, jj, kk);
            break;
          case LorenzoDims::D2:
            pred = at(q, ii - 1, jj, kk) + at(q, ii, jj - 1, kk) -
                   at(q, ii - 1, jj - 1, kk);
            break;
          case LorenzoDims::D3:
            pred = at(q, ii - 1, jj, kk) + at(q, ii, jj - 1, kk) +
                   at(q, ii, jj, kk - 1) - at(q, ii - 1, jj - 1, kk) -
                   at(q, ii - 1, jj, kk - 1) - at(q, ii, jj - 1, kk - 1) +
                   at(q, ii - 1, jj - 1, kk - 1);
            break;
        }
        q[(k * by + j) * bx + i] = r[(k * by + j) * bx + i] + pred;
      }
    }
  }
}

}  // namespace

NdCompressor::NdCompressor(NdConfig config, gpusim::DeviceSpec device)
    : config_(config), timing_(std::move(device)), launcher_() {
  require(config_.relErrorBound > 0.0 || config_.absErrorBound > 0.0,
          "NdCompressor: an error bound must be positive");
}

void NdCompressor::blockShape(u64& bx, u64& by, u64& bz) const {
  shapeFor(config_.dims, bx, by, bz);
}

template <FloatingPoint T>
NdCompressed NdCompressor::compress(std::span<const T> data,
                                    Dims3 dims) const {
  require(data.size() == dims.count(),
          "NdCompressor::compress: data size does not match dims");
  require(!data.empty(), "NdCompressor::compress: empty input");

  f64 absEb = config_.absErrorBound;
  if (absEb <= 0.0) {
    absEb = Quantizer::absFromRel(config_.relErrorBound,
                                  metrics::valueRange(data));
  }
  const Quantizer quantizer(absEb);

  // Quantize the whole field once (fused into the kernel on a real
  // device; traffic is charged inside the launch below).
  std::vector<i32> field(data.size());
  for (usize e = 0; e < data.size(); ++e) {
    field[e] = quantizer.quantize(data[e]);
    require(field[e] >= -kMaxNdQuant && field[e] <= kMaxNdQuant,
            "NdCompressor: error bound too small for ND residual range");
  }

  u64 bx = 0;
  u64 by = 0;
  u64 bz = 0;
  shapeFor(config_.dims, bx, by, bz);
  const u64 gx = (dims.nx + bx - 1) / bx;
  const u64 gy = (dims.ny + by - 1) / by;
  const u64 gz = (dims.nz + bz - 1) / bz;
  const u64 numBlocks = gx * gy * gz;
  constexpr u32 kBlocksPerTile = 64;
  const u32 tiles = static_cast<u32>(
      std::max<u64>(1, (numBlocks + kBlocksPerTile - 1) / kBlocksPerTile));

  NdHeader header{precisionOf<T>(), config_.dims, config_.mode, dims, absEb};
  NdCompressed out;
  out.originalBytes = data.size() * sizeof(T);
  out.stream.assign(NdHeader::kBytes + numBlocks +
                        numBlocks * maxPayloadSize(kBlockElems),
                    std::byte{0});
  serializeHeader(header, out.stream.data());
  std::byte* offsets = out.stream.data() + NdHeader::kBytes;
  std::byte* payloadOut = offsets + numBlocks;

  const BlockCodec codec(kBlockElems);
  scan::LookbackState lookback(tiles);
  std::vector<u64> tileInclusive(tiles, 0);
  const bool strided = config_.dims != LorenzoDims::D1;
  // Extra prediction arithmetic: 2-D touches 3 neighbours, 3-D touches 7.
  const u64 opsPerElem =
      8 + (config_.dims == LorenzoDims::D2
               ? 6
               : (config_.dims == LorenzoDims::D3 ? 14 : 0));

  const auto launch = launcher_.launch(tiles, [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * kBlocksPerTile;
    const u64 lastBlock = std::min(numBlocks, firstBlock + kBlocksPerTile);
    const u32 blocksHere = static_cast<u32>(lastBlock - firstBlock);

    std::vector<std::byte> scratch(static_cast<usize>(blocksHere) *
                                   maxPayloadSize(kBlockElems));
    std::vector<i32> q(kBlockElems);
    std::vector<i32> r(kBlockElems);
    u64 aggregate = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const u64 xi = blk % gx;
      const u64 yj = (blk / gx) % gy;
      const u64 zk = blk / (gx * gy);
      // Gather with clamped coordinates (padding repeats edge values, so
      // its residuals are zero and decoding simply discards them).
      for (u64 k = 0; k < bz; ++k) {
        for (u64 j = 0; j < by; ++j) {
          for (u64 i = 0; i < bx; ++i) {
            const u64 x = std::min(dims.nx - 1, xi * bx + i);
            const u64 y = std::min(dims.ny - 1, yj * by + j);
            const u64 z = std::min(dims.nz - 1, zk * bz + k);
            q[(k * by + j) * bx + i] =
                field[(z * dims.ny + y) * dims.nx + x];
          }
        }
      }
      forwardLorenzo(config_.dims, q, r, bx, by, bz);
      const BlockPlan plan = codec.planResiduals(r, config_.mode);
      offsets[blk] = static_cast<std::byte>(plan.header.pack());
      codec.encodeResiduals(
          r, plan,
          scratch.data() + (blk - firstBlock) * maxPayloadSize(kBlockElems));
      aggregate += plan.payloadBytes;
    }

    // Block gathers: 1-D blocks are contiguous (vectorizable); 2-D/3-D
    // blocks span strided rows — the access-pattern cost of Sec. VI-D.
    const u64 gatherBytes =
        static_cast<u64>(blocksHere) * kBlockElems * sizeof(T);
    if (strided) {
      ctx.mem.noteStridedRead(gatherBytes, sizeof(T));
    } else {
      ctx.mem.noteVectorRead(gatherBytes, 32);
    }
    ctx.mem.noteScalarWrite(blocksHere, 1, 32);
    ctx.mem.noteOps(static_cast<u64>(blocksHere) * kBlockElems * opsPerElem *
                    2);
    ctx.mem.noteL1(static_cast<u64>(blocksHere) * kBlockElems * 12);

    const u64 base =
        lookback.processTile(ctx.blockIdx, aggregate, ctx.sync, ctx.mem);
    tileInclusive[ctx.blockIdx] = base + aggregate;

    u64 cursor = base;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const auto h = BlockHeader::unpack(std::to_integer<u8>(offsets[blk]));
      const usize size = payloadSize(h, kBlockElems);
      std::copy_n(
          scratch.data() + (blk - firstBlock) * maxPayloadSize(kBlockElems),
          size, payloadOut + cursor);
      cursor += size;
    }
    ctx.mem.noteVectorWrite(aggregate, 32);
  });

  const u64 totalPayload = tileInclusive[tiles - 1];
  out.stream.resize(NdHeader::kBytes + numBlocks + totalPayload);
  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  out.profile.mem = launch.mem;
  out.profile.sync = launch.sync;
  out.profile.timing = timing_.kernel(launch.mem, launch.sync);
  out.profile.endToEndSeconds = out.profile.timing.totalSeconds;
  out.profile.endToEndGBps =
      gpusim::gbps(out.originalBytes, out.profile.endToEndSeconds);
  out.profile.wallSeconds = launch.wallSeconds;
  return out;
}

template <FloatingPoint T>
std::vector<T> NdCompressor::decompress(ConstByteSpan stream) const {
  const NdHeader header = parseHeader(stream);
  require(header.precision == precisionOf<T>(),
          "NdCompressor::decompress: precision mismatch");

  u64 bx = 0;
  u64 by = 0;
  u64 bz = 0;
  shapeFor(header.dims, bx, by, bz);
  const Dims3 dims = header.grid;
  const u64 gx = (dims.nx + bx - 1) / bx;
  const u64 gy = (dims.ny + by - 1) / by;
  const u64 gz = (dims.nz + bz - 1) / bz;
  const u64 numBlocks = gx * gy * gz;
  require(stream.size() >= NdHeader::kBytes + numBlocks,
          "NdCompressor::decompress: truncated offset array");

  const std::byte* offsets = stream.data() + NdHeader::kBytes;
  const std::byte* payload = offsets + numBlocks;
  const usize payloadAvail = stream.size() - NdHeader::kBytes - numBlocks;

  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(kBlockElems);
  std::vector<T> out(dims.count());
  std::vector<i32> q(kBlockElems);
  std::vector<i32> r(kBlockElems);

  usize cursor = 0;
  u64 blk = 0;
  for (u64 zk = 0; zk < gz; ++zk) {
    for (u64 yj = 0; yj < gy; ++yj) {
      for (u64 xi = 0; xi < gx; ++xi, ++blk) {
        const auto h = BlockHeader::unpack(std::to_integer<u8>(offsets[blk]));
        const usize size = payloadSize(h, kBlockElems);
        require(cursor + size <= payloadAvail,
                "NdCompressor::decompress: truncated payload");
        codec.decodeResiduals(h, payload + cursor, r);
        cursor += size;
        inverseLorenzo(header.dims, r, q, bx, by, bz);
        for (u64 k = 0; k < bz; ++k) {
          for (u64 j = 0; j < by; ++j) {
            for (u64 i = 0; i < bx; ++i) {
              const u64 x = xi * bx + i;
              const u64 y = yj * by + j;
              const u64 z = zk * bz + k;
              if (x >= dims.nx || y >= dims.ny || z >= dims.nz) continue;
              out[(z * dims.ny + y) * dims.nx + x] =
                  quantizer.dequantize<T>(q[(k * by + j) * bx + i]);
            }
          }
        }
      }
    }
  }
  return out;
}

template NdCompressed NdCompressor::compress<f32>(std::span<const f32>,
                                                  Dims3) const;
template NdCompressed NdCompressor::compress<f64>(std::span<const f64>,
                                                  Dims3) const;
template std::vector<f32> NdCompressor::decompress<f32>(ConstByteSpan) const;
template std::vector<f64> NdCompressor::decompress<f64>(ConstByteSpan) const;

}  // namespace cuszp2::core
