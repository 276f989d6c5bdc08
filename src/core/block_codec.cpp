#include "core/block_codec.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/fle.hpp"

namespace cuszp2::core {

u8 BlockHeader::pack() const {
  u8 b = static_cast<u8>(fixedLength & 0x1Fu);
  if (outlierMode) {
    b |= 0x80u;
    b |= static_cast<u8>(((outlierBytes - 1) & 0x3u) << 5);
  }
  return b;
}

usize payloadSize(const BlockHeader& header, u32 blockSize) {
  const usize pb = planeBytes(blockSize);
  if (header.outlierMode) {
    return pb + header.outlierBytes +
           static_cast<usize>(header.fixedLength) * pb;
  }
  return header.fixedLength == 0
             ? 0
             : pb + static_cast<usize>(header.fixedLength) * pb;
}

usize maxPayloadSize(u32 blockSize) {
  const usize pb = planeBytes(blockSize);
  // Outlier mode with a 4-byte outlier and 31 planes dominates.
  return pb + 4 + 31 * pb;
}

BlockCodec::BlockCodec(u32 blockSize) : blockSize_(blockSize) {
  require(blockSize >= 8 && blockSize <= 256 && blockSize % 8 == 0,
          "BlockCodec: blockSize must be a multiple of 8 in [8, 256]");
}

// ---- Residual-level implementation ------------------------------------

BlockPlan BlockCodec::planResiduals(std::span<const i32> residuals,
                                    EncodingMode mode) const {
  require(residuals.size() == blockSize_,
          "BlockCodec::planResiduals: wrong block size");

  // One pass over absolute residuals yields both candidate sizes
  // (the paper's "simply iterating the absolute values" selection). Max is
  // order-independent, so the vector reduction over the tail plus one
  // scalar max for the head matches the scalar sweep exactly.
  u32 maxAbsTail = 0;
  const u32 absFirst = absU32(residuals[0]);
  if (!simd::maxAbsTailU32(residuals, &maxAbsTail)) {
    for (usize i = 1; i < residuals.size(); ++i) {
      maxAbsTail = std::max(maxAbsTail, absU32(residuals[i]));
    }
  }
  const u32 maxAbsAll = std::max(maxAbsTail, absFirst);

  const usize pb = planeBytes(blockSize_);
  const u32 flPlain = effectiveBits(maxAbsAll);
  const u32 flTail = effectiveBits(maxAbsTail);
  const u32 outBytes = std::max<u32>(1, bytesFor(absFirst));

  BlockPlan p;
  p.plainBytes = flPlain == 0 ? 0 : pb + static_cast<usize>(flPlain) * pb;
  p.outlierBytes = pb + outBytes + static_cast<usize>(flTail) * pb;

  const bool useOutlier =
      mode == EncodingMode::Outlier && p.outlierBytes < p.plainBytes;

  p.header.outlierMode = useOutlier;
  p.header.outlierBytes = useOutlier ? outBytes : 1;
  p.header.fixedLength = useOutlier ? flTail : flPlain;
  p.payloadBytes = payloadSize(p.header, blockSize_);
  return p;
}

void BlockCodec::encodeResiduals(std::span<const i32> residuals,
                                 const BlockPlan& plan,
                                 std::byte* payload) const {
  require(residuals.size() == blockSize_,
          "BlockCodec::encodeResiduals: wrong block size");
  if (plan.payloadBytes == 0) return;  // zero block: offset byte only

  u32 absArr[256];
  std::span<u32> absVals(absArr, blockSize_);
  const usize pb = planeBytes(blockSize_);
  std::byte* cursor = payload;

  if (!simd::absAndPackSigns(residuals, absVals.data(), cursor)) {
    for (usize i = 0; i < blockSize_; ++i) absVals[i] = absU32(residuals[i]);
    packSigns(residuals, cursor);
  }
  cursor += pb;

  if (plan.header.outlierMode) {
    storeLE(cursor, absVals[0], plan.header.outlierBytes);
    cursor += plan.header.outlierBytes;
    absVals[0] = 0;  // outlier stored out-of-band; planes cover the tail
  }

  packPlanes(absVals, plan.header.fixedLength, cursor);
}

void BlockCodec::decodeResiduals(const BlockHeader& header,
                                 const std::byte* payload,
                                 std::span<i32> residuals) const {
  require(residuals.size() == blockSize_,
          "BlockCodec::decodeResiduals: wrong block size");

  if (!header.outlierMode && header.fixedLength == 0) {
    std::fill(residuals.begin(), residuals.end(), 0);
    return;
  }

  const usize pb = planeBytes(blockSize_);
  const std::byte* cursor = payload;
  const std::byte* signs = cursor;
  cursor += pb;

  u32 outlierAbs = 0;
  if (header.outlierMode) {
    outlierAbs = loadLE(cursor, header.outlierBytes);
    cursor += header.outlierBytes;
  }

  u32 absArr[256];
  std::span<u32> absVals(absArr, blockSize_);
  unpackPlanes(cursor, header.fixedLength, absVals);
  if (header.outlierMode) absVals[0] = outlierAbs;

  if (!simd::applySigns(signs, absVals, residuals.data())) {
    // u32 negation: a hostile 2^31 outlier wraps like the vector path.
    for (usize i = 0; i < blockSize_; ++i) {
      residuals[i] = static_cast<i32>(signBit(signs, i) ? 0u - absVals[i]
                                                        : absVals[i]);
    }
  }
}

// ---- Quantization-integer wrappers (1-D first-order difference) --------

BlockPlan BlockCodec::plan(std::span<const i32> quants,
                           EncodingMode mode) const {
  require(quants.size() == blockSize_, "BlockCodec::plan: wrong block size");
  i32 diffs[256];
  if (!simd::diffI32(quants, diffs)) {
    i32 prev = 0;
    for (usize i = 0; i < blockSize_; ++i) {
      diffs[i] = quants[i] - prev;
      prev = quants[i];
    }
  }
  return planResiduals(std::span<const i32>(diffs, blockSize_), mode);
}

void BlockCodec::encode(std::span<const i32> quants, const BlockPlan& plan,
                        std::byte* payload) const {
  require(quants.size() == blockSize_,
          "BlockCodec::encode: wrong block size");
  if (plan.payloadBytes == 0) return;
  i32 diffs[256];
  if (!simd::diffI32(quants, diffs)) {
    i32 prev = 0;
    for (usize i = 0; i < blockSize_; ++i) {
      diffs[i] = quants[i] - prev;
      prev = quants[i];
    }
  }
  encodeResiduals(std::span<const i32>(diffs, blockSize_), plan, payload);
}

void BlockCodec::decode(const BlockHeader& header, const std::byte* payload,
                        std::span<i32> quants) const {
  require(quants.size() == blockSize_,
          "BlockCodec::decode: wrong block size");
  i32 diffs[256];
  std::span<i32> d(diffs, blockSize_);
  decodeResiduals(header, payload, d);
  if (!simd::prefixSumI32(d, quants.data())) {
    // Summed in u32, wrapping like the vector prefix sum.
    u32 acc = 0;
    for (usize i = 0; i < blockSize_; ++i) {
      acc += static_cast<u32>(d[i]);
      quants[i] = static_cast<i32>(acc);
    }
  }
}

}  // namespace cuszp2::core
