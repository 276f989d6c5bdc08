// Per-block lossless encoding: Plain-FLE and Outlier-FLE with the
// fine-tuned selection strategy (paper Sec. IV-A, Figs. 5/7/8).
//
// Offset byte layout (Fig. 8):
//   bit 7      mode flag (1 = Outlier-FLE, 0 = Plain-FLE)
//   bits 6..5  outlier size - 1 (1..4 bytes), meaningful in outlier mode
//   bits 4..0  fixed length fl in [0, 31]
//
// Payload layouts:
//   Plain,  fl == 0 : empty (all-zero block — 1 byte total per block)
//   Plain,  fl  > 0 : [signs L/8][planes fl*L/8]
//   Outlier         : [signs L/8][outlier magnitude, 1..4 B LE][planes fl*L/8]
//
// The first element of each block is differenced against 0, keeping blocks
// independent (random access, Sec. VI-B) at the cost of making that element
// the likely outlier — exactly the defect Outlier-FLE repairs.
#pragma once

#include <span>

#include "common/simd.hpp"
#include "common/types.hpp"

namespace cuszp2::core {

/// Decoded form of the offset byte.
struct BlockHeader {
  bool outlierMode = false;
  u32 outlierBytes = 1;  // 1..4, meaningful only in outlier mode
  u32 fixedLength = 0;   // 0..31

  u8 pack() const;

  /// Inline: every decoded block unpacks its offset byte.
  static BlockHeader unpack(u8 offsetByte) {
    BlockHeader h;
    h.outlierMode = (offsetByte & 0x80u) != 0;
    h.outlierBytes = h.outlierMode ? (((offsetByte >> 5) & 0x3u) + 1) : 1;
    h.fixedLength = offsetByte & 0x1Fu;
    return h;
  }
};

/// Payload byte count implied by a header for blocks of `blockSize`
/// elements. Derivable from the offset byte alone — this is what makes the
/// offset array sufficient for locating any block (paper Fig. 5).
usize payloadSize(const BlockHeader& header, u32 blockSize);

/// Worst-case payload for any block of `blockSize` elements (used to size
/// the output buffer before the true lengths are known).
usize maxPayloadSize(u32 blockSize);

/// payloadSize() precomputed for all 256 offset-byte values at a fixed
/// block size. The hot walks (layout validation, decompress pass 1) visit
/// every block of a stream and need only the size, so one table lookup
/// replaces unpack + branchy size arithmetic per block.
class PayloadSizeTable {
 public:
  explicit PayloadSizeTable(u32 blockSize) {
    for (u32 b = 0; b < 256; ++b) {
      sizes_[b] = static_cast<u32>(
          payloadSize(BlockHeader::unpack(static_cast<u8>(b)), blockSize));
    }
  }
  u32 operator[](std::byte offsetByte) const {
    return sizes_[std::to_integer<u8>(offsetByte)];
  }

 private:
  u32 sizes_[256];
};

/// Result of analysing one block of quantization integers.
struct BlockPlan {
  BlockHeader header;
  usize payloadBytes = 0;
  usize plainBytes = 0;    // what Plain-FLE would have used
  usize outlierBytes = 0;  // what Outlier-FLE would have used
};

class BlockCodec {
 public:
  /// `blockSize` must be a multiple of 8 in [8, 256].
  explicit BlockCodec(u32 blockSize);

  u32 blockSize() const { return blockSize_; }

  /// Chooses the encoding for a block of quantization integers under the
  /// given mode policy: Plain forces Plain-FLE; Outlier applies the
  /// fine-tuned selection "use Outlier-FLE only when it is smaller".
  /// A single pass over the absolute differences determines both sizes
  /// without re-computation (Sec. IV-A).
  BlockPlan plan(std::span<const i32> quants, EncodingMode mode) const;

  /// Encodes `quants` into `payload` according to `plan.header`;
  /// `payload` must hold at least plan.payloadBytes.
  void encode(std::span<const i32> quants, const BlockPlan& plan,
              std::byte* payload) const;

  /// Decodes a block: reconstructs the quantization integers from the
  /// offset byte and its payload. `quants.size()` must equal blockSize.
  void decode(const BlockHeader& header, const std::byte* payload,
              std::span<i32> quants) const;

  /// Decodes a block straight to values in one register pass
  /// (simd::decodeFleBlock): out[i] = (T)(quants[i] * twoEb) for the first
  /// out.size() <= blockSize values, byte-identical to decode() followed by
  /// Quantizer::dequantize. False when that pass cannot run (scalar mode,
  /// a block size other than 32, a plain fl == 0 block); the caller then
  /// takes the decode-then-dequantize chain.
  template <FloatingPoint T>
  bool decodeValues(const BlockHeader& header, const std::byte* payload,
                    f64 twoEb, std::span<T> out) const {
    return simd::decodeFleBlock(payload, blockSize_,
                                header.outlierMode ? header.outlierBytes : 0,
                                header.fixedLength, twoEb, out);
  }

  // Residual-level API: same sign/outlier/bit-plane format, but the caller
  // supplies prediction residuals directly (element 0 is the outlier
  // candidate). The 1-D pipeline wraps these with a first-order difference;
  // the multi-dimensional variant (Sec. VI-D) wraps them with 2-D/3-D
  // Lorenzo prediction.

  BlockPlan planResiduals(std::span<const i32> residuals,
                          EncodingMode mode) const;

  void encodeResiduals(std::span<const i32> residuals, const BlockPlan& plan,
                       std::byte* payload) const;

  void decodeResiduals(const BlockHeader& header, const std::byte* payload,
                       std::span<i32> residuals) const;

 private:
  u32 blockSize_;
};

}  // namespace cuszp2::core
