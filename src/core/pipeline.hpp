// Format-v3 per-block compression pipelines (ROADMAP item 3).
//
// A pipeline is an explicit (predict -> quantize -> encode) stage pair
// applied to one block of quantization integers. Format v1/v2 hard-wires
// the single FLE pipeline; format v3 records a pipeline id per block and
// lets a cheap selector pick the smallest encoding block by block:
//
//   id 0  Fle         delta-1 predict, fixed-length encode (v1 payload)
//   id 1  Huffman     delta-1 predict, shared-table canonical Huffman
//   id 2  Rle         delta-1 predict, run-length encode
//   id 3  LorenzoFle  intra-block 2-D Lorenzo predict, fixed-length encode
//
// Residuals feed a common symbol mapping before the entropy stages:
// zigzag to an unsigned value, alphabet 1024, values >= 1023 emit the
// escape symbol 1023 plus the raw 4-byte little-endian residual appended
// after the coded section. The Huffman stage uses one canonical table per
// stream (built from the whole-stream delta-1 symbol histogram), carried
// in the stream's dictionary section — see docs/FORMAT.md.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/block_codec.hpp"

namespace cuszp2::core {

/// Wire pipeline id, recorded per block in the v3 descriptor array.
enum class PipelineId : u8 {
  Fle = 0,
  Huffman = 1,
  Rle = 2,
  LorenzoFle = 3,
};

inline constexpr u32 kPipelineCount = 4;

/// Config-level pipeline policy. Legacy keeps the v1/v2 writer bit-exact;
/// every other value emits format v3 (Auto = per-block selection, the
/// rest pin one pipeline for every block).
enum class PipelineMode : u8 {
  Legacy = 0,
  Auto,
  Fle,
  Huffman,
  Rle,
  LorenzoFle,
};

constexpr const char* toString(PipelineId p) {
  switch (p) {
    case PipelineId::Fle: return "fle";
    case PipelineId::Huffman: return "huffman";
    case PipelineId::Rle: return "rle";
    default: return "lorenzo-fle";
  }
}

constexpr const char* toString(PipelineMode m) {
  switch (m) {
    case PipelineMode::Legacy: return "legacy";
    case PipelineMode::Auto: return "auto";
    case PipelineMode::Fle: return "fle";
    case PipelineMode::Huffman: return "huffman";
    case PipelineMode::Rle: return "rle";
    default: return "lorenzo-fle";
  }
}

/// Prediction stage of a pipeline. Delta1 is the paper's first-order
/// in-block difference; Lorenzo2D treats the block as an (L/8) x 8 tile
/// and predicts each cell from its west/north/north-west neighbours.
enum class PredictStage : u8 { Delta1 = 0, Lorenzo2D = 1 };

/// Encoding stage of a pipeline.
enum class EncodeStage : u8 { Fle = 0, Huffman = 1, Rle = 2 };

/// Static descriptor of one pipeline: which stages it composes. The four
/// v3 pipelines are fixed instantiations of this (pipelineTable()); v1/v2
/// are the Delta1+Fle row with the legacy wire framing.
struct BlockPipeline {
  PipelineId id;
  PredictStage predict;
  EncodeStage encode;
  const char* name;
};

/// The four wire pipelines, indexed by PipelineId.
std::span<const BlockPipeline> pipelineTable();

// ---- v3 per-block descriptor -------------------------------------------

/// 1-byte per-block descriptor — the same cost as the v1/v2 offset array.
/// The legacy offset byte (block_codec.hpp, Fig. 8) only ever produces
/// values 0x00-0x1F (Plain-FLE) and 0x80-0xFF (Outlier-FLE); the 0x20-0x7F
/// hole encodes the non-FLE pipelines:
///   0x00-0x1F, 0x80-0xFF   Fle, the byte IS the legacy offset byte
///   0x20                   Huffman
///   0x40                   Rle
///   0x60 | fl              LorenzoFle, Plain-FLE at fixed length fl (0-31)
/// Any other value is an unknown pipeline (salvage quarantines the block).
/// FLE/Lorenzo payload sizes stay derivable from the descriptor alone;
/// the entropy pipelines prefix their payload with a u16 LE body size, read
/// by the same sequential walk that positions the blocks.
struct V3BlockDesc {
  PipelineId pipeline = PipelineId::Fle;
  u8 offsetByte = 0;  // legacy offset byte (Fle) or plain fl (LorenzoFle)

  void pack(std::byte* out) const;
  /// Unpacks without validating the pipeline id (salvage must be able to
  /// inspect corrupt descriptors); knownPipeline() reports validity.
  static V3BlockDesc unpack(const std::byte* in);

  bool knownPipeline() const {
    return static_cast<u8>(pipeline) < kPipelineCount;
  }

  /// Payload byte count implied by the descriptor at its payload position.
  /// `payload`/`remaining` cover the bytes from this block's start to the
  /// end of the payload region; the entropy pipelines read their u16 size
  /// prefix from it (returning kV3EntropyPrefixBytes when `remaining` is
  /// too short for the prefix, which the caller's bounds check then
  /// rejects). Unknown pipelines return 0 and are quarantined.
  usize payloadBytes(const PayloadSizeTable& psize, const std::byte* payload,
                     usize remaining) const;
};

inline constexpr usize kV3DescBytes = 1;

/// u16 LE body-size prefix in front of every Huffman/RLE block payload.
inline constexpr usize kV3EntropyPrefixBytes = 2;

// ---- symbol mapping -----------------------------------------------------

/// Entropy-stage alphabet: zigzagged residuals clamp into [0, 1022], the
/// escape symbol 1023 stands for any larger residual (raw value appended).
inline constexpr u32 kSymbolAlphabet = 1024;
inline constexpr u16 kEscapeSymbol = 1023;

constexpr u32 zigzagEncode(i32 v) {
  return (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31);
}

constexpr i32 zigzagDecode(u32 z) {
  return static_cast<i32>((z >> 1) ^ (~(z & 1) + 1));
}

constexpr u16 symbolOf(i32 residual) {
  const u32 z = zigzagEncode(residual);
  return z < kEscapeSymbol ? static_cast<u16>(z) : kEscapeSymbol;
}

// ---- shared Huffman dictionary ------------------------------------------

/// Stream-level canonical Huffman table over the symbol alphabet. Code
/// lengths are built once from the whole-stream histogram; canonical codes
/// follow deterministically (entropy::HuffmanCodec's assignment), so the
/// compact (symbol, length) list is the table's entire wire form.
struct HuffTable {
  std::vector<u8> lengths;  // kSymbolAlphabet entries; 0 = unused symbol
  std::vector<u32> codes;   // canonical codes, MSB-first

  bool empty() const { return lengths.empty(); }

  static HuffTable fromFrequencies(std::span<const u64> freq);

  /// Compact wire form: u16 usedCount, then usedCount x (u16 symbol,
  /// u8 length), little-endian.
  usize serializedBytes() const;
  void serialize(std::byte* out) const;
  /// Throws cuszp2::Error on a malformed table (bad counts, symbol range,
  /// zero/overlong lengths, non-canonical ordering).
  static HuffTable parse(ConstByteSpan bytes);
};

/// Canonical decoder over a HuffTable, MSB-first. Built once per decode
/// call, reused for every block. A 2^k-entry lookup table (k = min(max
/// code length, kLookupBits)) resolves every code of at most k bits in one
/// probe of a 64-bit window; longer codes, unused prefixes and codes
/// running past the bit limit fall back to the first-code-per-length walk.
class HuffDecoder {
 public:
  explicit HuffDecoder(const HuffTable& table);

  /// Decodes symbols.size() symbols from the MSB-first bit cursor, which
  /// it advances past them. Throws on an invalid code or bit-stream
  /// overrun with the canonical walk's error text. Reads no byte at or
  /// past (bitLimit + 7) / 8.
  void decodeSymbols(const std::byte* bits, usize bitLimit, usize& bitPos,
                     std::span<u16> symbols) const;

  /// Decodes one symbol with the bit-at-a-time canonical walk that
  /// decodeSymbols falls back to; same contract. Also the reference the
  /// lookup table is tested against.
  u16 decodeSymbolCanonical(const std::byte* bits, usize bitLimit,
                            usize& bitPos) const;

 private:
  static constexpr u32 kLookupBits = 11;

  u8 maxLen_ = 0;
  u32 lookupBits_ = 0;
  std::vector<u32> firstCode_;            // per length
  std::vector<u32> symbolBase_;           // index into symbols_ per length
  std::vector<u16> symbols_;              // canonical order
  /// Indexed by the next lookupBits_ bits: symbol << 8 | code length, or
  /// 0 when no code of at most lookupBits_ bits is a prefix of them.
  std::vector<u32> lookup_;
};

// ---- per-block encode/decode --------------------------------------------

/// Exact encoded size of one block under the shared-table Huffman
/// pipeline: u16 bit count + MSB-first code bytes + 4 bytes per escape.
usize huffmanBlockBytes(std::span<const u16> symbols, const HuffTable& table);

/// Exact encoded size of one block under the RLE pipeline:
/// u16 run count + 3 bytes per (symbol, runLen-1) run + 4 per escape.
/// Runs longer than 256 symbols split, as encodeRleBlock splits them.
usize rleBlockBytes(std::span<const u16> symbols);

/// The analysis pass's one walk over a block (at most 256 residuals, so
/// the RLE run cap never splits a run): writes symbolOf(residuals[i]) into
/// `symbols` and returns rleBlockBytes of those symbols, counting runs as
/// 1 + the adjacent symbol changes.
usize symbolizeBlock(std::span<const i32> residuals, std::span<u16> symbols);

/// Encodes one block's residuals with the shared Huffman table. Returns
/// bytes written (== huffmanBlockBytes of the mapped symbols).
usize encodeHuffmanBlock(std::span<const i32> residuals,
                         const HuffTable& table, std::byte* out);

/// Decodes a Huffman block payload back into `residuals` (full block
/// length). Throws cuszp2::Error on malformed payloads.
void decodeHuffmanBlock(ConstByteSpan payload, const HuffDecoder& decoder,
                        std::span<i32> residuals);

usize encodeRleBlock(std::span<const i32> residuals, std::byte* out);

void decodeRleBlock(ConstByteSpan payload, std::span<i32> residuals);

// ---- Lorenzo-2D intra-block predictor -----------------------------------

/// Forward 2-D Lorenzo prediction over one block of quantization integers
/// viewed as an (L/8) x 8 row-major tile (out-of-tile neighbours read 0).
/// Returns false when any residual overflows i32 (the caller must then
/// not select this pipeline for the block). Blocks whose every |q| < 2^29
/// take an i32 vector path (simd::lorenzo2dI32) and cannot overflow.
bool lorenzo2dResiduals(std::span<const i32> quants, std::span<i32> residuals);

/// Inverse: reconstructs quants from Lorenzo-2D residuals in raster order,
/// summing in i64 and truncating to i32 (simd::lorenzo2dReconstructI32
/// computes the same values in wrapping i32).
void lorenzo2dReconstruct(std::span<const i32> residuals,
                          std::span<i32> quants);

// ---- selection ----------------------------------------------------------

/// Per-block candidate sizes gathered by the analysis pass. kInvalidSize
/// marks a pipeline the block cannot use (e.g. Lorenzo residual overflow).
inline constexpr usize kInvalidSize = ~usize{0};

struct BlockCandidates {
  usize bytes[kPipelineCount] = {kInvalidSize, kInvalidSize, kInvalidSize,
                                 kInvalidSize};
};

struct SelectionResult {
  std::vector<PipelineId> choice;  // one per block
  u64 totalPayload = 0;
  bool usesHuffman = false;
};

/// Chooses a pipeline per block. Pinned modes force one id everywhere;
/// Auto takes the per-block minimum, admitting the Huffman pipeline only
/// when the blocks it would win shrink the stream by more than the shared
/// table costs (`tableBytes`). This guarantees an Auto stream is never
/// larger than the same data under any single pinned pipeline.
SelectionResult selectPipelines(std::span<const BlockCandidates> candidates,
                                PipelineMode mode, usize tableBytes);

/// Parses a CLI-style pipeline name ("auto", "fle", "huffman", "rle",
/// "lorenzo-fle", "legacy"); throws cuszp2::Error on unknown names.
PipelineMode parsePipelineMode(const std::string& name);

}  // namespace cuszp2::core
