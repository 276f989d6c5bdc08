#include "core/pipeline.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "entropy/huffman.hpp"

namespace cuszp2::core {

namespace {

void put16(std::byte* p, u16 v) {
  p[0] = static_cast<std::byte>(v & 0xFFu);
  p[1] = static_cast<std::byte>(v >> 8);
}

u16 get16(const std::byte* p) {
  return static_cast<u16>(std::to_integer<u16>(p[0]) |
                          (std::to_integer<u16>(p[1]) << 8));
}

void put32(std::byte* p, u32 v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }
}

u32 get32(const std::byte* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::to_integer<u32>(p[i]) << (8 * i);
  }
  return v;
}

/// MSB-first bit packer over a caller-provided byte region. Codes (at most
/// 32 bits) collect in a 64-bit accumulator that leaves it as whole bytes,
/// so fewer than 8 bits are pending between calls and every byte of the
/// region is stored once; flush() writes the zero-padded last byte.
struct MsbBitWriter {
  std::byte* out;
  u64 acc = 0;  // pending bits in the low `pending` positions
  u32 pending = 0;

  void writeCode(u32 code, u8 len) {
    acc = (acc << len) | code;
    pending += len;
    while (pending >= 8) {
      pending -= 8;
      *out++ = static_cast<std::byte>((acc >> pending) & 0xFFu);
    }
  }

  void flush() {
    if (pending > 0) {
      *out++ = static_cast<std::byte>((acc << (8 - pending)) & 0xFFu);
    }
  }
};

}  // namespace

std::span<const BlockPipeline> pipelineTable() {
  static constexpr BlockPipeline kTable[kPipelineCount] = {
      {PipelineId::Fle, PredictStage::Delta1, EncodeStage::Fle, "fle"},
      {PipelineId::Huffman, PredictStage::Delta1, EncodeStage::Huffman,
       "huffman"},
      {PipelineId::Rle, PredictStage::Delta1, EncodeStage::Rle, "rle"},
      {PipelineId::LorenzoFle, PredictStage::Lorenzo2D, EncodeStage::Fle,
       "lorenzo-fle"},
  };
  return kTable;
}

void V3BlockDesc::pack(std::byte* out) const {
  u8 b = 0;
  switch (pipeline) {
    case PipelineId::Fle:
      b = offsetByte;  // legacy offset byte, never lands in 0x20-0x7F
      break;
    case PipelineId::Huffman:
      b = 0x20;
      break;
    case PipelineId::Rle:
      b = 0x40;
      break;
    default:  // LorenzoFle: Plain-FLE offset byte, fl fits the low 5 bits
      b = static_cast<u8>(0x60 | (offsetByte & 0x1F));
      break;
  }
  out[0] = static_cast<std::byte>(b);
}

V3BlockDesc V3BlockDesc::unpack(const std::byte* in) {
  const u8 b = std::to_integer<u8>(in[0]);
  V3BlockDesc d;
  if (b < 0x20 || b >= 0x80) {
    d.pipeline = PipelineId::Fle;
    d.offsetByte = b;
  } else if (b == 0x20) {
    d.pipeline = PipelineId::Huffman;
  } else if (b == 0x40) {
    d.pipeline = PipelineId::Rle;
  } else if ((b & 0xE0) == 0x60) {
    d.pipeline = PipelineId::LorenzoFle;
    d.offsetByte = static_cast<u8>(b & 0x1F);  // Plain-FLE pack of fl
  } else {
    // 0x21-0x3F / 0x41-0x5F: reserved; keep the raw byte as the (invalid)
    // id so salvage diagnostics can show it.
    d.pipeline = static_cast<PipelineId>(b);
  }
  return d;
}

usize V3BlockDesc::payloadBytes(const PayloadSizeTable& psize,
                                const std::byte* payload,
                                usize remaining) const {
  switch (pipeline) {
    case PipelineId::Fle:
    case PipelineId::LorenzoFle:
      return psize[static_cast<std::byte>(offsetByte)];
    case PipelineId::Huffman:
    case PipelineId::Rle:
      if (remaining < kV3EntropyPrefixBytes) return kV3EntropyPrefixBytes;
      return kV3EntropyPrefixBytes + get16(payload);
    default:
      return 0;  // unknown pipeline: no framing info, block is quarantined
  }
}

// ---- shared Huffman dictionary ------------------------------------------

HuffTable HuffTable::fromFrequencies(std::span<const u64> freq) {
  HuffTable t;
  t.lengths = entropy::HuffmanCodec::codeLengthsFromFrequencies(freq);
  t.codes = entropy::HuffmanCodec::canonicalCodes(t.lengths);
  return t;
}

usize HuffTable::serializedBytes() const {
  usize used = 0;
  for (u8 l : lengths) {
    if (l > 0) ++used;
  }
  return 2 + used * 3;
}

void HuffTable::serialize(std::byte* out) const {
  usize used = 0;
  for (u8 l : lengths) {
    if (l > 0) ++used;
  }
  put16(out, static_cast<u16>(used));
  std::byte* p = out + 2;
  for (usize s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    put16(p, static_cast<u16>(s));
    p[2] = static_cast<std::byte>(lengths[s]);
    p += 3;
  }
}

HuffTable HuffTable::parse(ConstByteSpan bytes) {
  require(bytes.size() >= 2, "HuffTable: truncated table header");
  const u16 used = get16(bytes.data());
  require(bytes.size() == 2 + static_cast<usize>(used) * 3,
          "HuffTable: table size does not match its entry count");
  require(used <= kSymbolAlphabet, "HuffTable: too many table entries");

  HuffTable t;
  t.lengths.assign(kSymbolAlphabet, 0);
  i32 prevSymbol = -1;
  u8 maxLen = 0;
  for (u16 i = 0; i < used; ++i) {
    const std::byte* e = bytes.data() + 2 + static_cast<usize>(i) * 3;
    const u16 sym = get16(e);
    const u8 len = std::to_integer<u8>(e[2]);
    require(sym < kSymbolAlphabet, "HuffTable: symbol out of alphabet");
    require(static_cast<i32>(sym) > prevSymbol,
            "HuffTable: symbols not strictly increasing");
    require(len >= 1 && len <= 32, "HuffTable: invalid code length");
    t.lengths[sym] = len;
    prevSymbol = sym;
    maxLen = std::max(maxLen, len);
  }
  // Kraft inequality: a table violating it would assign overlapping
  // canonical codes and the decoder could mis-resolve corrupt payloads
  // instead of rejecting them.
  if (used > 1) {
    u64 kraft = 0;
    for (u8 l : t.lengths) {
      if (l > 0) kraft += u64{1} << (maxLen - l);
    }
    require(kraft <= (u64{1} << maxLen),
            "HuffTable: code lengths violate the Kraft inequality");
  }
  t.codes = entropy::HuffmanCodec::canonicalCodes(t.lengths);
  return t;
}

HuffDecoder::HuffDecoder(const HuffTable& table) {
  for (u8 l : table.lengths) maxLen_ = std::max(maxLen_, l);
  firstCode_.assign(maxLen_ + 1u, 0);
  symbolBase_.assign(maxLen_ + 2u, 0);
  std::vector<u32> countPerLength(maxLen_ + 1u, 0);
  for (u8 l : table.lengths) {
    if (l > 0) ++countPerLength[l];
  }
  u32 code = 0;
  for (u32 len = 1; len <= maxLen_; ++len) {
    code = (code + (len >= 2 ? countPerLength[len - 1] : 0)) << 1;
    firstCode_[len] = code;
  }
  for (u32 len = 1; len <= maxLen_; ++len) {
    symbolBase_[len + 1] = symbolBase_[len] + countPerLength[len];
  }
  symbols_.resize(symbolBase_[maxLen_ + 1u]);
  std::vector<u32> cursor(symbolBase_.begin(), symbolBase_.end() - 1);
  for (usize s = 0; s < table.lengths.size(); ++s) {
    const u8 l = table.lengths[s];
    if (l > 0) symbols_[cursor[l]++] = static_cast<u16>(s);
  }

  // Each code of length l <= k owns the 2^(k-l) table entries it
  // prefixes. Canonical codes of one length never prefix another's, so
  // the entries are disjoint; a code that does not fit in l bits (an
  // over-full table) can never match the walk either and is left out.
  lookupBits_ = std::min<u32>(maxLen_, kLookupBits);
  lookup_.assign(usize{1} << lookupBits_, 0);
  for (u32 len = 1; len <= lookupBits_; ++len) {
    for (u32 i = 0; i < symbolBase_[len + 1] - symbolBase_[len]; ++i) {
      const u64 code = u64{firstCode_[len]} + i;
      if (code >> len != 0) break;
      const u32 entry =
          (static_cast<u32>(symbols_[symbolBase_[len] + i]) << 8) | len;
      const usize first = static_cast<usize>(code) << (lookupBits_ - len);
      std::fill_n(lookup_.begin() + static_cast<std::ptrdiff_t>(first),
                  usize{1} << (lookupBits_ - len), entry);
    }
  }
}

namespace {

/// The 64 bits from byte bitPos / 8 on, shifted left by bitPos % 8 so the
/// top 57 bits are the stream's bits at bitPos; bytes at or past
/// `byteLimit` read as zero.
u64 peek64(const std::byte* bits, usize byteLimit, usize bitPos) {
  const usize first = bitPos >> 3;
  u64 window = 0;
  if (first + 8 <= byteLimit) {
    for (usize i = 0; i < 8; ++i) {
      window = (window << 8) | std::to_integer<u64>(bits[first + i]);
    }
  } else {
    for (usize i = first; i < first + 8; ++i) {
      window = (window << 8) |
               (i < byteLimit ? std::to_integer<u64>(bits[i]) : u64{0});
    }
  }
  return window << (bitPos & 7);
}

}  // namespace

void HuffDecoder::decodeSymbols(const std::byte* bits, usize bitLimit,
                                usize& bitPos,
                                std::span<u16> symbols) const {
  const usize byteLimit = (bitLimit + 7) / 8;
  usize i = 0;
  while (i < symbols.size()) {
    // Probe codes out of a 57-bit window until it runs low, the table has
    // no entry, or the code would end past the limit; the walk then takes
    // that one symbol and its exact error.
    u64 window = peek64(bits, byteLimit, bitPos);
    u32 avail = 57;
    bool walk = lookupBits_ == 0;
    while (!walk && i < symbols.size() && avail >= lookupBits_) {
      const u32 entry = lookup_[window >> (64 - lookupBits_)];
      const u32 len = entry & 0xFFu;
      walk = len == 0 || bitPos + len > bitLimit;
      if (walk) break;
      symbols[i++] = static_cast<u16>(entry >> 8);
      window <<= len;
      avail -= len;
      bitPos += len;
    }
    if (walk) symbols[i++] = decodeSymbolCanonical(bits, bitLimit, bitPos);
  }
}

u16 HuffDecoder::decodeSymbolCanonical(const std::byte* bits, usize bitLimit,
                                       usize& bitPos) const {
  u32 code = 0;
  for (u32 len = 1; len <= maxLen_; ++len) {
    require(bitPos < bitLimit, "Huffman block: bit stream overrun");
    const u32 bit =
        (std::to_integer<u32>(bits[bitPos >> 3]) >> (7 - (bitPos & 7))) & 1u;
    ++bitPos;
    code = (code << 1) | bit;
    const u32 count = symbolBase_[len + 1] - symbolBase_[len];
    // Compared as an offset: firstCode + count reaches 2^32 at length 32.
    if (code >= firstCode_[len] && code - firstCode_[len] < count) {
      return symbols_[symbolBase_[len] + (code - firstCode_[len])];
    }
  }
  throw Error("Huffman block: invalid code in stream");
}

// ---- per-block encode/decode --------------------------------------------

usize huffmanBlockBytes(std::span<const u16> symbols,
                        const HuffTable& table) {
  u64 codeBits = 0;
  u32 escapeCount = 0;
  if (simd::huffmanBits(symbols, table.lengths, kEscapeSymbol, &codeBits,
                        &escapeCount)) {
    return 2 + static_cast<usize>((codeBits + 7) / 8) +
           static_cast<usize>(escapeCount) * 4;
  }
  usize bits = 0;
  u32 escapes = 0;
  for (u16 s : symbols) {
    const u8 len = table.lengths[s];
    if (len == 0) return kInvalidSize;  // symbol absent from the table
    bits += len;
    if (s == kEscapeSymbol) ++escapes;
  }
  return 2 + (bits + 7) / 8 + static_cast<usize>(escapes) * 4;
}

usize rleBlockBytes(std::span<const u16> symbols) {
  // A run starts at a symbol change or when the previous run reached the
  // 256-symbol cap of its u8 length byte.
  usize runs = 0;
  usize runLen = 0;
  usize escapes = 0;
  for (usize i = 0; i < symbols.size(); ++i) {
    const bool starts =
        i == 0 || symbols[i] != symbols[i - 1] || runLen == 256;
    runs += starts;
    runLen = starts ? 1 : runLen + 1;
    escapes += symbols[i] == kEscapeSymbol;
  }
  return 2 + runs * 3 + escapes * 4;
}

usize symbolizeBlock(std::span<const i32> residuals, std::span<u16> symbols) {
  u32 changes = 0;
  u32 escapes = 0;
  if (!simd::symbolRuns(residuals, kEscapeSymbol, symbols.data(), &changes,
                        &escapes)) {
    u16 prev = residuals.empty() ? 0 : symbolOf(residuals[0]);
    for (usize i = 0; i < residuals.size(); ++i) {
      const u16 s = symbolOf(residuals[i]);
      symbols[i] = s;
      changes += s != prev;
      escapes += s == kEscapeSymbol;
      prev = s;
    }
  }
  // At most 256 symbols: the run cap never splits a run.
  const usize runs = residuals.empty() ? 0 : usize{1} + changes;
  return 2 + runs * 3 + static_cast<usize>(escapes) * 4;
}

usize encodeHuffmanBlock(std::span<const i32> residuals,
                         const HuffTable& table, std::byte* out) {
  usize bits = 0;
  for (i32 r : residuals) bits += table.lengths[symbolOf(r)];
  const usize codedBytes = (bits + 7) / 8;
  put16(out, static_cast<u16>(bits));
  MsbBitWriter writer{out + 2};
  std::byte* escapes = out + 2 + codedBytes;
  for (i32 r : residuals) {
    const u16 s = symbolOf(r);
    writer.writeCode(table.codes[s], table.lengths[s]);
    if (s == kEscapeSymbol) {
      put32(escapes, static_cast<u32>(r));
      escapes += 4;
    }
  }
  writer.flush();
  return static_cast<usize>(escapes - out);
}

void decodeHuffmanBlock(ConstByteSpan payload, const HuffDecoder& decoder,
                        std::span<i32> residuals) {
  require(payload.size() >= 2, "Huffman block: truncated header");
  const usize bitCount = get16(payload.data());
  const usize codedBytes = (bitCount + 7) / 8;
  require(payload.size() >= 2 + codedBytes,
          "Huffman block: truncated code section");
  const std::byte* bits = payload.data() + 2;
  const std::byte* escapes = payload.data() + 2 + codedBytes;
  const usize escapeAvail = payload.size() - 2 - codedBytes;
  usize escapeUsed = 0;
  usize bitPos = 0;
  u16 symbols[256];
  for (usize first = 0; first < residuals.size(); first += 256) {
    const usize count = std::min<usize>(256, residuals.size() - first);
    // Symbols decode ahead of the escape reads, so when a code fails, an
    // escape shortage before it is the block's first error in stream
    // order and is reported instead. Slots the decoder never reached keep
    // a value outside the alphabet.
    std::fill_n(symbols, count, u16{0xFFFF});
    try {
      decoder.decodeSymbols(bits, bitCount, bitPos,
                            std::span<u16>(symbols, count));
    } catch (const Error&) {
      usize needed = escapeUsed;
      for (usize k = 0; k < count && symbols[k] != 0xFFFF; ++k) {
        needed += symbols[k] == kEscapeSymbol ? 4 : 0;
      }
      require(needed <= escapeAvail,
              "Huffman block: truncated escape section");
      throw;
    }
    for (usize k = 0; k < count; ++k) {
      const u16 s = symbols[k];
      i32& r = residuals[first + k];
      if (s == kEscapeSymbol) {
        require(escapeUsed + 4 <= escapeAvail,
                "Huffman block: truncated escape section");
        r = static_cast<i32>(get32(escapes + escapeUsed));
        escapeUsed += 4;
      } else {
        r = zigzagDecode(s);
      }
    }
  }
  require(bitPos == bitCount,
          "Huffman block: bit count does not match decoded symbols");
  require(escapeUsed == escapeAvail,
          "Huffman block: trailing bytes after escape section");
}

usize encodeRleBlock(std::span<const i32> residuals, std::byte* out) {
  std::byte* runs = out + 2;
  u32 runCount = 0;
  usize i = 0;
  while (i < residuals.size()) {
    const u16 s = symbolOf(residuals[i]);
    usize j = i + 1;
    while (j < residuals.size() && symbolOf(residuals[j]) == s &&
           j - i < 256) {
      ++j;
    }
    put16(runs, s);
    runs[2] = static_cast<std::byte>(j - i - 1);
    runs += 3;
    ++runCount;
    i = j;
  }
  put16(out, static_cast<u16>(runCount));
  std::byte* esc = runs;
  for (i32 r : residuals) {
    if (symbolOf(r) == kEscapeSymbol) {
      put32(esc, static_cast<u32>(r));
      esc += 4;
    }
  }
  return static_cast<usize>(esc - out);
}

void decodeRleBlock(ConstByteSpan payload, std::span<i32> residuals) {
  require(payload.size() >= 2, "RLE block: truncated header");
  const u16 runCount = get16(payload.data());
  require(payload.size() >= 2 + static_cast<usize>(runCount) * 3,
          "RLE block: truncated run section");
  const std::byte* runs = payload.data() + 2;
  const std::byte* escapes = runs + static_cast<usize>(runCount) * 3;
  const usize escapeAvail =
      payload.size() - 2 - static_cast<usize>(runCount) * 3;
  usize escapeUsed = 0;
  usize e = 0;
  for (u16 run = 0; run < runCount; ++run) {
    const u16 sym = get16(runs + run * 3);
    const usize len = std::to_integer<usize>(runs[run * 3 + 2]) + 1;
    require(sym < kSymbolAlphabet, "RLE block: symbol out of alphabet");
    require(e + len <= residuals.size(),
            "RLE block: runs overflow the block");
    for (usize k = 0; k < len; ++k) {
      if (sym == kEscapeSymbol) {
        require(escapeUsed + 4 <= escapeAvail,
                "RLE block: truncated escape section");
        residuals[e++] = static_cast<i32>(get32(escapes + escapeUsed));
        escapeUsed += 4;
      } else {
        residuals[e++] = zigzagDecode(sym);
      }
    }
  }
  require(e == residuals.size(), "RLE block: runs do not cover the block");
  require(escapeUsed == escapeAvail,
          "RLE block: trailing bytes after escape section");
}

// ---- Lorenzo-2D intra-block predictor -----------------------------------

bool lorenzo2dResiduals(std::span<const i32> quants,
                        std::span<i32> residuals) {
  // i32 fast path, taken when every |q| < 2^29: no sum can overflow, so
  // the residuals are exact and always representable.
  if (simd::lorenzo2dI32(quants, residuals.data())) return true;
  const usize L = quants.size();
  const usize cols = 8;
  const usize rows = L / cols;
  for (usize r = 0; r < rows; ++r) {
    for (usize c = 0; c < cols; ++c) {
      const usize i = r * cols + c;
      const i64 west = c > 0 ? quants[i - 1] : 0;
      const i64 north = r > 0 ? quants[i - cols] : 0;
      const i64 northWest = (r > 0 && c > 0) ? quants[i - cols - 1] : 0;
      const i64 res = static_cast<i64>(quants[i]) - (west + north - northWest);
      if (res < std::numeric_limits<i32>::min() ||
          res > std::numeric_limits<i32>::max()) {
        return false;
      }
      residuals[i] = static_cast<i32>(res);
    }
  }
  return true;
}

void lorenzo2dReconstruct(std::span<const i32> residuals,
                          std::span<i32> quants) {
  if (simd::lorenzo2dReconstructI32(residuals, quants.data())) return;
  const usize L = residuals.size();
  const usize cols = 8;
  const usize rows = L / cols;
  for (usize r = 0; r < rows; ++r) {
    for (usize c = 0; c < cols; ++c) {
      const usize i = r * cols + c;
      const i64 west = c > 0 ? quants[i - 1] : 0;
      const i64 north = r > 0 ? quants[i - cols] : 0;
      const i64 northWest = (r > 0 && c > 0) ? quants[i - cols - 1] : 0;
      quants[i] =
          static_cast<i32>(west + north - northWest + residuals[i]);
    }
  }
}

// ---- selection ----------------------------------------------------------

SelectionResult selectPipelines(std::span<const BlockCandidates> candidates,
                                PipelineMode mode, usize tableBytes) {
  require(mode != PipelineMode::Legacy,
          "selectPipelines: legacy mode has no pipeline selection");
  SelectionResult sel;
  sel.choice.assign(candidates.size(), PipelineId::Fle);

  auto pinned = [&](PipelineId id) {
    for (usize b = 0; b < candidates.size(); ++b) {
      // The FLE candidate is always valid; a block whose pinned pipeline
      // cannot represent it (Lorenzo residual overflow, symbol missing
      // from the table) falls back to FLE for that block alone.
      const usize want = candidates[b].bytes[static_cast<u8>(id)];
      const PipelineId use = want == kInvalidSize ? PipelineId::Fle : id;
      sel.choice[b] = use;
      sel.totalPayload += candidates[b].bytes[static_cast<u8>(use)];
      if (use == PipelineId::Huffman) sel.usesHuffman = true;
    }
  };

  switch (mode) {
    case PipelineMode::Fle: pinned(PipelineId::Fle); return sel;
    case PipelineMode::Huffman: pinned(PipelineId::Huffman); return sel;
    case PipelineMode::Rle: pinned(PipelineId::Rle); return sel;
    case PipelineMode::LorenzoFle: pinned(PipelineId::LorenzoFle); return sel;
    default: break;  // Auto
  }

  // Auto: per-block minimum, with and without the Huffman pipeline. The
  // shared table is worth shipping only when the blocks Huffman wins save
  // more than the table costs; otherwise the no-Huffman selection already
  // matches every pinned non-Huffman pipeline block for block.
  u64 sumNoHuff = 0;
  u64 sumAll = 0;
  std::vector<PipelineId> noHuff(candidates.size(), PipelineId::Fle);
  std::vector<PipelineId> all(candidates.size(), PipelineId::Fle);
  for (usize b = 0; b < candidates.size(); ++b) {
    const BlockCandidates& c = candidates[b];
    usize bestNo = kInvalidSize;
    usize bestAll = kInvalidSize;
    for (u8 p = 0; p < kPipelineCount; ++p) {
      const usize s = c.bytes[p];
      if (s == kInvalidSize) continue;
      if (s < bestAll) {
        bestAll = s;
        all[b] = static_cast<PipelineId>(p);
      }
      if (p != static_cast<u8>(PipelineId::Huffman) && s < bestNo) {
        bestNo = s;
        noHuff[b] = static_cast<PipelineId>(p);
      }
    }
    sumNoHuff += bestNo;
    sumAll += bestAll;
  }
  bool huffmanUsed = false;
  for (PipelineId p : all) huffmanUsed |= (p == PipelineId::Huffman);
  if (huffmanUsed && sumAll + tableBytes < sumNoHuff) {
    sel.choice = std::move(all);
    sel.totalPayload = sumAll;
    sel.usesHuffman = true;
  } else {
    sel.choice = std::move(noHuff);
    sel.totalPayload = sumNoHuff;
  }
  return sel;
}

PipelineMode parsePipelineMode(const std::string& name) {
  if (name == "legacy") return PipelineMode::Legacy;
  if (name == "auto") return PipelineMode::Auto;
  if (name == "fle") return PipelineMode::Fle;
  if (name == "huffman") return PipelineMode::Huffman;
  if (name == "rle") return PipelineMode::Rle;
  if (name == "lorenzo-fle") return PipelineMode::LorenzoFle;
  throw Error("unknown pipeline mode '" + name +
              "' (expected auto|fle|huffman|rle|lorenzo-fle|legacy)");
}

}  // namespace cuszp2::core
