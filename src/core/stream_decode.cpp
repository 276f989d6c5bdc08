// The decoder of every format generation (docs/FORMAT.md).
//
// A stream's header version fixes three things, and nothing else about
// decoding differs between generations:
//   * how a descriptor byte unpacks — a v1/v2 byte is always an FLE
//     offset byte, a v3 byte may name any pipeline (core/pipeline.hpp);
//   * whether a per-block digest footer follows the payload (v2, v3);
//   * whether a dictionary section precedes the payload (v3).
// One layout walk positions every block (strict mode throws, salvage mode
// fills verdicts), one block decoder turns a payload into quantization
// integers, and one tile kernel decodes a whole stream, a block range or
// the salvageable blocks. The generation is a template parameter of the
// walk and the kernel, so their per-block loops carry no version switch.
#include <algorithm>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "core/block_codec.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "core/stream_internal.hpp"

namespace cuszp2::core {

namespace {

using detail::AccessRecorder;
using detail::bandwidthPassSeconds;
using detail::dequantizeSpan;
using detail::hostStage;
using detail::makeProfile;
using detail::outputAlloc;
using detail::residualsToQuants;
using detail::secondOrderDiff;
using detail::streamChecksum;
using detail::tileCount;
using detail::TileSync;

bool isV3(const StreamHeader& header) {
  return header.version >= kFormatVersionV3;
}

/// Calls `fn` with std::true_type for a v3 stream, std::false_type for
/// v1/v2, so generation-specific code is chosen once per call.
template <typename Fn>
decltype(auto) byGeneration(const StreamHeader& header, Fn&& fn) {
  if (isV3(header)) return fn(std::true_type{});
  return fn(std::false_type{});
}

/// Block `d`'s descriptor as its generation defines it. A v1/v2 byte is
/// always FLE: a byte in 0x20-0x7F decodes as plain FLE (BlockHeader::unpack
/// ignores bits 5-6) and is never read as a v3 pipeline id.
template <bool kV3>
V3BlockDesc unpackDescriptor(const std::byte* d) {
  if constexpr (kV3) {
    return V3BlockDesc::unpack(d);
  } else {
    return {PipelineId::Fle, std::to_integer<u8>(*d)};
  }
}

/// Payload bytes of a block whose payload starts `start` bytes into a
/// payload region of `avail` bytes (v3 entropy blocks read their size
/// prefix there; a start past the region reads nothing).
template <bool kV3>
usize descPayloadBytes(const V3BlockDesc& d, const PayloadSizeTable& psize,
                       const std::byte* payload, u64 start, usize avail) {
  if constexpr (kV3) {
    const usize remaining = start <= avail ? avail - start : 0;
    return d.payloadBytes(psize, remaining > 0 ? payload + start : payload,
                          remaining);
  } else {
    return psize[static_cast<std::byte>(d.offsetByte)];
  }
}

/// An all-zero FLE block: flushed by memset instead of decoded.
bool isZeroBlock(const V3BlockDesc& d, usize size) {
  return size == 0 && d.pipeline != PipelineId::Huffman &&
         d.pipeline != PipelineId::Rle;
}

/// v3 blocks predict first order (LorenzoFle carries its own) whatever the
/// header's predictor byte says; v1/v2 blocks use the header's predictor.
Predictor blockPredictor(const StreamHeader& header) {
  return isV3(header) ? Predictor::FirstOrder : header.predictor;
}

/// Per-generation model charges of the decode kernels. The v1/v2 and v3
/// kernels were calibrated separately; these are fixed facts of the
/// model, not options.
struct DecodeCharges {
  u32 descGranule;     ///< bytes per descriptor-read instruction
  u32 strictDescOps;   ///< ops per block sizing descriptors, strict decode
  u32 rangeDescOps;    ///< ops per block sizing descriptors, range decode
  u32 elemOps;         ///< ops per decoded element
  bool salvageMemset;  ///< salvage flushes zero blocks by memset
};

/// Indexed by "is v3".
constexpr DecodeCharges kCharges[2] = {
    {1, 2, 2, 6, true},
    {4, 0, 2, 8, false},
};

// ---- the layout walk ---------------------------------------------------

/// What one layout walk checks and records.
struct LayoutWalk {
  const char* api = "";
  /// Blocks [digestFirst, digestFirst + digestCount) have their digests
  /// checked (v2/v3); every block by default.
  u64 digestFirst = 0;
  u64 digestCount = ~u64{0};
  /// Filled with each block's payload offset when non-empty.
  std::span<u64> blockStart;
  /// Salvage mode: per-block verdicts and framingDamaged land here (the
  /// caller pre-fills verdicts with Good) instead of being thrown.
  DecodeReport* report = nullptr;
  /// Salvage mode: Huffman blocks are decodable (a dictionary loaded).
  bool haveDecoder = false;
};

template <bool kV3>
[[noreturn]] void throwPayloadOverrun(const char* api, u64 block,
                                      u64 byteOffset, usize need,
                                      usize avail) {
  std::string msg = std::string(api) + ": " +
                    (kV3 ? "descriptors" : "offset bytes") +
                    " imply a payload overrun at block " +
                    std::to_string(block) + " (stream byte offset " +
                    std::to_string(byteOffset) + ", needs " +
                    std::to_string(need) + " bytes";
  if constexpr (kV3) {
    msg += ") — the stream is corrupt or truncated";
  } else {
    msg += ", " + std::to_string(avail) +
           " available) — the offset region is corrupt or the stream is "
           "truncated";
  }
  throw Error(msg);
}

/// Positions every block by the exclusive prefix sum of its payload size
/// and checks it lies inside the payload region, that each digest in
/// [digestFirst, digestFirst + digestCount) matches, and that the payload
/// plus footer end exactly at the stream end (v2/v3). Strict mode throws
/// Error naming the failing block and byte offset; salvage mode records
/// verdicts (also DecodeError for unknown pipelines and dictionary-less
/// Huffman blocks). Returns the total payload size.
template <bool kV3>
u64 walkLayoutAs(const StreamHeader& header, ConstByteSpan stream,
                 const LayoutWalk& w) {
  const u64 numBlocks = header.numBlocks();
  const usize payloadBegin = header.payloadBegin();
  const usize footerB = header.footerBytes();
  const usize payloadAvail = stream.size() - payloadBegin - footerB;
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + payloadBegin;
  // The footer occupies the stream's trailing bytes.
  const std::byte* footer = stream.data() + (stream.size() - footerB);
  const PayloadSizeTable psize(header.blockSize);
  // With a footer, blocks [digestFirst, digestEnd) have their digests
  // checked.
  const bool digests = header.hasBlockChecksums();
  const u64 digestFirst = w.digestFirst;
  const u64 digestEnd = w.digestCount >= numBlocks
                            ? numBlocks
                            : std::min(numBlocks, digestFirst + w.digestCount);
  // Without blockStart every position lands in one sink word: a store the
  // hot v1/v2 strict walk pays instead of a branch per block.
  u64 sink = 0;
  u64* const starts = w.blockStart.empty() ? &sink : w.blockStart.data();
  const u64 startStride = w.blockStart.empty() ? 0 : 1;
  BlockVerdict* const verdicts =
      w.report != nullptr ? w.report->verdicts.data() : nullptr;

  u64 cursor = 0;
  for (u64 blk = 0; blk < numBlocks; ++blk) {
    starts[blk * startStride] = cursor;
    const V3BlockDesc desc = unpackDescriptor<kV3>(descs + blk);
    if (verdicts == nullptr && !desc.knownPipeline()) {
      throw Error(std::string(w.api) + ": unknown pipeline id " +
                  std::to_string(static_cast<u32>(desc.pipeline)) +
                  " at block " + std::to_string(blk) +
                  " — the descriptor array is corrupt");
    }
    const usize size =
        descPayloadBytes<kV3>(desc, psize, payload, cursor, payloadAvail);
    // A cursor already past the region overruns too (sizes are at most a
    // few KiB, so the sum cannot wrap).
    const bool overrun = cursor + size > payloadAvail;
    const bool digestBad =
        digests && !overrun && blk < digestEnd && blk >= digestFirst &&
        loadLE(footer + 2 * blk, 2) !=
            blockDigest(descs[blk], ConstByteSpan(payload + cursor, size));
    if (overrun || digestBad) [[unlikely]] {
      if (verdicts != nullptr) {
        verdicts[blk] = overrun ? BlockVerdict::Truncated
                                : BlockVerdict::ChecksumMismatch;
      } else if (overrun) {
        throwPayloadOverrun<kV3>(w.api, blk, payloadBegin + cursor, size,
                                 payloadAvail - cursor);
      } else {
        throw Error(std::string(w.api) +
                    ": per-block checksum mismatch at block " +
                    std::to_string(blk) + " (stream byte offset " +
                    std::to_string(payloadBegin + cursor) +
                    ") — the stream is corrupted");
      }
    } else if (verdicts != nullptr &&
               (!desc.knownPipeline() ||
                (desc.pipeline == PipelineId::Huffman && !w.haveDecoder))) {
      verdicts[blk] = BlockVerdict::DecodeError;
    }
    cursor += size;
  }
  if (digests && payloadBegin + cursor + footerB != stream.size()) {
    if (w.report != nullptr) {
      w.report->framingDamaged = true;
    } else {
      throw Error(std::string(w.api) + ": version-" +
                  std::to_string(header.version) +
                  " stream framing mismatch (" +
                  (kV3 ? "descriptors" : "offset bytes") + " imply " +
                  std::to_string(payloadBegin + cursor + footerB) +
                  " bytes, stream has " + std::to_string(stream.size()) +
                  ") — the stream is corrupted or truncated");
    }
  }
  return cursor;
}

u64 walkLayout(const StreamHeader& header, ConstByteSpan stream,
               const LayoutWalk& w) {
  return byGeneration(header, [&](auto v3) {
    return walkLayoutAs<decltype(v3)::value>(header, stream, w);
  });
}

/// Strict walkLayout before any payload read, as host stage
/// `stream.validate`.
u64 validateLayout(const StreamHeader& header, ConstByteSpan stream,
                   const LayoutWalk& w) {
  u64 total = 0;
  hostStage("stream.validate", stream.size(),
            [&] { total = walkLayout(header, stream, w); });
  return total;
}

/// The strict whole-stream CRC-32 check when the header carries a stamp.
/// Returns the modelled seconds of the pass (0 without a stamp).
f64 verifyChecksum(const char* api, const StreamHeader& header,
                   ConstByteSpan stream, const gpusim::TimingModel& timing) {
  if (header.checksum == 0) return 0.0;
  if (streamChecksum(stream) != header.checksum) {
    throw Error(std::string(api) +
                ": checksum mismatch — the stream is corrupted");
  }
  return bandwidthPassSeconds(timing, stream.size());
}

// ---- the v3 dictionary -------------------------------------------------

/// Strict parse of the v3 dictionary section: [u32 tableBytes][u32 CRC-32]
/// [serialized table]. Returns an empty table for a stream that ships no
/// Huffman blocks (tableBytes == 0).
HuffTable parseDictionary(const char* api, const StreamHeader& header,
                          ConstByteSpan stream) {
  if (header.numBlocks() == 0) return {};
  const std::byte* dict = stream.data() + header.dictBegin();
  const u32 tableBytes = loadLE(dict, 4);
  require(8 + static_cast<usize>(tableBytes) == header.dictBytes,
          std::string(api) + ": dictionary section size mismatch — the "
          "stream is corrupted");
  const ConstByteSpan tableSpan(dict + 8, tableBytes);
  require(crc32(tableSpan) == loadLE(dict + 4, 4),
          std::string(api) + ": dictionary checksum mismatch — the shared "
          "Huffman table is corrupted");
  if (tableBytes == 0) return {};
  return HuffTable::parse(tableSpan);
}

/// parseDictionary plus the decoder build, as host stage
/// `stream.v3.dictionary`. Empty below v3 and for a stream without
/// Huffman blocks.
std::optional<HuffDecoder> loadDictionary(const char* api,
                                          const StreamHeader& header,
                                          ConstByteSpan stream) {
  std::optional<HuffDecoder> decoder;
  if (!isV3(header)) return decoder;
  hostStage("stream.v3.dictionary", header.dictBytes, [&] {
    const HuffTable table = parseDictionary(api, header, stream);
    if (!table.empty()) decoder.emplace(table);
  });
  return decoder;
}

// ---- the block decoder and the tile kernel -----------------------------

/// Decodes one block's payload into quantization integers (full padded
/// block length), in place except for the Lorenzo inverse. Throws
/// cuszp2::Error on malformed payloads. Inlined into the kernel's one call
/// site: it runs once per block.
[[gnu::always_inline]] inline void decodeBlock(
    const V3BlockDesc& desc, ConstByteSpan payload, const BlockCodec& codec,
    const HuffDecoder* decoder, Predictor predictor, std::span<i32> quants) {
  switch (desc.pipeline) {
    case PipelineId::Fle:
    case PipelineId::LorenzoFle: {
      const auto h = BlockHeader::unpack(desc.offsetByte);
      if (!h.outlierMode && h.fixedLength == 0) {
        // Zero block under any predictor: all residuals are zero, so the
        // reconstruction is zero regardless of the prediction stage.
        std::fill(quants.begin(), quants.end(), 0);
        return;
      }
      if (desc.pipeline == PipelineId::Fle) {
        codec.decodeResiduals(h, payload.data(), quants);
        break;
      }
      i32 resArr[256];
      const std::span<i32> res(resArr, quants.size());
      codec.decodeResiduals(h, payload.data(), res);
      lorenzo2dReconstruct(res, quants);
      return;
    }
    case PipelineId::Huffman:
      require(decoder != nullptr,
              "v3 decode: stream uses the Huffman pipeline but carries no "
              "dictionary");
      decodeHuffmanBlock(payload.subspan(kV3EntropyPrefixBytes), *decoder,
                         quants);
      break;
    default:  // Rle
      decodeRleBlock(payload.subspan(kV3EntropyPrefixBytes), quants);
      break;
  }
  residualsToQuants(quants, quants, predictor);
}

/// What a tile-decode kernel decodes:
///   Strict   every block, zero blocks by memset;
///   Range    blocks [firstBlock, endBlock), charged block by block;
///   Salvage  blocks whose verdict is Good; a block whose decode throws
///            becomes DecodeError and keeps the fill value.
enum class TileMode : u8 { Strict, Range, Salvage };

/// Where a tile's first payload byte comes from: the in-kernel decoupled
/// lookback over tile aggregates (the paper's decoder, v1/v2 strict and
/// range decode) or the layout walk's host prefix (v3, salvage).
struct TileBase {
  TileSync* lookback = nullptr;
  const u64* blockStart = nullptr;
};

/// Where decoded elements go: stream element e lands at
/// data[e - firstElement].
template <FloatingPoint T>
struct TileOutput {
  T* data = nullptr;
  u64 firstElement = 0;
  u64 firstBlock = 0;  ///< Range mode: blocks [firstBlock, endBlock)
  u64 endBlock = 0;
  BlockVerdict* verdicts = nullptr;  ///< Salvage mode
  T fill{};                          ///< Salvage mode
};

template <FloatingPoint T, bool kV3>
gpusim::KernelDesc buildTileDecodeAs(TileMode mode, const char* api,
                                     const StreamHeader& header,
                                     ConstByteSpan stream,
                                     const Config& config,
                                     const gpusim::TimingModel& timing,
                                     TileBase base,
                                     const HuffDecoder* decoder,
                                     TileOutput<T> out) {
  constexpr DecodeCharges charge = kCharges[kV3];
  const u32 L = header.blockSize;
  const u32 bpt = config.blocksPerTile;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const usize payloadAvail =
      stream.size() - header.payloadBegin() - header.footerBytes();
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const PayloadSizeTable psize(L);
  const AccessRecorder access{config.vectorizedAccess,
                              timing.spec().transactionBytes};
  const Predictor predictor = blockPredictor(header);
  const u32 descOps = mode == TileMode::Strict  ? charge.strictDescOps
                      : mode == TileMode::Range ? charge.rangeDescOps
                                                : 0;

  gpusim::KernelDesc desc;
  desc.gridSize = tileCount(numBlocks, bpt);
  desc.name = mode == TileMode::Range     ? "random_access_decode"
              : mode == TileMode::Salvage ? "salvage_decode"
              : kV3                       ? "v3_decompress"
                                          : "decompress";
  desc.body = [=](gpusim::BlockCtx& ctx) {
    const u64 tFirst = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 tLast = std::min(numBlocks, tFirst + bpt);
    access.read(ctx.mem, (tLast - tFirst) * kV3DescBytes, charge.descGranule);
    ctx.mem.noteOps((tLast - tFirst) * descOps);

    // Lengths fall out of the descriptors directly — no second analysis
    // loop, which is why decompression is faster (Sec. V-B).
    u64 cursor = 0;
    if constexpr (!kV3) {
      if (base.lookback != nullptr) {
        u64 aggregate = 0;
        for (u64 blk = tFirst; blk < tLast; ++blk) {
          aggregate += psize[descs[blk]];
        }
        cursor = base.lookback->processTile(ctx.blockIdx, aggregate,
                                            ctx.sync, ctx.mem);
      }
    }
    const bool range = mode == TileMode::Range;
    const bool salvage = mode == TileMode::Salvage;
    if (range && (tLast <= out.firstBlock || tFirst >= out.endBlock)) return;
    // A lookback base is the tile's first block, so its walk starts there;
    // a host base jumps straight to the range.
    const u64 from = range && base.lookback == nullptr
                         ? std::max(tFirst, out.firstBlock)
                         : tFirst;
    const u64 to = range ? std::min(tLast, out.endBlock) : tLast;

    i32 quantsArr[256];
    u64 zeroBytes = 0;
    u64 decodedElems = 0;
    u64 payloadBytesRead = 0;
    for (u64 blk = from; blk < to; ++blk) {
      if (salvage && out.verdicts[blk] != BlockVerdict::Good) continue;
      const V3BlockDesc d = unpackDescriptor<kV3>(descs + blk);
      const u64 start =
          base.lookback != nullptr ? cursor : base.blockStart[blk];
      const usize size =
          descPayloadBytes<kV3>(d, psize, payload, start, payloadAvail);
      cursor += size;
      if (range && blk < out.firstBlock) continue;

      const u64 eFirst = blk * L;
      const u64 elems = std::min<u64>(n, eFirst + L) - eFirst;
      T* dst = out.data + (eFirst - out.firstElement);
      if (!range && (!salvage || charge.salvageMemset) &&
          isZeroBlock(d, size)) {
        // Zero block: flush with device memset (paper Sec. V-B, JetIn).
        std::fill(dst, dst + elems, T{});
        zeroBytes += elems * sizeof(T);
        continue;
      }
      const std::span<i32> q(quantsArr, L);
      try {
        if (start + size > payloadAvail) {
          throw Error(std::string(api) + ": truncated payload region");
        }
        decodeBlock(d, ConstByteSpan(payload + start, size), codec, decoder,
                    predictor, q);
      } catch (const Error&) {
        if (!salvage) throw;
        out.verdicts[blk] = BlockVerdict::DecodeError;
        std::fill(dst, dst + elems, out.fill);
        continue;
      }
      dequantizeSpan(quantizer, std::span<const i32>(quantsArr, elems), dst);
      if (range) {
        access.read(ctx.mem, size, 4);
        access.write(ctx.mem, elems * sizeof(T), sizeof(T));
        ctx.mem.noteOps(elems * charge.elemOps);
      } else {
        decodedElems += elems;
        payloadBytesRead += size;
      }
    }
    if (range) return;
    access.read(ctx.mem, payloadBytesRead, 4);
    access.write(ctx.mem, decodedElems * sizeof(T), sizeof(T));
    ctx.mem.noteMemset(zeroBytes);
    ctx.mem.noteOps(decodedElems * charge.elemOps);
    ctx.mem.noteL1(decodedElems * 8);
  };
  return desc;
}

/// The one tile-decode kernel builder (see TileMode and TileBase).
template <FloatingPoint T>
gpusim::KernelDesc buildTileDecode(TileMode mode, const char* api,
                                   const StreamHeader& header,
                                   ConstByteSpan stream, const Config& config,
                                   const gpusim::TimingModel& timing,
                                   TileBase base, const HuffDecoder* decoder,
                                   TileOutput<T> out) {
  return byGeneration(header, [&](auto v3) {
    return buildTileDecodeAs<T, decltype(v3)::value>(
        mode, api, header, stream, config, timing, base, decoder, out);
  });
}

/// Serial-fallback copy: one typed decompress flattened to raw bytes.
template <FloatingPoint T>
void decompressSerialRaw(CompressorStream& self, ConstByteSpan stream,
                         DecompressedRaw& out) {
  Decompressed<T> d = self.decompress<T>(stream);
  out.elements = d.data.size();
  out.precision = precisionOf<T>();
  out.profile = d.profile;
  out.data.resize(d.data.size() * sizeof(T));
  if (!d.data.empty()) {
    std::memcpy(out.data.data(), d.data.data(), out.data.size());
  }
}

/// Per-stream state of one member of a fused decompress batch. Everything
/// the kernel body references by pointer must outlive the launch, so the
/// jobs vector is sized once up front and never reallocated.
struct DecodeJob {
  StreamHeader header;
  std::optional<TileSync> sync;
  f64 checksumSeconds = 0.0;
  gpusim::KernelDesc desc;
};

}  // namespace

namespace detail {

void writeFooter(const StreamHeader& header, std::byte* stream,
                 u64 payloadBytes) {
  const u64 numBlocks = header.numBlocks();
  const std::byte* descs = stream + StreamHeader::offsetsBegin();
  const std::byte* payload = stream + header.payloadBegin();
  std::byte* footer = stream + header.payloadBegin() + payloadBytes;
  const PayloadSizeTable psize(header.blockSize);
  hostStage("stream.footer_digest", numBlocks * kV3DescBytes + payloadBytes,
            [&] {
    byGeneration(header, [&](auto v3) {
      constexpr bool kV3 = decltype(v3)::value;
      u64 cursor = 0;
      for (u64 blk = 0; blk < numBlocks; ++blk) {
        const usize size = descPayloadBytes<kV3>(
            unpackDescriptor<kV3>(descs + blk), psize, payload, cursor,
            payloadBytes);
        storeLE(footer + 2 * blk,
                blockDigest(descs[blk], ConstByteSpan(payload + cursor, size)),
                2);
        cursor += size;
      }
    });
  });
}

}  // namespace detail

template <FloatingPoint T>
Decompressed<T> CompressorStream::decompress(ConstByteSpan stream) {
  arena_.reset();
  applyInjectedArenaBudget();
  const StreamHeader header = StreamHeader::parse(stream);
  require(header.precision == precisionOf<T>(),
          "decompress: stream precision does not match the requested type");
  const bool v3 = isV3(header);
  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();

  f64 checksumSeconds = verifyChecksum("decompress", header, stream, timing_);
  // Layout validation before any payload read: the prefix-summed payload
  // sizes must stay inside the stream, and per-block digests must match
  // (one extra bandwidth pass over the compressed bytes). An empty v3
  // stream is not walked; an empty v1/v2 one is frame-checked.
  const std::span<u64> blockStart =
      v3 ? arena_.allocSpan<u64>(numBlocks) : std::span<u64>{};
  if (!v3 || n > 0) {
    validateLayout(header, stream,
                   {.api = "decompress", .blockStart = blockStart});
    if (header.hasBlockChecksums()) {
      checksumSeconds += bandwidthPassSeconds(timing_, stream.size());
    }
  }

  Decompressed<T> out;
  outputAlloc(out.data, n, T{});
  if (n == 0) {
    out.profile.endToEndSeconds = timing_.launchSeconds();
    noteDecompressed(stream.size(), 0, 0.0);
    return out;
  }
  const std::optional<HuffDecoder> decoder =
      loadDictionary("decompress", header, stream);

  const u32 tiles = tileCount(numBlocks, bpt);
  std::optional<TileSync> lookback;
  if (!v3) lookback.emplace(config_.syncAlgorithm, tiles, arena_);
  gpusim::KernelDesc desc = buildTileDecode<T>(
      TileMode::Strict, "decompress", header, stream, config_, timing_,
      {lookback ? &*lookback : nullptr, blockStart.data()},
      decoder ? &*decoder : nullptr, {.data = out.data.data()});

  // Detect-and-retry (Config::faultRetries): every tile digests the output
  // elements it just wrote (reading back its own stores, before a soft
  // error can land) and the host re-derives the digests after the launch.
  // The v3 kernels run without it, as on the write side.
  gpusim::LaunchResult launch;
  if (config_.faultRetries > 0 && !v3) {
    const std::span<u32> tileWriteCrc = arena_.allocSpan<u32>(tiles);
    const T* data = out.data.data();
    const auto tileCrc = [=](u32 t) {
      const u64 eFirst = static_cast<u64>(t) * bpt * L;
      const u64 eLast = std::min<u64>(
          n, std::min<u64>(numBlocks, static_cast<u64>(t) * bpt + bpt) * L);
      return crc32(ConstByteSpan(reinterpret_cast<const std::byte*>(
                                     data + eFirst),
                                 (eLast - eFirst) * sizeof(T)));
    };
    desc.body = [decode = std::move(desc.body), tileWriteCrc,
                 tileCrc](gpusim::BlockCtx& ctx) {
      decode(ctx);
      tileWriteCrc[ctx.blockIdx] = tileCrc(ctx.blockIdx);
    };
    const auto verify = [&] {
      for (u32 t = 0; t < tiles; ++t) {
        if (tileCrc(t) != tileWriteCrc[t]) return false;
      }
      return true;
    };
    launch = launchVerified(
        desc,
        {reinterpret_cast<std::byte*>(out.data.data()), n * sizeof(T)},
        verify,
        [&] { lookback.emplace(config_.syncAlgorithm, tiles, arena_); });
  } else {
    launch = launcher_.launch(desc.gridSize, desc.body, desc.blocksPerTask,
                              {}, desc.name);
  }

  out.profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
  noteDecompressed(stream.size(), n * sizeof(T), out.profile.endToEndGBps);
  return out;
}

std::vector<DecompressedRaw> CompressorStream::decompressBatchRaw(
    std::span<const ConstByteSpan> streams) {
  std::vector<DecompressedRaw> out(streams.size());
  if (streams.empty()) return out;

  // Per-stream write-digest verification cannot isolate one member of a
  // fused launch, so fault-injection configurations keep the serial
  // detect-and-retry semantics of decompress(). Version-3 streams also
  // decode one launch per stream: folding them into the fused launch
  // would change a mixed batch's launch count.
  bool anyV3 = false;
  for (const ConstByteSpan s : streams) {
    if (isV3(StreamHeader::parse(s))) {
      anyV3 = true;
      break;
    }
  }
  if (config_.faultRetries > 0 || anyV3) {
    for (usize i = 0; i < streams.size(); ++i) {
      const StreamHeader header = StreamHeader::parse(streams[i]);
      if (header.precision == Precision::F32) {
        decompressSerialRaw<f32>(*this, streams[i], out[i]);
      } else {
        decompressSerialRaw<f64>(*this, streams[i], out[i]);
      }
    }
    return out;
  }

  arena_.reset();
  applyInjectedArenaBudget();

  std::vector<DecodeJob> jobs(streams.size());
  for (usize i = 0; i < streams.size(); ++i) {
    DecodeJob& job = jobs[i];
    const ConstByteSpan stream = streams[i];
    job.header = StreamHeader::parse(stream);
    job.checksumSeconds =
        verifyChecksum("decompressBatch", job.header, stream, timing_);
    validateLayout(job.header, stream,
                   {.api = "decompressBatch", .blockStart = {}});
    if (job.header.hasBlockChecksums()) {
      job.checksumSeconds += bandwidthPassSeconds(timing_, stream.size());
    }

    const u64 n = job.header.numElements;
    const usize elemBytes = byteWidth(job.header.precision);
    out[i].precision = job.header.precision;
    out[i].elements = n;
    outputAlloc(out[i].data, n * elemBytes, std::byte{});
    if (n == 0) {
      job.desc.gridSize = 0;
      out[i].profile.endToEndSeconds = timing_.launchSeconds();
      continue;
    }

    job.sync.emplace(config_.syncAlgorithm,
                     tileCount(job.header.numBlocks(), config_.blocksPerTile),
                     arena_);
    const TileBase base{&*job.sync, nullptr};
    if (job.header.precision == Precision::F32) {
      job.desc = buildTileDecode<f32>(
          TileMode::Strict, "decompressBatch", job.header, stream, config_,
          timing_, base, nullptr,
          {.data = reinterpret_cast<f32*>(out[i].data.data())});
    } else {
      job.desc = buildTileDecode<f64>(
          TileMode::Strict, "decompressBatch", job.header, stream, config_,
          timing_, base, nullptr,
          {.data = reinterpret_cast<f64*>(out[i].data.data())});
    }
  }

  std::vector<gpusim::KernelDesc> descs;
  descs.reserve(jobs.size());
  for (DecodeJob& job : jobs) descs.push_back(std::move(job.desc));
  auto launches = launcher_.launchBatch(descs);

  for (usize i = 0; i < jobs.size(); ++i) {
    if (descs[i].gridSize == 0) {
      noteDecompressed(streams[i].size(), 0, 0.0);
      continue;
    }
    out[i].profile = makeProfile(launches[i], timing_,
                                 jobs[i].header.originalBytes(),
                                 jobs[i].checksumSeconds);
    noteDecompressed(streams[i].size(), out[i].data.size(),
                     out[i].profile.endToEndGBps);
  }
  return out;
}

template <FloatingPoint T>
BlockRange<T> CompressorStream::decompressBlocks(ConstByteSpan stream,
                                                 u64 firstBlock,
                                                 u64 blockCount) {
  arena_.reset();
  applyInjectedArenaBudget();
  const StreamHeader header = StreamHeader::parse(stream);
  require(header.precision == precisionOf<T>(),
          "decompressBlocks: stream precision mismatch");
  const u64 numBlocks = header.numBlocks();
  require(firstBlock < numBlocks && blockCount > 0 &&
              firstBlock + blockCount <= numBlocks,
          "decompressBlocks: block range out of bounds");
  const bool v3 = isV3(header);

  // The whole prefix-summed layout is validated before any payload read
  // (a corrupt descriptor anywhere shifts every later block); digests are
  // checked for the requested blocks only.
  const std::span<u64> blockStart =
      v3 ? arena_.allocSpan<u64>(numBlocks) : std::span<u64>{};
  validateLayout(header, stream,
                 {.api = "decompressBlocks",
                  .digestFirst = firstBlock,
                  .digestCount = blockCount,
                  .blockStart = blockStart});
  const std::optional<HuffDecoder> decoder =
      loadDictionary("decompressBlocks", header, stream);

  std::optional<TileSync> lookback;
  if (!v3) {
    lookback.emplace(config_.syncAlgorithm,
                     tileCount(numBlocks, config_.blocksPerTile), arena_);
  }
  const u32 L = header.blockSize;
  BlockRange<T> out;
  out.firstElement = firstBlock * L;
  const u64 lastElement =
      std::min<u64>(header.numElements, (firstBlock + blockCount) * L);
  outputAlloc(out.values, lastElement - out.firstElement, T{});

  // Every tile sizes its descriptors (1 byte per block) to locate the
  // range; only the requested blocks run the decode path. This is why
  // random access reaches TB-level throughput relative to the original
  // data size (paper Fig. 20).
  const gpusim::KernelDesc desc = buildTileDecode<T>(
      TileMode::Range, "decompressBlocks", header, stream, config_, timing_,
      {lookback ? &*lookback : nullptr, blockStart.data()},
      decoder ? &*decoder : nullptr,
      {.data = out.values.data(),
       .firstElement = out.firstElement,
       .firstBlock = firstBlock,
       .endBlock = firstBlock + blockCount});
  const auto launch =
      launcher_.launch(desc.gridSize, desc.body, 0, {}, desc.name);

  out.profile = makeProfile(launch, timing_, header.originalBytes());
  noteDecompressed(stream.size(), out.values.size() * sizeof(T),
                   out.profile.endToEndGBps);
  return out;
}

template <FloatingPoint T>
Compressed CompressorStream::replaceBlocks(ConstByteSpan stream,
                                           u64 firstBlock,
                                           std::span<const T> values) {
  arena_.reset();
  applyInjectedArenaBudget();
  const StreamHeader header = StreamHeader::parse(stream);
  require(header.precision == precisionOf<T>(),
          "replaceBlocks: stream precision mismatch");
  require(!values.empty(), "replaceBlocks: values must be non-empty");

  const u32 L = header.blockSize;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();
  const u64 blockCount = (values.size() + L - 1) / L;
  require(firstBlock < numBlocks && firstBlock + blockCount <= numBlocks,
          "replaceBlocks: block range out of bounds");
  const u64 eFirst = firstBlock * L;
  const u64 eLast = std::min<u64>(n, (firstBlock + blockCount) * L);
  require(values.size() == eLast - eFirst,
          "replaceBlocks: values must cover whole blocks (size must be "
          "a multiple of the block size or end at the stream tail)");

  // A damaged stream is refused, not re-stamped: the stream CRC, the whole
  // layout and every digest are checked before the splice reads a byte.
  verifyChecksum("replaceBlocks", header, stream, timing_);
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  const u64 totalPayload = validateLayout(
      header, stream, {.api = "replaceBlocks", .blockStart = blockStart});
  if (isV3(header)) parseDictionary("replaceBlocks", header, stream);

  const u64 endBlock = firstBlock + blockCount;
  const u64 rangeStart = blockStart[firstBlock];
  const u64 rangeEnd =
      endBlock < numBlocks ? blockStart[endBlock] : totalPayload;

  // Re-encode the replacement blocks as FLE under the stream's bound,
  // predictor and mode (one small kernel). Spliced blocks do not consult
  // a v3 dictionary, so that section passes through unchanged and stays
  // valid for every untouched Huffman block.
  const Predictor predictor = blockPredictor(header);
  const u32 descGranule = kCharges[isV3(header)].descGranule;
  const Quantizer quantizer(header.absErrorBound, config_.roundingMode);
  const BlockCodec codec(L);
  const std::span<std::byte> newDescs =
      arena_.allocSpan<std::byte>(blockCount * kV3DescBytes);
  const std::span<std::byte> newPayload =
      arena_.allocSpan<std::byte>(blockCount * maxPayloadSize(L));
  const std::span<i32> blockScratch = arena_.allocSpan<i32>(L);
  u64 newRangeBytes = 0;
  const std::function<void(gpusim::BlockCtx&)> reencodeBody =
      [&](gpusim::BlockCtx& ctx) {
    std::span<i32> q = blockScratch;
    for (u64 b = 0; b < blockCount; ++b) {
      const u64 vFirst = b * L;
      const u64 vLast = std::min<u64>(values.size(), vFirst + L);
      quantizeDiffBlock(quantizer, values.subspan(vFirst, vLast - vFirst),
                        q);
      if (predictor == Predictor::SecondOrder) secondOrderDiff(q);
      const auto plan = codec.planResiduals(q, header.mode);
      // An FLE descriptor is the offset byte in every generation.
      newDescs[b] = static_cast<std::byte>(plan.header.pack());
      codec.encodeResiduals(q, plan, newPayload.data() + newRangeBytes);
      newRangeBytes += plan.payloadBytes;
    }
    ctx.mem.noteVectorRead(values.size() * sizeof(T), 32);
    ctx.mem.noteScalarRead(numBlocks * kV3DescBytes, descGranule, 32);
    ctx.mem.noteVectorWrite(newRangeBytes + blockCount * kV3DescBytes, 32);
    ctx.mem.noteOps(values.size() * 16);
  };
  const auto launch =
      launcher_.launch(1, reencodeBody, 0, {}, "replace_blocks");

  // Splice: header | descriptors (patched) | dictionary | payload prefix
  // | new | suffix | footer (rebuilt over the spliced blocks).
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const u64 outPayload = totalPayload - (rangeEnd - rangeStart) +
                         newRangeBytes;
  Compressed out;
  out.originalBytes = header.originalBytes();
  out.stream.reserve(header.payloadBegin() + outPayload +
                     header.footerBytes());
  const auto append = [&](const std::byte* begin, const std::byte* end) {
    out.stream.insert(out.stream.end(), begin, end);
  };
  append(stream.data(), descs);
  append(descs, descs + firstBlock * kV3DescBytes);
  append(newDescs.data(), newDescs.data() + newDescs.size());
  append(descs + endBlock * kV3DescBytes, descs + numBlocks * kV3DescBytes);
  append(stream.data() + header.dictBegin(), payload);
  append(payload, payload + rangeStart);
  append(newPayload.data(), newPayload.data() + newRangeBytes);
  append(payload + rangeEnd, payload + totalPayload);
  if (header.hasBlockChecksums()) {
    out.stream.resize(out.stream.size() + header.footerBytes());
    detail::writeFooter(header, out.stream.data(), outPayload);
  }
  if (header.checksum != 0) {
    StreamHeader patched = header;
    patched.checksum = streamChecksum(out.stream);
    patched.serialize(out.stream.data());
  }

  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  out.profile = makeProfile(launch, timing_, (eLast - eFirst) * sizeof(T));
  instruments_.replaceBlocksCalls->add(1);
  instruments_.arenaHighWater->set(
      static_cast<f64>(arena_.stats().highWater));
  return out;
}

template <FloatingPoint T>
Salvaged<T> CompressorStream::decompressResilient(ConstByteSpan stream,
                                                  T fillValue) {
  arena_.reset();
  // Salvage keeps its never-throws contract: clear (don't take) any
  // injected arena budget.
  arena_.clearFailureBudget();
  Salvaged<T> out;
  DecodeReport& rep = out.report;
  out.profile.endToEndSeconds = timing_.launchSeconds();

  instruments_.salvageCalls->add(1);
  std::string headerError;
  const auto parsed = StreamHeader::tryParse(stream, &headerError);
  if (!parsed) {
    // Unparseable header: no block or byte counts are trustworthy, so
    // nothing beyond the call counter reaches the registry.
    rep.headerError = headerError;
    return out;
  }
  const StreamHeader header = *parsed;
  if (header.precision != precisionOf<T>()) {
    rep.headerError =
        "decompressResilient: stream precision does not match the "
        "requested type";
    return out;
  }
  rep.headerOk = true;
  rep.blockChecksums = header.hasBlockChecksums();

  // Whole-stream CRC verdict is informational in salvage mode: a
  // mismatch localizes nothing, the per-block pass below decides.
  f64 checksumSeconds = 0.0;
  if (header.checksum != 0) {
    rep.streamChecksumOk = (streamChecksum(stream) == header.checksum);
    checksumSeconds = bandwidthPassSeconds(timing_, stream.size());
  }

  const u64 numBlocks = header.numBlocks();
  rep.totalBlocks = numBlocks;
  rep.verdicts.assign(numBlocks, BlockVerdict::Good);
  outputAlloc(out.data, header.numElements, fillValue);
  if (header.numElements == 0) return out;

  // Dictionary verdict: a damaged section header, CRC, or table quarantines
  // every Huffman block but leaves the table-free pipelines decodable.
  std::optional<HuffDecoder> decoder;
  try {
    decoder = loadDictionary("decompressResilient", header, stream);
  } catch (const Error&) {
    rep.dictionaryOk = false;
  }

  // Host structural pass: position every block, bounds-check each against
  // the payload region and verify each in-range block's digest. A
  // truncated stream quarantines every block past the cut; a flipped
  // descriptor shifts all later positions, so their digests fail too —
  // exactly the blocks whose bytes can no longer be trusted. Positions
  // come from this pass, so the kernel needs no scan state (and corrupted
  // descriptors cannot wedge the inter-tile protocol).
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  walkLayout(header, stream,
             {.api = "decompressResilient",
              .blockStart = blockStart,
              .report = &rep,
              .haveDecoder = decoder.has_value()});

  // Decode only the surviving blocks; quarantined blocks keep the fill.
  const gpusim::KernelDesc desc = buildTileDecode<T>(
      TileMode::Salvage, "decompressResilient", header, stream, config_,
      timing_, {nullptr, blockStart.data()}, decoder ? &*decoder : nullptr,
      {.data = out.data.data(),
       .verdicts = rep.verdicts.data(),
       .fill = fillValue});
  const auto launch =
      launcher_.launch(desc.gridSize, desc.body, 0, {}, desc.name);

  for (u64 blk = 0; blk < numBlocks; ++blk) {
    if (rep.verdicts[blk] == BlockVerdict::Good) continue;
    ++rep.badBlocks;
    if (rep.firstCorruptOffset == DecodeReport::kNoCorruption) {
      rep.firstCorruptOffset = header.payloadBegin() + blockStart[blk];
    }
  }
  rep.goodBlocks = numBlocks - rep.badBlocks;
  instruments_.salvageBadBlocks->add(rep.badBlocks);

  out.profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
  return out;
}

// Explicit instantiations of the public decode surface.
template Decompressed<f32> CompressorStream::decompress<f32>(ConstByteSpan);
template Decompressed<f64> CompressorStream::decompress<f64>(ConstByteSpan);
template BlockRange<f32> CompressorStream::decompressBlocks<f32>(
    ConstByteSpan, u64, u64);
template BlockRange<f64> CompressorStream::decompressBlocks<f64>(
    ConstByteSpan, u64, u64);
template Compressed CompressorStream::replaceBlocks<f32>(
    ConstByteSpan, u64, std::span<const f32>);
template Compressed CompressorStream::replaceBlocks<f64>(
    ConstByteSpan, u64, std::span<const f64>);
template Salvaged<f32> CompressorStream::decompressResilient<f32>(
    ConstByteSpan, f32);
template Salvaged<f64> CompressorStream::decompressResilient<f64>(
    ConstByteSpan, f64);

}  // namespace cuszp2::core
