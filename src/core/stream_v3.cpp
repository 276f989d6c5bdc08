// The format-v3 writer of CompressorStream (see core/pipeline.hpp and
// docs/FORMAT.md for the wire layout; stream_decode.cpp reads it).
//
// Compression is a two-kernel pass with a host selection stage between
// them, replacing the legacy single kernel + decoupled-lookback scan:
//
//   "v3_analyze"  quantize + delta-1 per block, store residuals/symbols,
//                 gather per-block candidate sizes for every pipeline and
//                 per-worker symbol histograms
//   (host)        reduced symbol histogram -> shared Huffman table,
//                 per-block Huffman sizes, selectPipelines(), prefix sum
//                 of the chosen sizes into exact payload positions
//   "v3_encode"   encode each block with its selected pipeline at its
//                 precomputed offset, write the 1-byte descriptors
//
// Because block positions are prefix-summed on the host, neither kernel
// needs inter-tile synchronization, and decompression positions blocks
// from the descriptor array alone. Version-3 streams always carry the
// per-block CRC footer. The detect-and-retry machinery of the legacy path
// (Config::faultRetries) does not apply to the v3 kernels, on either side.
#include <algorithm>
#include <vector>

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/block_codec.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "core/stream_internal.hpp"

namespace cuszp2::core {

namespace {

using detail::AccessRecorder;
using detail::bandwidthPassSeconds;
using detail::hostStage;
using detail::makeProfile;
using detail::rangeReduce;
using detail::residualsToQuants;
using detail::streamChecksum;
using detail::tileCount;

}  // namespace

template <FloatingPoint T>
Compressed CompressorStream::compressV3(std::span<const T> data) {
  arena_.reset();
  applyInjectedArenaBudget();

  const u32 L = config_.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = data.size();
  const EncodingMode mode = config_.mode;

  f64 extraSeconds = 0.0;
  f64 absEb = config_.absErrorBound;
  if (absEb <= 0.0) {
    const f64 range = rangeReduce(data);
    absEb = Quantizer::absFromRel(config_.relErrorBound, range);
    extraSeconds += bandwidthPassSeconds(timing_, n * sizeof(T));
  }
  const Quantizer quantizer(absEb, config_.roundingMode);

  StreamHeader header;
  header.version = kFormatVersionV3;
  header.precision = precisionOf<T>();
  header.mode = mode;
  header.predictor = config_.predictor;  // FirstOrder (Config::validate)
  header.blockSize = L;
  header.numElements = n;
  header.absErrorBound = absEb;

  Compressed out;
  out.originalBytes = n * sizeof(T);
  if (n == 0) {
    out.stream.assign(StreamHeader::kBytes, std::byte{});
    header.serialize(out.stream.data());
    out.ratio = 0.0;
    out.profile.endToEndSeconds = timing_.launchSeconds();
    noteCompressed(out);
    return out;
  }

  const u64 numBlocks = header.numBlocks();
  const u32 tiles = tileCount(numBlocks, bpt);
  const BlockCodec codec(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};

  // Whole-stream residual/symbol scratch (blocks are padded to L, matching
  // the legacy layout, so spans index by blk * L).
  const std::span<i32> residuals = arena_.allocSpan<i32>(numBlocks * L);
  const std::span<u16> symbols = arena_.allocSpan<u16>(numBlocks * L);
  const std::span<BlockCandidates> candidates =
      arena_.allocSpan<BlockCandidates>(numBlocks);

  // Symbol histogram slots for the shared Huffman table, one per pool
  // worker (a worker runs one task at a time, so slots never alias). Each
  // slot holds kHistLanes sub-histograms indexed by element position mod
  // kHistLanes, so a run of equal symbols bumps different counters instead
  // of chaining every increment through one.
  const bool wantTable = config_.pipeline == PipelineMode::Auto ||
                         config_.pipeline == PipelineMode::Huffman;
  constexpr usize kHistLanes = 4;
  constexpr usize kHistSlot = kHistLanes * kSymbolAlphabet;
  const usize workers = launcher_.workerCount();
  const std::span<u64> histSlots =
      arena_.allocSpan<u64>(wantTable ? workers * kHistSlot : 0);
  std::fill(histSlots.begin(), histSlots.end(), u64{0});

  // Phase 1 — quantize + delta-1 per block, map symbols, and gather the
  // candidate sizes the host selector needs. Same per-element analysis
  // cost as the legacy pass 1, plus the RLE/Lorenzo candidate walks (the
  // RLE size falls out of the symbol mapping's own pass).
  gpusim::KernelDesc analyze;
  analyze.gridSize = tiles;
  analyze.name = "v3_analyze";
  analyze.body = [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    i32 lorenzoArr[256];
    u64 elemsRead = 0;
    u64* hist = nullptr;
    if (wantTable) {
      const usize w = ThreadPool::currentWorkerIndex();
      require(w < workers, "compressV3: kernel body ran outside its worker "
                           "pool");
      hist = histSlots.data() + w * kHistSlot;
    }
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      const std::span<i32> r(residuals.data() + blk * L, L);
      quantizeDiffBlock(quantizer,
                        std::span<const T>(data.data() + eFirst,
                                           eLast - eFirst),
                        r);
      const std::span<u16> sym(symbols.data() + blk * L, L);
      const usize rleBytes = symbolizeBlock(r, sym);
      if (hist != nullptr) {
        static_assert(kHistLanes == 4, "the count below is unrolled by 4");
        for (usize i = 0; i < L; i += kHistLanes) {  // L % 8 == 0
          ++hist[sym[i]];
          ++hist[kSymbolAlphabet + sym[i + 1]];
          ++hist[2 * kSymbolAlphabet + sym[i + 2]];
          ++hist[3 * kSymbolAlphabet + sym[i + 3]];
        }
      }

      BlockCandidates cand;
      cand.bytes[static_cast<u8>(PipelineId::Fle)] =
          codec.planResiduals(r, mode).payloadBytes;
      // Entropy candidates are charged their u16 size prefix so selection
      // compares true payload costs.
      cand.bytes[static_cast<u8>(PipelineId::Rle)] =
          rleBytes <= 0xFFFF ? rleBytes + kV3EntropyPrefixBytes
                             : kInvalidSize;
      {
        const std::span<i32> q(quantsArr, L);
        residualsToQuants(r, q, Predictor::FirstOrder);
        const std::span<i32> lres(lorenzoArr, L);
        if (lorenzo2dResiduals(q, lres)) {
          // Lorenzo blocks are always Plain-FLE: the 1-byte descriptor
          // only has 5 bits for the fixed length.
          cand.bytes[static_cast<u8>(PipelineId::LorenzoFle)] =
              codec.planResiduals(lres, EncodingMode::Plain).payloadBytes;
        }
      }
      candidates[blk] = cand;
      elemsRead += eLast - eFirst;
    }
    access.read(ctx.mem, elemsRead * sizeof(T), sizeof(T));
    access.write(ctx.mem, (lastBlock - firstBlock) * L * 6, 4);
    ctx.mem.noteOps((lastBlock - firstBlock) * L * 20);
    ctx.mem.noteL1((lastBlock - firstBlock) * L * 12);
  };
  const auto analyzeLaunch = launcher_.launch(
      analyze.gridSize, analyze.body, analyze.blocksPerTask, {}, analyze.name);

  // Host stage — shared Huffman table from the reduced whole-stream
  // histogram, per-block Huffman candidate sizes, pipeline selection,
  // prefix sum.
  HuffTable table;
  usize tableBytes = 0;
  if (wantTable) {
    hostStage("stream.v3.huffman_table", symbols.size_bytes(), [&] {
      std::vector<u64> freq(kSymbolAlphabet, 0);
      for (usize slot = 0; slot < workers * kHistLanes; ++slot) {
        const u64* sub = histSlots.data() + slot * kSymbolAlphabet;
        for (usize s = 0; s < kSymbolAlphabet; ++s) freq[s] += sub[s];
      }
      table = HuffTable::fromFrequencies(freq);
      tableBytes = table.serializedBytes();
      for (u64 blk = 0; blk < numBlocks; ++blk) {
        const usize bytes = huffmanBlockBytes(
            std::span<const u16>(symbols.data() + blk * L, L), table);
        candidates[blk].bytes[static_cast<u8>(PipelineId::Huffman)] =
            bytes <= 0xFFFF ? bytes + kV3EntropyPrefixBytes : kInvalidSize;
      }
    });
  }

  SelectionResult sel;
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  u64 cursor = 0;
  hostStage("stream.v3.select", candidates.size_bytes(), [&] {
    sel = selectPipelines(candidates, config_.pipeline, tableBytes);
    for (u64 blk = 0; blk < numBlocks; ++blk) {
      blockStart[blk] = cursor;
      cursor += candidates[blk].bytes[static_cast<u8>(sel.choice[blk])];
    }
  });
  require(cursor == sel.totalPayload,
          "compressV3: selection/prefix-sum size mismatch");
  header.dictBytes =
      static_cast<u32>(8 + (sel.usesHuffman ? tableBytes : 0));

  const usize payloadBegin = header.payloadBegin();
  const usize finalBytes = payloadBegin + static_cast<usize>(cursor) +
                           header.footerBytes();
  std::byte* staging = static_cast<std::byte*>(arena_.allocate(finalBytes));
  header.serialize(staging);
  std::byte* descs = staging + StreamHeader::offsetsBegin();
  std::byte* dict = staging + header.dictBegin();
  std::byte* payload = staging + payloadBegin;

  storeLE(dict, header.dictBytes - 8, 4);
  const ConstByteSpan tableSpan(dict + 8, header.dictBytes - 8);
  if (sel.usesHuffman) table.serialize(dict + 8);
  storeLE(dict + 4, crc32(tableSpan), 4);

  // Phase 2 — encode every block with its selected pipeline at its exact
  // precomputed offset and write the 1-byte descriptors. No inter-tile
  // synchronization: positions came from the host prefix sum.
  const std::span<const PipelineId> choice = sel.choice;
  gpusim::KernelDesc encode;
  encode.gridSize = tiles;
  encode.name = "v3_encode";
  encode.body = [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    i32 lorenzoArr[256];
    u64 bytesWritten = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const std::span<const i32> r(residuals.data() + blk * L, L);
      std::byte* outp = payload + blockStart[blk];
      V3BlockDesc desc;
      desc.pipeline = choice[blk];
      usize written = 0;
      switch (choice[blk]) {
        case PipelineId::Fle: {
          const auto plan = codec.planResiduals(r, mode);
          desc.offsetByte = plan.header.pack();
          codec.encodeResiduals(r, plan, outp);
          written = plan.payloadBytes;
          break;
        }
        case PipelineId::LorenzoFle: {
          const std::span<i32> q(quantsArr, L);
          residualsToQuants(r, q, Predictor::FirstOrder);
          const std::span<i32> lres(lorenzoArr, L);
          lorenzo2dResiduals(q, lres);  // valid: the analysis pass checked
          const auto plan = codec.planResiduals(lres, EncodingMode::Plain);
          desc.offsetByte = plan.header.pack();
          codec.encodeResiduals(lres, plan, outp);
          written = plan.payloadBytes;
          break;
        }
        case PipelineId::Huffman: {
          const usize body = encodeHuffmanBlock(
              r, table, outp + kV3EntropyPrefixBytes);
          storeLE(outp, static_cast<u32>(body), 2);
          written = kV3EntropyPrefixBytes + body;
          break;
        }
        default: {  // Rle
          const usize body = encodeRleBlock(r, outp + kV3EntropyPrefixBytes);
          storeLE(outp, static_cast<u32>(body), 2);
          written = kV3EntropyPrefixBytes + body;
          break;
        }
      }
      require(written ==
                  candidates[blk].bytes[static_cast<u8>(choice[blk])],
              "compressV3: encoded size diverged from the analysis pass");
      desc.pack(descs + blk * kV3DescBytes);
      bytesWritten += written;
    }
    access.read(ctx.mem, (lastBlock - firstBlock) * L * 4, 4);
    access.write(ctx.mem, bytesWritten +
                              (lastBlock - firstBlock) * kV3DescBytes, 4);
    ctx.mem.noteOps(bytesWritten * 8);
    ctx.mem.noteL1((lastBlock - firstBlock) * L * 4);
  };
  const auto encodeLaunch = launcher_.launch(
      encode.gridSize, encode.body, encode.blocksPerTask, {}, encode.name);

  // Per-block CRC footer (always present in v3) — one bandwidth pass over
  // the compressed bytes, same model as the legacy v2 footer.
  detail::writeFooter(header, staging, cursor);
  extraSeconds += bandwidthPassSeconds(timing_, finalBytes);

  if (config_.checksum) {
    header.checksum = streamChecksum(ConstByteSpan(staging, finalBytes));
    header.serialize(staging);
    extraSeconds += bandwidthPassSeconds(timing_, finalBytes);
  }

  out.stream.assign(staging, staging + finalBytes);
  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  const f64 encodeSeconds =
      timing_.kernel(encodeLaunch.mem, encodeLaunch.sync).totalSeconds;
  out.profile = makeProfile(analyzeLaunch, timing_, out.originalBytes,
                            extraSeconds + encodeSeconds);
  out.profile.wallSeconds += encodeLaunch.wallSeconds;
  noteCompressed(out);
  return out;
}

// Explicit instantiations (access checking does not apply to explicit
// instantiation of private members; the public entry points in stream.cpp
// link against these).
template Compressed CompressorStream::compressV3<f32>(std::span<const f32>);
template Compressed CompressorStream::compressV3<f64>(std::span<const f64>);

}  // namespace cuszp2::core
