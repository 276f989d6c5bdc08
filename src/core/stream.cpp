#include "core/stream.hpp"

#include <algorithm>
#include <optional>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/block_codec.hpp"
#include "core/quantizer.hpp"
#include "core/stream_internal.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::core {

namespace {

using detail::AccessRecorder;
using detail::bandwidthPassSeconds;
using detail::makeProfile;
using detail::rangeReduce;
using detail::secondOrderDiff;
using detail::streamChecksum;
using detail::tileCount;
using detail::TileSync;

/// Tile-local compression scratch, pre-partitioned into one slot per pool
/// worker. A worker runs exactly one task at a time and each kernel-body
/// invocation fully re-initializes its slot, so slots never alias even
/// when several batched kernels interleave on the pool.
struct WorkerScratch {
  std::span<i32> quants;
  std::span<BlockPlan> plans;
  usize quantsPerWorker = 0;
  usize plansPerWorker = 0;
};

WorkerScratch makeWorkerScratch(Arena& arena, usize workers, u32 bpt,
                                u32 L) {
  WorkerScratch s;
  s.quantsPerWorker = static_cast<usize>(bpt) * L;
  s.plansPerWorker = bpt;
  s.quants = arena.allocSpan<i32>(workers * s.quantsPerWorker);
  s.plans = arena.allocSpan<BlockPlan>(workers * s.plansPerWorker);
  return s;
}

/// Everything one compress needs between preparation and finalization.
/// Prepared on the host, referenced by the (possibly batched) kernel body.
struct FieldJob {
  StreamHeader header;
  u64 n = 0;
  u64 originalBytes = 0;
  u32 tiles = 0;
  f64 rangeSeconds = 0.0;
  std::byte* staging = nullptr;  // header | offsets | payload, in the arena
  usize stagingBytes = 0;
  std::span<u64> tileInclusive;
  /// Per-tile CRC-32 over the tile's written offset + payload bytes,
  /// computed inside the kernel when fault verification is on
  /// (Config::faultRetries > 0); the host re-derives them from the staging
  /// memory after the launch to detect injected write faults.
  std::span<u32> tileWriteCrc;
  std::optional<TileSync> sync;
  gpusim::KernelDesc desc;
};

/// Host-side setup of one field's compression: error-bound resolution,
/// header, arena staging, scan state, and the kernel body. Mirrors the
/// seed one-shot pipeline exactly so the staged bytes are identical.
template <FloatingPoint T>
void prepareField(const Config& config, const gpusim::TimingModel& timing,
                  Arena& arena, const WorkerScratch& scratch, usize workers,
                  std::span<const T> data, FieldJob& job) {
  const u32 L = config.blockSize;
  const u32 bpt = config.blocksPerTile;
  const u64 n = data.size();
  job.n = n;
  job.originalBytes = n * sizeof(T);

  // Resolve the error bound. If only a REL bound is configured, reduce the
  // value range on-device first (one bandwidth-limited read of the input).
  f64 absEb = config.absErrorBound;
  if (absEb <= 0.0) {
    const f64 range = rangeReduce(data);
    absEb = Quantizer::absFromRel(config.relErrorBound, range);
    job.rangeSeconds = bandwidthPassSeconds(timing, job.originalBytes);
  }
  const Quantizer quantizer(absEb, config.roundingMode);

  job.header.version =
      config.blockChecksums ? kFormatVersionV2 : kFormatVersion;
  job.header.precision = precisionOf<T>();
  job.header.mode = config.mode;
  job.header.predictor = config.predictor;
  job.header.blockSize = L;
  job.header.numElements = n;
  job.header.absErrorBound = absEb;

  const u64 numBlocks = job.header.numBlocks();
  job.tiles = tileCount(numBlocks, bpt);

  job.stagingBytes = job.header.payloadBegin() +
                     static_cast<usize>(numBlocks) * maxPayloadSize(L) +
                     job.header.footerBytes();
  job.staging = static_cast<std::byte*>(arena.allocate(job.stagingBytes));
  job.header.serialize(job.staging);
  if (n == 0) return;  // desc.gridSize stays 0: nothing to launch

  std::byte* offsetBytes = job.staging + StreamHeader::offsetsBegin();
  std::byte* payloadOut = job.staging + job.header.payloadBegin();

  job.tileInclusive = arena.allocSpan<u64>(job.tiles);
  if (config.faultRetries > 0) {
    job.tileWriteCrc = arena.allocSpan<u32>(job.tiles);
  }
  job.sync.emplace(config.syncAlgorithm, job.tiles, arena);

  const BlockCodec codec(L);
  const AccessRecorder access{config.vectorizedAccess,
                              timing.spec().transactionBytes};
  const Predictor predictor = config.predictor;
  const EncodingMode mode = config.mode;
  const T* values = data.data();
  TileSync* sync = &*job.sync;
  const std::span<u64> tileInclusive = job.tileInclusive;
  const std::span<u32> tileWriteCrc = job.tileWriteCrc;
  const std::span<i32> scratchQuants = scratch.quants;
  const std::span<BlockPlan> scratchPlans = scratch.plans;
  const usize quantsPerWorker = scratch.quantsPerWorker;
  const usize plansPerWorker = scratch.plansPerWorker;

  job.desc.gridSize = job.tiles;
  job.desc.name = "compress";
  job.desc.body = [=](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    const u32 blocksHere = static_cast<u32>(lastBlock - firstBlock);

    // Tile-local scratch slot (GPU shared-memory analogue): quantization
    // integers and per-block plans for this worker.
    const usize w = ThreadPool::currentWorkerIndex();
    require(w < workers, "CompressorStream: kernel body ran outside its "
                         "worker pool");
    const std::span<i32> quants =
        scratchQuants.subspan(w * quantsPerWorker, quantsPerWorker);
    const std::span<BlockPlan> plans =
        scratchPlans.subspan(w * plansPerWorker, plansPerWorker);

    // Pass 1 — fused lossy conversion + prediction + encoding analysis
    // (the "extra loop" that makes compression slower than decompression,
    // Sec. V-B).
    u64 aggregate = 0;
    u64 elemsRead = 0;
    for (u32 b = 0; b < blocksHere; ++b) {
      const u64 blockIdx = firstBlock + b;
      const u64 eFirst = blockIdx * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      std::span<i32> q(quants.data() + static_cast<usize>(b) * L, L);
      quantizeDiffBlock(quantizer,
                        std::span<const T>(values + eFirst, eLast - eFirst),
                        q);
      if (predictor == Predictor::SecondOrder) secondOrderDiff(q);
      elemsRead += eLast - eFirst;

      plans[b] = codec.planResiduals(q, mode);
      offsetBytes[blockIdx] = static_cast<std::byte>(plans[b].header.pack());
      aggregate += plans[b].payloadBytes;
    }
    access.read(ctx.mem, elemsRead * sizeof(T), sizeof(T));
    access.write(ctx.mem, blocksHere, 1);
    // Pass-1 analysis: quantize + diff + selection scan, ~12 integer ops
    // per element regardless of content. Quantization scratch lives in
    // shared memory.
    ctx.mem.noteOps(static_cast<u64>(blocksHere) * L * 12);
    ctx.mem.noteL1(static_cast<u64>(blocksHere) * L * 8);

    // Global prefix sum over tile aggregates (step 3).
    const u64 base =
        sync->processTile(ctx.blockIdx, aggregate, ctx.sync, ctx.mem);
    tileInclusive[ctx.blockIdx] = base + aggregate;

    // Pass 2 — encode payloads and concatenate (step 4). Under fault
    // verification the tile also digests the bytes it just wrote (reading
    // back its own stores, before any soft error can land), giving the
    // host a ground truth to re-derive from memory after the launch.
    u64 cursor = base;
    u32 writeCrc = 0;
    for (u32 b = 0; b < blocksHere; ++b) {
      std::span<const i32> r(quants.data() + static_cast<usize>(b) * L, L);
      codec.encodeResiduals(r, plans[b], payloadOut + cursor);
      if (!tileWriteCrc.empty()) {
        writeCrc = crc32(
            ConstByteSpan(offsetBytes + firstBlock + b, 1), writeCrc);
        writeCrc = crc32(
            ConstByteSpan(payloadOut + cursor, plans[b].payloadBytes),
            writeCrc);
      }
      cursor += plans[b].payloadBytes;
    }
    if (!tileWriteCrc.empty()) tileWriteCrc[ctx.blockIdx] = writeCrc;
    access.write(ctx.mem, aggregate, 4);
    // Pass-2 encoding cost scales with the bytes actually packed: zero
    // blocks are skipped outright and well-compressed blocks pack fewer
    // planes, which is why sparse/smooth data compresses *faster* and why
    // CUSZP2-O can outrun CUSZP2-P when its ratio advantage is large
    // (paper Fig. 15 and Sec. V-B).
    ctx.mem.noteOps(aggregate * 6);
    ctx.mem.noteL1(static_cast<u64>(blocksHere) * L * 4);
  };
}

/// Turns a prepared + launched field into the public Compressed result:
/// checksum stamp, exact-size copy out of the staging area, profile.
Compressed finishField(const Config& config,
                       const gpusim::TimingModel& timing, FieldJob& job,
                       const gpusim::LaunchResult& launch) {
  Compressed out;
  out.originalBytes = job.originalBytes;
  if (job.n == 0) {
    out.stream.assign(job.staging, job.staging + StreamHeader::kBytes);
    out.ratio = 0.0;
    out.profile.endToEndSeconds = timing.launchSeconds();
    return out;
  }

  const u64 totalPayload = job.tileInclusive[job.tiles - 1];
  usize finalBytes =
      job.header.payloadBegin() + static_cast<usize>(totalPayload);
  f64 checksumSeconds = 0.0;

  // Version 2: per-block CRC footer after the payload region (one extra
  // bandwidth pass over the compressed bytes).
  if (job.header.hasBlockChecksums()) {
    detail::writeFooter(job.header, job.staging, totalPayload);
    finalBytes += job.header.footerBytes();
    checksumSeconds += bandwidthPassSeconds(timing, finalBytes);
  }

  // Optional integrity stamp: CRC-32 over offsets + payload (+ footer).
  if (config.checksum) {
    job.header.checksum =
        streamChecksum(ConstByteSpan(job.staging, finalBytes));
    job.header.serialize(job.staging);
    checksumSeconds += bandwidthPassSeconds(timing, finalBytes);
  }

  out.stream.assign(job.staging, job.staging + finalBytes);
  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  out.profile = makeProfile(launch, timing, out.originalBytes,
                            job.rangeSeconds + checksumSeconds);
  return out;
}

/// Host re-derivation of the compress kernel's per-tile write digests from
/// the staging memory. A soft error injected into the staged offset or
/// payload bytes after the kernel's stores retire changes this walk (the
/// sizes, the bytes, or both), so any mismatch against the in-kernel
/// digests means the written output is corrupt.
bool compressWriteDigestsMatch(const FieldJob& job, u32 bpt) {
  if (job.tileWriteCrc.empty()) return true;
  const u32 L = job.header.blockSize;
  const u64 numBlocks = job.header.numBlocks();
  const std::byte* offsets = job.staging + StreamHeader::offsetsBegin();
  const std::byte* payload = job.staging + job.header.payloadBegin();
  const PayloadSizeTable psize(L);
  u64 cursor = 0;
  for (u32 t = 0; t < job.tiles; ++t) {
    const u64 firstBlock = static_cast<u64>(t) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    u32 crc = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const usize size = psize[offsets[blk]];
      crc = crc32(ConstByteSpan(offsets + blk, 1), crc);
      crc = crc32(ConstByteSpan(payload + cursor, size), crc);
      cursor += size;
    }
    if (crc != job.tileWriteCrc[t]) return false;
  }
  return true;
}

}  // namespace

CompressorStream::CompressorStream(Config config, gpusim::DeviceSpec device)
    : config_(config), timing_(std::move(device)), launcher_() {
  config_.validate();
  launcher_.setTimingModel(&timing_);
  telemetry::MetricsRegistry& reg = telemetry::registry();
  instruments_.compressCalls = &reg.counter("stream.compress.calls");
  instruments_.compressBytesIn = &reg.counter("stream.compress.bytes_in");
  instruments_.compressBytesOut = &reg.counter("stream.compress.bytes_out");
  instruments_.decompressCalls = &reg.counter("stream.decompress.calls");
  instruments_.decompressBytesIn =
      &reg.counter("stream.decompress.bytes_in");
  instruments_.decompressBytesOut =
      &reg.counter("stream.decompress.bytes_out");
  instruments_.replaceBlocksCalls =
      &reg.counter("stream.replace_blocks.calls");
  instruments_.salvageCalls = &reg.counter("stream.salvage.calls");
  instruments_.salvageBadBlocks = &reg.counter("stream.salvage.bad_blocks");
  instruments_.faultsDetected = &reg.counter("stream.faults_detected");
  instruments_.faultRelaunches = &reg.counter("stream.fault_relaunches");
  instruments_.arenaHighWater = &reg.gauge("stream.arena_high_water");
  instruments_.lastGBps = &reg.gauge("stream.last_gbps");
}

void CompressorStream::noteFaultDetected() {
  ++faultsDetected_;
  instruments_.faultsDetected->add(1);
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->instant("fault_detected");
  }
}

void CompressorStream::noteFaultRelaunch() {
  ++faultRelaunches_;
  instruments_.faultRelaunches->add(1);
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->instant("fault_relaunch");
  }
}

void CompressorStream::noteCompressed(const Compressed& out) {
  instruments_.compressCalls->add(1);
  instruments_.compressBytesIn->add(out.originalBytes);
  instruments_.compressBytesOut->add(out.stream.size());
  instruments_.arenaHighWater->set(
      static_cast<f64>(arena_.stats().highWater));
  instruments_.lastGBps->set(out.profile.endToEndGBps);
}

void CompressorStream::noteDecompressed(u64 streamBytes, u64 decodedBytes,
                                        f64 gbps) {
  instruments_.decompressCalls->add(1);
  instruments_.decompressBytesIn->add(streamBytes);
  instruments_.decompressBytesOut->add(decodedBytes);
  instruments_.arenaHighWater->set(
      static_cast<f64>(arena_.stats().highWater));
  instruments_.lastGBps->set(gbps);
}

void CompressorStream::reconfigure(const Config& config) {
  config.validate();
  config_ = config;
}

void CompressorStream::reconfigure(const Config& config,
                                   const gpusim::DeviceSpec& device) {
  reconfigure(config);
  timing_.setSpec(device);
}

void CompressorStream::applyInjectedArenaBudget() {
  arena_.clearFailureBudget();
  if (const std::optional<u64> budget = launcher_.takeArenaFault()) {
    arena_.setFailureBudget(static_cast<usize>(*budget));
  }
}

gpusim::LaunchResult CompressorStream::launchVerified(
    const gpusim::KernelDesc& desc, std::span<std::byte> faultTarget,
    const std::function<bool()>& verify,
    const std::function<void()>& rearm) {
  for (u32 attempt = 0;; ++attempt) {
    std::exception_ptr failure;
    gpusim::LaunchResult launch;
    bool ok = false;
    try {
      launch = launcher_.launch(desc.gridSize, desc.body,
                                desc.blocksPerTask, faultTarget, desc.name);
      ok = verify();
    } catch (const Error&) {
      failure = std::current_exception();
    }
    if (ok) return launch;
    noteFaultDetected();
    if (attempt >= config_.faultRetries) {
      if (failure) std::rethrow_exception(failure);
      throw Error("CompressorStream: kernel output still corrupt after " +
                  std::to_string(config_.faultRetries) +
                  " fault retries — giving up");
    }
    noteFaultRelaunch();
    rearm();
  }
}

/// The byte region the compress kernel writes: offset bytes + the payload
/// staging capacity (a fault landing past the final payload byte is
/// harmless by construction — those bytes never reach the stream).
std::span<std::byte> compressFaultTarget(const FieldJob& job) {
  return {job.staging + StreamHeader::offsetsBegin(),
          job.stagingBytes - StreamHeader::kBytes -
              job.header.footerBytes()};
}

template <FloatingPoint T>
Compressed CompressorStream::compress(std::span<const T> data) {
  if (config_.pipeline != PipelineMode::Legacy) return compressV3<T>(data);
  arena_.reset();
  applyInjectedArenaBudget();
  const usize workers = launcher_.workerCount();
  const WorkerScratch scratch = makeWorkerScratch(
      arena_, workers, config_.blocksPerTile, config_.blockSize);
  FieldJob job;
  prepareField(config_, timing_, arena_, scratch, workers, data, job);
  gpusim::LaunchResult launch;
  if (job.desc.gridSize > 0) {
    if (config_.faultRetries > 0) {
      launch = launchVerified(
          job.desc, compressFaultTarget(job),
          [&] { return compressWriteDigestsMatch(job, config_.blocksPerTile); },
          [&] {
            job.sync.emplace(config_.syncAlgorithm, job.tiles, arena_);
          });
    } else {
      launch = launcher_.launch(job.desc.gridSize, job.desc.body,
                                job.desc.blocksPerTask, {}, job.desc.name);
    }
  }
  Compressed out = finishField(config_, timing_, job, launch);
  noteCompressed(out);
  return out;
}

template <FloatingPoint T>
std::vector<Compressed> CompressorStream::compressBatch(
    std::span<const std::span<const T>> fields) {
  // Format-v3 compression is a two-kernel pass with a host selection stage
  // between them, which cannot interleave inside one fused launch; each
  // field compresses on its own (byte-identical to compress(fields[i])).
  if (config_.pipeline != PipelineMode::Legacy) {
    std::vector<Compressed> out;
    out.reserve(fields.size());
    for (const std::span<const T>& field : fields) {
      out.push_back(compressV3<T>(field));
    }
    return out;
  }
  arena_.reset();
  applyInjectedArenaBudget();
  const usize workers = launcher_.workerCount();
  // One scratch shared by every kernel of the batch: slots are per worker,
  // and a worker runs one task at a time regardless of which kernel the
  // task belongs to.
  const WorkerScratch scratch = makeWorkerScratch(
      arena_, workers, config_.blocksPerTile, config_.blockSize);

  std::vector<FieldJob> jobs(fields.size());
  for (usize i = 0; i < fields.size(); ++i) {
    prepareField(config_, timing_, arena_, scratch, workers, fields[i],
                 jobs[i]);
    if (config_.faultRetries > 0) {
      jobs[i].desc.faultTarget = compressFaultTarget(jobs[i]);
    }
  }

  std::vector<gpusim::KernelDesc> descs;
  descs.reserve(jobs.size());
  for (FieldJob& job : jobs) descs.push_back(std::move(job.desc));
  auto launches = launcher_.launchBatch(descs);

  // Per-field fault verification: a corrupt field is relaunched on its
  // own (the surviving fields' results are kept).
  if (config_.faultRetries > 0) {
    for (usize i = 0; i < jobs.size(); ++i) {
      if (descs[i].gridSize == 0 ||
          compressWriteDigestsMatch(jobs[i], config_.blocksPerTile)) {
        continue;
      }
      noteFaultDetected();
      noteFaultRelaunch();
      jobs[i].sync.emplace(config_.syncAlgorithm, jobs[i].tiles, arena_);
      launches[i] = launchVerified(
          descs[i], compressFaultTarget(jobs[i]),
          [&, i] {
            return compressWriteDigestsMatch(jobs[i], config_.blocksPerTile);
          },
          [&, i] {
            jobs[i].sync.emplace(config_.syncAlgorithm, jobs[i].tiles,
                                 arena_);
          });
    }
  }

  std::vector<Compressed> out;
  out.reserve(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    out.push_back(finishField(config_, timing_, jobs[i], launches[i]));
    noteCompressed(out.back());
  }
  return out;
}

// Explicit instantiations of the write surface (the decode surface is
// instantiated in stream_decode.cpp).
template Compressed CompressorStream::compress<f32>(std::span<const f32>);
template Compressed CompressorStream::compress<f64>(std::span<const f64>);
template std::vector<Compressed> CompressorStream::compressBatch<f32>(
    std::span<const std::span<const f32>>);
template std::vector<Compressed> CompressorStream::compressBatch<f64>(
    std::span<const std::span<const f64>>);

}  // namespace cuszp2::core
