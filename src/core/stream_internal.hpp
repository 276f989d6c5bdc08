// Internal helpers shared by the v1/v2 writer (stream.cpp), the v3 writer
// (stream_v3.cpp) and the decoder of every generation (stream_decode.cpp).
// Not part of the public API — include only from core/ translation units.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/output_alloc.hpp"
#include "common/simd.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "gpusim/launcher.hpp"
#include "metrics/error_stats.hpp"
#include "scan/chained.hpp"
#include "scan/lookback.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::core::detail {

/// Unified per-tile synchronization over either protocol, so the kernels
/// are written once (ablations switch the algorithm, Sec. VI-E). The flag
/// words live in the stream's arena: repeated scans allocate nothing.
class TileSync {
 public:
  TileSync(scan::Algorithm algo, u32 tiles, Arena& arena)
      : algo_(algo),
        lookback_(tilesFor(algo, scan::Algorithm::DecoupledLookback, tiles),
                  arena.allocSpan<std::atomic<u64>>(
                      tilesFor(algo, scan::Algorithm::DecoupledLookback,
                               tiles))),
        chained_(tilesFor(algo, scan::Algorithm::ChainedScan, tiles),
                 arena.allocSpan<std::atomic<u64>>(
                     tilesFor(algo, scan::Algorithm::ChainedScan, tiles))) {}

  u64 processTile(u32 tile, u64 aggregate, gpusim::SyncStats& sync,
                  gpusim::MemCounters& mem) {
    return algo_ == scan::Algorithm::DecoupledLookback
               ? lookback_.processTile(tile, aggregate, sync, mem)
               : chained_.processTile(tile, aggregate, sync, mem);
  }

 private:
  static u32 tilesFor(scan::Algorithm algo, scan::Algorithm wanted,
                      u32 tiles) {
    return algo == wanted ? tiles : 1;
  }

  scan::Algorithm algo_;
  scan::LookbackState lookback_;
  scan::ChainedScanState chained_;
};

/// Tiles of `blocksPerTile` blocks covering `numBlocks` (at least one).
inline u32 tileCount(u64 numBlocks, u32 blocksPerTile) {
  return static_cast<u32>(
      std::max<u64>(1, (numBlocks + blocksPerTile - 1) / blocksPerTile));
}

/// One device-bandwidth pass over `bytes` plus a launch: the model's charge
/// for the range reduction and for every checksum and footer pass.
inline f64 bandwidthPassSeconds(const gpusim::TimingModel& timing,
                                u64 bytes) {
  return static_cast<f64>(bytes) / (timing.spec().memBandwidthGBps * 1e9) +
         timing.launchSeconds();
}

/// Records the traffic of the kernel's input/output streams under the
/// configured access pattern (vectorized + coalesced vs scalar strided,
/// Sec. IV-B).
struct AccessRecorder {
  bool vectorized;
  u32 transactionBytes;

  void read(gpusim::MemCounters& mem, u64 bytes, u32 elemBytes) const {
    if (vectorized) {
      mem.noteVectorRead(bytes, transactionBytes);
    } else {
      mem.noteStridedRead(bytes, elemBytes);
    }
  }

  void write(gpusim::MemCounters& mem, u64 bytes, u32 elemBytes) const {
    if (vectorized) {
      mem.noteVectorWrite(bytes, transactionBytes);
    } else {
      mem.noteStridedWrite(bytes, elemBytes);
    }
  }
};

/// Second-difference pass of the SecondOrder predictor, applied on top of
/// first-order residuals. The block head stays out of the chain: d_0 = q_0
/// is the (often huge) block-independence outlier and chaining d_1 against
/// it would poison every second-order block.
inline void secondOrderDiff(std::span<i32> res) {
  i32 prevD = 0;
  for (usize i = 1; i < res.size(); ++i) {
    const i32 d = res[i];
    const i64 r2 = static_cast<i64>(d) - static_cast<i64>(prevD);
    require(r2 >= std::numeric_limits<i32>::min() &&
                r2 <= std::numeric_limits<i32>::max(),
            "Compressor: error bound too small for the second-order "
            "predictor's residual range");
    res[i] = static_cast<i32>(r2);
    prevD = d;
  }
}

/// Inverse of the prediction (prefix sums, once or twice). The sums wrap
/// in u32, as the vector prefix sum does: a damaged payload can overflow
/// i32, and wrapping keeps its decode defined and SIMD-independent.
inline void residualsToQuants(std::span<const i32> res, std::span<i32> quants,
                              Predictor predictor) {
  if (predictor == Predictor::SecondOrder) {
    if (res.empty()) return;
    quants[0] = res[0];
    u32 d = 0;
    u32 q = static_cast<u32>(res[0]);
    for (usize i = 1; i < res.size(); ++i) {
      d += static_cast<u32>(res[i]);
      q += d;
      quants[i] = static_cast<i32>(q);
    }
  } else {
    if (simd::prefixSumI32(res, quants.data())) return;
    u32 q = 0;
    for (usize i = 0; i < res.size(); ++i) {
      q += static_cast<u32>(res[i]);
      quants[i] = static_cast<i32>(q);
    }
  }
}

/// Reconstruction loop: out[i] = q[i] * 2eb, SIMD when active (the vector
/// path performs the identical f64 multiply + narrowing convert).
template <FloatingPoint T>
void dequantizeSpan(const Quantizer& quantizer, std::span<const i32> q,
                    T* out) {
  if (simd::dequantize(q, quantizer.twoEb(), out)) return;
  for (usize i = 0; i < q.size(); ++i) {
    out[i] = quantizer.dequantize<T>(q[i]);
  }
}

/// Runs the host stage `fn` between kernels. With a trace session active
/// it is recorded as a complete event `name` with a `bytes` arg; without
/// one the cost is the active-session pointer check.
template <typename Fn>
void hostStage(const char* name, u64 bytes, Fn&& fn) {
  telemetry::TraceSession* trace = telemetry::activeTrace();
  if (trace == nullptr) {
    fn();
    return;
  }
  const f64 t0 = trace->nowUs();
  fn();
  trace->complete(name, trace->nowUs() - t0,
                  {telemetry::TraceArg::num("bytes", static_cast<f64>(bytes))});
}

/// The REL error bound's value-range pass, as host stage
/// `stream.range_reduce`.
template <FloatingPoint T>
f64 rangeReduce(std::span<const T> data) {
  f64 range = 0.0;
  hostStage("stream.range_reduce", data.size_bytes(),
            [&] { range = metrics::valueRange(data); });
  return range;
}

/// Fills a fresh decode output (allocOutput), as host stage
/// `stream.output_alloc`.
template <typename T>
void outputAlloc(std::vector<T>& out, u64 n, const T& fill) {
  hostStage("stream.output_alloc", n * sizeof(T),
            [&] { allocOutput(out, n, fill); });
}

/// The whole-stream CRC-32 stamp: everything after the fixed header
/// (offsets/descriptors, dictionary, payload, footer), as host stage
/// `stream.checksum`. Never 0, which the header reserves for "absent".
inline u32 streamChecksum(ConstByteSpan stream) {
  const ConstByteSpan covered = stream.subspan(StreamHeader::offsetsBegin());
  u32 crc = 0;
  hostStage("stream.checksum", covered.size(), [&] { crc = crc32(covered); });
  return crc == 0 ? 1 : crc;
}

/// Writes the per-block digest footer of a v2/v3 stream laid out in
/// `stream` (header, descriptors, dictionary, then `payloadBytes` of
/// payload): blockDigest over each block's descriptor byte and payload,
/// two little-endian bytes per block, right after the payload. Host stage
/// `stream.footer_digest`. Defined with the decoder (stream_decode.cpp),
/// which walks descriptors the same way.
void writeFooter(const StreamHeader& header, std::byte* stream,
                 u64 payloadBytes);

inline KernelProfile makeProfile(const gpusim::LaunchResult& launch,
                                 const gpusim::TimingModel& timing,
                                 u64 originalBytes, f64 extraSeconds = 0.0) {
  KernelProfile p;
  p.mem = launch.mem;
  p.sync = launch.sync;
  p.timing = timing.kernel(launch.mem, launch.sync);
  p.endToEndSeconds = p.timing.totalSeconds + extraSeconds;
  p.endToEndGBps = gpusim::gbps(originalBytes, p.endToEndSeconds);
  p.wallSeconds = launch.wallSeconds;
  return p;
}

}  // namespace cuszp2::core::detail
