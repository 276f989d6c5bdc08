// Internal helpers shared by the legacy (v1/v2) stream pipeline in
// stream.cpp and the format-v3 pipeline in stream_v3.cpp. Not part of the
// public API — include only from core/ translation units.
#pragma once

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
#include "telemetry/trace.hpp"

namespace cuszp2::core::detail {

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

/// Inverse of the prediction (prefix sums, once or twice).
inline void residualsToQuants(std::span<const i32> res, std::span<i32> quants,
                              Predictor predictor) {
  if (predictor == Predictor::SecondOrder) {
    if (res.empty()) return;
    quants[0] = res[0];
    i32 d = 0;
    i32 q = res[0];
    for (usize i = 1; i < res.size(); ++i) {
      d += res[i];
      q += d;
      quants[i] = q;
    }
  } else {
    if (simd::prefixSumI32(res, quants.data())) return;
    i32 q = 0;
    for (usize i = 0; i < res.size(); ++i) {
      q += res[i];
      quants[i] = q;
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
