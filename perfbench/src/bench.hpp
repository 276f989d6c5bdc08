// Shared pieces of the perfbench runner: run options, the seeded RNG,
// the in-memory op/span recorder and the output correctness checks.
//
// The runner measures; perfbench/stats.py turns what it records into the
// reported metrics. Spans are recorded here, in the benchmark's own code,
// around each call into a layer's public functions — the library itself
// is never instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/stream.hpp"

namespace perfbench {

using cuszp2::f64;
using cuszp2::u32;
using cuszp2::u64;
using cuszp2::usize;

struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  /// Setup repetitions; setup_s is their median.
  u32 setups = 5;
  /// field_bulk only: run this many traced rounds instead of a timed
  /// window (the pool = 4 pass behind gpusim.speedup_4w).
  u32 pairRounds = 0;
  /// tenant_mix only: offered jobs/s instead of the fixed rate (for
  /// calibrating that rate; the benchmark never sets it).
  f64 rate = 0.0;
  std::string outPath;
  std::string tracePath;
  std::string workDir;
};

/// SplitMix64 — kept local so library changes never alter the inputs.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  f64 uniform() { return static_cast<f64>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  u64 below(u64 n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (usize i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  u64 state_;
};

/// Mixes a workload tag into the user seed so workloads draw independent
/// streams from the same --seed.
inline u64 mixSeed(u64 seed, u64 tag) {
  Rng r(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return r.next();
}

/// One operation as the caller sees it. Times are microseconds on the
/// recorder's clock. Closed loops set intended == sent (the caller issues
/// the next op as soon as the previous one returns).
struct Op {
  u64 id = 0;
  std::string kind;  ///< compress | decompress | put | get | get_range
  f64 intendedUs = 0.0;
  f64 sentUs = 0.0;
  f64 doneUs = 0.0;
  u64 originalBytes = 0;  ///< uncompressed bytes the op covered
  u64 streamBytes = 0;    ///< compressed bytes the op produced or read
  /// Closed loops: CPU time all of the process's threads spent between
  /// sent and done (the caller runs nothing else meanwhile). 0 when not
  /// measured.
  f64 cpuUs = 0.0;
  bool ok = true;
  bool traced = false;
};

struct SpanArg {
  std::string key;
  f64 value = 0.0;
};

struct Span {
  u64 id = 0;
  u64 parent = 0;  ///< 0 = root (the op span)
  u64 op = 0;
  std::string name;
  f64 startUs = 0.0;
  f64 endUs = 0.0;
  std::vector<SpanArg> args;
};

/// The values a library call returns in its KernelProfile, as span args.
inline std::vector<SpanArg> profileArgs(
    const cuszp2::core::KernelProfile& p) {
  return {{"kernel_us", p.wallSeconds * 1e6},
          {"mem_bytes", static_cast<f64>(p.mem.totalBytes())},
          {"modelled_s", p.endToEndSeconds},
          {"lookback_steps", static_cast<f64>(p.sync.lookbackSteps)},
          {"tiles", static_cast<f64>(p.sync.tiles)},
          {"wait_spins", static_cast<f64>(p.sync.waitSpins)}};
}

/// In-memory recorder: ops, spans and named counters, written out once
/// when the run ends. Thread-safe (the open-loop collector records from
/// its own thread).
class Recorder {
 public:
  Recorder() : start_(std::chrono::steady_clock::now()) {}

  f64 nowUs() const {
    return std::chrono::duration<f64, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// CPU time of the whole process so far, all threads. The kernel leaves
  /// out time a thread waited for a CPU, on the run queue or stolen by the
  /// hypervisor.
  static f64 cpuUs();
  /// CPU time of the calling thread so far, likewise.
  static f64 threadCpuUs();

  /// The steady_clock instant `us` microseconds after the recorder's start.
  std::chrono::steady_clock::time_point timeAt(f64 us) const {
    return start_ + std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::duration<f64, std::micro>(us));
  }

  u64 newSpanId() {
    std::lock_guard lock(mutex_);
    return ++lastSpanId_;
  }

  void span(Span s) {
    std::lock_guard lock(mutex_);
    spans_.push_back(std::move(s));
  }

  void op(Op o) {
    std::lock_guard lock(mutex_);
    ops_.push_back(std::move(o));
  }

  /// Open loop: the process CPU time `cpuUs` at recorder time `atUs`, a
  /// boundary between two slices of the arrival schedule.
  void mark(f64 atUs, f64 cpuUs) {
    std::lock_guard lock(mutex_);
    cpuMarks_.push_back({atUs, cpuUs});
  }

  void count(const std::string& name, f64 value) {
    std::lock_guard lock(mutex_);
    counters_[name] = value;
  }

  void error(const std::string& what) {
    std::lock_guard lock(mutex_);
    if (errors_.size() < 20) errors_.push_back(what);
    ++errorCount_;
  }

  u64 errorCount() const {
    std::lock_guard lock(mutex_);
    return errorCount_;
  }

  /// Result file for stats.py: ops, counters, setup samples, errors.
  bool writeResult(const std::string& path, const Options& opt,
                   const std::vector<f64>& setupSeconds,
                   const std::vector<f64>& setupCpuSeconds,
                   f64 windowSeconds) const;

  /// chrome://tracing JSON ("X" events; args carry op, span and parent
  /// ids plus each call's returned profile values).
  bool writeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;
  u64 lastSpanId_ = 0;
  std::vector<Op> ops_;
  std::vector<Span> spans_;
  std::map<std::string, f64> counters_;
  std::vector<std::pair<f64, f64>> cpuMarks_;
  std::vector<std::string> errors_;
  u64 errorCount_ = 0;
};

/// Absolute error bound a REL bound resolves to on `original` (the same
/// rule as core::Quantizer::absFromRel, recomputed here so the check does
/// not trust the stream's own header).
template <typename T>
f64 absBound(std::span<const T> original, f64 rel) {
  if (original.empty()) return rel;
  T lo = original[0];
  T hi = original[0];
  for (T v : original) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  const f64 range = static_cast<f64>(hi) - static_cast<f64>(lo);
  return range > 0.0 ? rel * range : rel;
}

/// |v - v'| <= eb for every element, with the half-ULP slack the repo's
/// own bound tests allow (dequantization rounds once in T). Returns the
/// index of the first violation, or -1.
template <typename T>
long long firstBoundViolation(std::span<const T> original,
                              std::span<const T> decoded, f64 eb) {
  if (original.size() != decoded.size()) return 0;
  const f64 ulp = std::is_same_v<T, float> ? 6.0e-8 : 1.2e-16;
  for (usize i = 0; i < original.size(); ++i) {
    const f64 o = static_cast<f64>(original[i]);
    const f64 err = std::fabs(o - static_cast<f64>(decoded[i]));
    if (!(err <= eb * (1.0 + 1e-12) + std::fabs(o) * ulp)) {
      return static_cast<long long>(i);
    }
  }
  return -1;
}

/// Peak resident set size of this process in MiB.
f64 peakRssMiB();

// Workload entry points. Each returns the setup samples and the measured
// window length; everything else goes through the recorder.
struct RunInfo {
  std::vector<f64> setupSeconds;     ///< wall time of each set-up
  std::vector<f64> setupCpuSeconds;  ///< process CPU time of each set-up
  f64 windowSeconds = 0.0;
};

RunInfo runFieldBulk(const Options& opt, Recorder& rec);
RunInfo runTenantMix(const Options& opt, Recorder& rec);
RunInfo runArchiveRw(const Options& opt, Recorder& rec);

}  // namespace perfbench
