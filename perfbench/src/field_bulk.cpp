// field_bulk: closed loop, one caller. Compresses then decompresses four
// >= 64 MiB fields back to back with the paper's default Config (REL 1e-3,
// Outlier-FLE, legacy writer). core/scan/gpusim do nearly all the work;
// service, cluster, cas and entropy do none.
//
// Each field is the concatenation of every field of its dataset (CESM-ATM
// has 33, HACC 6, S3D 5; JetIn has one), so a run always sees the whole
// dataset's mix of smoothness; the seed permutes the slab order (and, for
// single-field JetIn, rotates it) and the per-round field order.
#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/launcher.hpp"

namespace perfbench {

namespace {

using namespace cuszp2;

constexpr usize kFieldBytes = usize{64} << 20;
constexpr usize kSlabAlign = 4096;  // elements; a multiple of every block size

struct Field {
  std::string dataset;
  u32 index = 0;  ///< position in the dataset list, a span arg
  std::vector<f32> f32data;
  std::vector<f64> f64data;
  f64 eb = 0.0;
  u64 bytes = 0;
};

template <typename T>
std::vector<T> generate(const std::string& dataset, u32 field, usize n) {
  if constexpr (std::is_same_v<T, f32>) {
    return datagen::generateF32(dataset, field, n);
  } else {
    return datagen::generateF64(dataset, field, n);
  }
}

template <typename T>
std::vector<T> composite(const std::string& dataset, Rng& rng) {
  const u32 fields = datagen::datasetInfo(dataset).numFields;
  const usize total = kFieldBytes / sizeof(T);
  usize slab = (total + fields - 1) / fields;
  slab = (slab + kSlabAlign - 1) / kSlabAlign * kSlabAlign;
  std::vector<u32> order(fields);
  for (u32 f = 0; f < fields; ++f) order[f] = f;
  rng.shuffle(order);
  std::vector<T> out;
  out.reserve(slab * fields);
  for (u32 f : order) {
    const std::vector<T> part = generate<T>(dataset, f, slab);
    out.insert(out.end(), part.begin(), part.end());
  }
  if (fields == 1) {
    const usize shift = rng.below(out.size() / kSlabAlign) * kSlabAlign;
    std::rotate(out.begin(), out.begin() + static_cast<long>(shift),
                out.end());
  }
  return out;
}

class Loop {
 public:
  Loop(const Options& opt, Recorder& rec, core::CompressorStream& stream)
      : opt_(opt), rec_(rec), stream_(stream),
        traceRng_(mixSeed(opt.seed, 0x7ace)) {}

  /// One compress + decompress of `field`, both timed; the bound check on
  /// the decoded field runs after the decompress op has closed. A timed
  /// window traces a seeded half of the pairs; a --pair-rounds run traces
  /// every pair.
  template <typename T>
  void pair(const Field& field, const std::vector<T>& data) {
    const bool coin = (traceRng_.next() & 1) != 0;
    const bool traced = opt_.trace && (opt_.pairRounds > 0 || coin);
    Op comp = begin("compress", field.bytes, traced);
    std::vector<std::byte> stream;
    try {
      const f64 t0 = rec_.nowUs();
      core::Compressed c = stream_.compress<T>(std::span<const T>(data));
      call(comp, "core.compress", t0, c.profile, field.index);
      stream = std::move(c.stream);
      comp.streamBytes = stream.size();
    } catch (const std::exception& e) {
      fail(comp, field.dataset + " compress: " + e.what());
    }
    finish(comp, "op.compress");
    rec_.op(comp);
    if (!comp.ok) return;

    Op dec = begin("decompress", field.bytes, traced);
    dec.streamBytes = stream.size();
    std::vector<T> decoded;
    try {
      const f64 t0 = rec_.nowUs();
      core::Decompressed<T> d = stream_.decompress<T>(stream);
      call(dec, "core.decompress", t0, d.profile, field.index);
      decoded = std::move(d.data);
    } catch (const std::exception& e) {
      fail(dec, field.dataset + " decompress: " + e.what());
    }
    finish(dec, "op.decompress");
    if (dec.ok) {
      const long long bad = firstBoundViolation<T>(data, decoded, field.eb);
      if (bad >= 0) {
        fail(dec, field.dataset + ": decoded element " + std::to_string(bad) +
                      " exceeds the error bound");
      }
    }
    rec_.op(dec);
  }

 private:
  Op begin(const char* kind, u64 bytes, bool traced) {
    Op op;
    op.id = ++lastOp_;
    op.kind = kind;
    op.originalBytes = bytes;
    op.traced = traced;
    root_ = traced ? rec_.newSpanId() : 0;
    op.cpuUs = Recorder::cpuUs();
    op.intendedUs = op.sentUs = rec_.nowUs();
    return op;
  }

  /// Records the span of a library call that started at `t0` and has
  /// just returned `profile`.
  void call(const Op& op, const char* name, f64 t0,
            const core::KernelProfile& profile, u32 field) {
    const f64 t1 = rec_.nowUs();
    if (op.traced) {
      std::vector<SpanArg> args = profileArgs(profile);
      args.push_back({"field", static_cast<f64>(field)});
      rec_.span({rec_.newSpanId(), root_, op.id, name, t0, t1,
                 std::move(args)});
    }
  }

  /// Closes the op's wall clock and its root span.
  void finish(Op& op, const char* rootName) {
    op.doneUs = rec_.nowUs();
    op.cpuUs = Recorder::cpuUs() - op.cpuUs;
    if (op.traced) {
      rec_.span({root_, 0, op.id, rootName, op.sentUs, op.doneUs, {}});
    }
  }

  void fail(Op& op, const std::string& what) {
    op.ok = false;
    rec_.error(what);
  }

  const Options& opt_;
  Recorder& rec_;
  core::CompressorStream& stream_;
  Rng traceRng_;
  u64 lastOp_ = 0;
  u64 root_ = 0;  ///< root span id of the op in flight
};

}  // namespace

RunInfo runFieldBulk(const Options& opt, Recorder& rec) {
  Rng rng(mixSeed(opt.seed, 0xf1e1d));
  const char* datasets[] = {"cesm_atm", "hacc", "jetin", "s3d"};
  std::vector<Field> fields;
  for (const char* ds : datasets) {
    Field f;
    f.dataset = ds;
    f.index = static_cast<u32>(fields.size());
    if (datagen::datasetInfo(ds).precision == Precision::F64) {
      f.f64data = composite<f64>(ds, rng);
      f.eb = absBound<f64>(f.f64data, 1e-3);
      f.bytes = f.f64data.size() * sizeof(f64);
    } else {
      f.f32data = composite<f32>(ds, rng);
      f.eb = absBound<f32>(f.f32data, 1e-3);
      f.bytes = f.f32data.size() * sizeof(f32);
    }
    rec.count("input_bytes." + f.dataset, static_cast<f64>(f.bytes));
    rec.count("dataset." + f.dataset, f.index);
    fields.push_back(std::move(f));
  }

  // Setup: stream construction plus one warm-up round trip per field,
  // which grows the scratch arena to its peak size.
  const core::Config config;  // REL 1e-3, Outlier-FLE, legacy writer
  RunInfo info;
  std::unique_ptr<core::CompressorStream> stream;
  for (u32 s = 0; s < opt.setups; ++s) {
    stream.reset();
    const f64 t0 = rec.nowUs();
    const f64 cpu0 = Recorder::cpuUs();
    stream = std::make_unique<core::CompressorStream>(config);
    for (const Field& f : fields) {
      if (f.f64data.empty()) {
        const auto c = stream->compress<f32>(std::span<const f32>(f.f32data));
        stream->decompress<f32>(c.stream);
      } else {
        const auto c = stream->compress<f64>(std::span<const f64>(f.f64data));
        stream->decompress<f64>(c.stream);
      }
    }
    info.setupSeconds.push_back((rec.nowUs() - t0) * 1e-6);
    info.setupCpuSeconds.push_back((Recorder::cpuUs() - cpu0) * 1e-6);
  }
  rec.count("pool_workers",
            static_cast<f64>(gpusim::Launcher::shared().workerCount()));

  // A slice of the window, over which stats.py sets bytes against CPU
  // time, is one round: every field's pair once.
  rec.count("ops_per_slice", static_cast<f64>(2 * fields.size()));
  Loop loop(opt, rec, *stream);
  std::vector<usize> order = {0, 1, 2, 3};
  const u64 slabs0 = stream->arenaStats().slabAllocations;
  const f64 start = rec.nowUs();
  // Whole rounds only, so every field is measured equally often.
  for (u32 round = 0;; ++round) {
    if (opt.pairRounds > 0 ? round >= opt.pairRounds
                           : rec.nowUs() - start >= opt.seconds * 1e6) {
      break;
    }
    rng.shuffle(order);
    for (usize i : order) {
      const Field& f = fields[i];
      if (f.f64data.empty()) {
        loop.pair<f32>(f, f.f32data);
      } else {
        loop.pair<f64>(f, f.f64data);
      }
    }
  }
  info.windowSeconds = (rec.nowUs() - start) * 1e-6;
  rec.count("core.arena_slab_allocs",
            static_cast<f64>(stream->arenaStats().slabAllocations - slabs0));
  return info;
}

}  // namespace perfbench
