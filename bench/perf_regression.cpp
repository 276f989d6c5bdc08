// Deterministic perf-regression harness.
//
// Sweeps three datagen fields through {compress, decompress, round-trip}
// and writes BENCH_perf.json at the repo root (or the path given as
// argv[1]): per case the modelled throughput, modelled seconds, the
// compression ratio, and the host wall-clock min/median/max.
//
// Modelled metrics must be bit-identical run to run so CI can diff the
// file: the harness pins CUSZP2_WORKERS=1 before the shared pool exists
// (the decoupled-lookback sync term depends on the measured lookback
// depth, which is scheduling-dependent under >1 worker; single-worker
// dispatch makes every depth exactly 1), runs every case twice, and fails
// hard if the two passes disagree. Wall-clock numbers are diagnostic only
// and excluded from the determinism check.
//
// Against a pre-existing BENCH_perf.json the harness soft-compares
// modelled throughput within a tolerance band: drift prints a WARN line
// (CI surfaces it) but does not fail the run — regenerating the file is
// the fix when the model intentionally changed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cas/block_store.hpp"
#include "cluster/cluster.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/timing.hpp"
#include "service/chaos.hpp"
#include "service/service.hpp"

using namespace cuszp2;

namespace {

constexpr f64 kTolerance = 0.10;  // soft WARN band on modelled GB/s

struct CaseResult {
  std::string name;
  u64 elems = 0;
  f64 ratio = 0.0;
  f64 modelledSeconds = 0.0;
  f64 modelledGBps = 0.0;
  bench::RepeatStats wall;  // min/median/max over the timed reps
  f64 wallBudgetMs = 0.0;
  u64 launches = 0;    // fused-launch count; service cases only
  u64 recoveries = 0;  // retries + in-stream relaunches; chaos case only

  f64 wallMsMedian() const { return wall.medianSeconds * 1e3; }
};

/// Soft wall-clock budgets per scenario, ≈2x a healthy single-core run:
/// generous enough that scheduler noise never flaps CI, tight enough that
/// a real regression (a SIMD path silently degraded to scalar, an O(n^2)
/// walk) blows straight through. Exceeding one prints a
/// `WARN perf.wall_budget` line — wall time stays advisory because it is
/// hardware-dependent; the budget column in the JSON is what CI requires
/// to exist.
struct WallBudget {
  const char* name;
  f64 ms;
};

constexpr WallBudget kWallBudgets[] = {
    {"cesm_atm/compress", 16.0},     {"cesm_atm/decompress", 10.0},
    {"cesm_atm/round_trip", 28.0},   {"hacc/compress", 14.0},
    {"hacc/decompress", 9.0},        {"hacc/round_trip", 24.0},
    {"jetin/compress", 14.0},        {"jetin/decompress", 4.5},
    {"jetin/round_trip", 17.0},      {"service/batched", 42.0},
    {"service/unbatched", 45.0},     {"service/batched_decompress", 20.0},
    {"service/unbatched_decompress", 20.0},
    {"service/chaos", 80.0},         {"cluster/failover", 90.0},
    {"ratio/v3", 60.0},              {"ratio/v2crc", 14.0},
    {"ratio/v3_decompress", 10.0},   {"cas/dedup", 25.0},
    // fsync-barrier bound, not CPU bound: budget leaves room for a slow
    // or contended disk (two passes x (10 journal syncs + 10 snapshots)).
    {"cas/journal", 90.0},
};

f64 wallBudgetMs(const std::string& name) {
  for (const WallBudget& b : kWallBudgets) {
    if (name == b.name) return b.ms;
  }
  return 0.0;
}

/// Formats an f64 so it round-trips bit-exactly; two runs producing the
/// same doubles produce byte-identical JSON.
std::string f64Str(f64 v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Modelled {
  f64 ratio = 0.0;
  f64 seconds = 0.0;
  f64 gbps = 0.0;

  bool operator==(const Modelled& o) const {
    return ratio == o.ratio && seconds == o.seconds && gbps == o.gbps;
  }
};

/// One pass of all three operations over a freshly constructed stream.
/// Returns the modelled metrics per operation (compress, decompress,
/// round-trip) — everything the determinism contract covers.
std::vector<Modelled> modelOnce(const std::vector<f32>& field) {
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  core::CompressorStream codec(cfg);
  const auto c = codec.compress<f32>(field);
  const auto d = codec.decompress<f32>(c.stream);

  const f64 origBytes = static_cast<f64>(c.originalBytes);
  const f64 rtSeconds =
      c.profile.endToEndSeconds + d.profile.endToEndSeconds;
  return {
      {c.ratio, c.profile.endToEndSeconds, c.profile.endToEndGBps},
      {c.ratio, d.profile.endToEndSeconds, d.profile.endToEndGBps},
      {c.ratio, rtSeconds,
       rtSeconds > 0.0 ? origBytes / rtSeconds / 1e9 : 0.0},
  };
}

/// One mixed-tenant job of the service_throughput scenario.
struct ServiceJob {
  std::string tenant;
  std::string dataset;
  u32 fieldIndex;
  usize elems;
};

/// 4 tenants with mixed request sizes, all sharing one Config so the
/// batching scheduler can coalesce across tenants.
std::vector<ServiceJob> serviceWorkload(usize elems) {
  std::vector<ServiceJob> jobs;
  const std::string datasets[4] = {"cesm_atm", "hacc", "jetin", "cesm_atm"};
  const usize sizes[4] = {elems / 8, elems / 4, elems / 16, elems / 32};
  for (u32 round = 0; round < 4; ++round) {
    for (u32 t = 0; t < 4; ++t) {
      const u32 numFields = datagen::datasetInfo(datasets[t]).numFields;
      jobs.push_back(ServiceJob{"tenant" + std::to_string(t), datasets[t],
                                round % numFields, sizes[t]});
    }
  }
  return jobs;
}

/// Fields for the service workload, generated once up front. datagen
/// (libm-heavy Box-Muller) must stay outside every measured region: on a
/// single core it costs more than the codec itself and would hide the
/// batching advantage the service cases exist to guard.
std::vector<std::vector<f32>> serviceFields(
    const std::vector<ServiceJob>& jobs) {
  std::vector<std::vector<f32>> fields;
  fields.reserve(jobs.size());
  for (const ServiceJob& job : jobs) {
    fields.push_back(
        datagen::generateF32(job.dataset, job.fieldIndex, job.elems));
  }
  return fields;
}

/// One pass of the workload through a CompressionService (1 worker +
/// paused start + submit-all-then-resume, so batch formation and with it
/// the modelled metrics are exact). Modelled seconds is the sum of the
/// per-job modelled end-to-end times; `launches` counts fused launches.
Modelled modelServiceOnce(const std::vector<ServiceJob>& jobs,
                          const std::vector<std::vector<f32>>& fields,
                          bool batched, u64* launches) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = batched ? 8 : 1;
  service::CompressionService svc(scfg);

  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  std::vector<service::Ticket> tickets;
  for (usize i = 0; i < jobs.size(); ++i) {
    tickets.push_back(svc.submitCompress<f32>(jobs[i].tenant,
                                              std::span<const f32>(fields[i]),
                                              cfg)
                          .ticket);
  }
  svc.resume();
  svc.shutdown();

  f64 seconds = 0.0;
  f64 bytesIn = 0.0;
  f64 bytesOut = 0.0;
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    if (!r.ok) {
      std::fprintf(stderr, "FAIL service job: %s\n", r.error.c_str());
      std::exit(1);
    }
    seconds += r.compressed.profile.endToEndSeconds;
    bytesIn += static_cast<f64>(r.compressed.originalBytes);
    bytesOut += static_cast<f64>(r.compressed.stream.size());
  }
  if (launches != nullptr) *launches = svc.stats().batches;
  return {bytesOut > 0.0 ? bytesIn / bytesOut : 0.0, seconds,
          seconds > 0.0 ? bytesIn / seconds / 1e9 : 0.0};
}

/// The service workload under a seeded chaos schedule: bit flips, aborted
/// blocks and arena exhaustion, all absorbed by in-stream relaunches and
/// service retries. Guards the cost of recovery — and that the recovery
/// counters themselves are deterministic (same seed, same `recoveries`).
/// Stall/wedge faults are excluded: they burn real wall time and need the
/// watchdog, which this single-pass modelled case doesn't exercise.
/// One warm pass of the compress workload through a long-lived service:
/// pause, submit everything, resume, wait. Used for the wall-clock
/// measurement — the worker streams' arenas are already grown, so the
/// number is steady-state service throughput. (A cold service pays arena
/// growth per run: the batched variant's arena is maxBatchJobs times
/// larger, which used to swamp the 1-2 ms the launch amortization wins.)
void wallServiceOnce(service::CompressionService& svc,
                     const std::vector<ServiceJob>& jobs,
                     const std::vector<std::vector<f32>>& fields) {
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  svc.pause();
  std::vector<service::Ticket> tickets;
  tickets.reserve(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    tickets.push_back(svc.submitCompress<f32>(jobs[i].tenant,
                                              std::span<const f32>(fields[i]),
                                              cfg)
                          .ticket);
  }
  svc.resume();
  for (const service::Ticket& t : tickets) {
    if (!t.wait().ok) {
      std::fprintf(stderr, "FAIL warm service job\n");
      std::exit(1);
    }
  }
}

/// Warm decompress pass, mirroring wallServiceOnce.
void wallServiceDecompressOnce(
    service::CompressionService& svc,
    const std::vector<std::vector<std::byte>>& streams) {
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  svc.pause();
  std::vector<service::Ticket> tickets;
  tickets.reserve(streams.size());
  for (usize i = 0; i < streams.size(); ++i) {
    tickets.push_back(
        svc.submitDecompress("tenant" + std::to_string(i % 4), streams[i],
                             cfg)
            .ticket);
  }
  svc.resume();
  for (const service::Ticket& t : tickets) {
    if (!t.wait().ok) {
      std::fprintf(stderr, "FAIL warm service decompress job\n");
      std::exit(1);
    }
  }
}

/// One pass of the pre-compressed workload back through the service as
/// decompress jobs. Same submit-all-then-resume discipline; `launches`
/// counts fused launches (a batched run must fuse the jobs into fewer
/// launches than jobs).
Modelled modelServiceDecompressOnce(
    const std::vector<std::vector<std::byte>>& streams, bool batched,
    u64* launches) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = batched ? 8 : 1;
  service::CompressionService svc(scfg);

  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  std::vector<service::Ticket> tickets;
  for (usize i = 0; i < streams.size(); ++i) {
    tickets.push_back(
        svc.submitDecompress("tenant" + std::to_string(i % 4), streams[i],
                             cfg)
            .ticket);
  }
  svc.resume();
  svc.shutdown();

  f64 seconds = 0.0;
  f64 bytesIn = 0.0;   // compressed
  f64 bytesOut = 0.0;  // decoded (original) — the throughput reference
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    if (!r.ok) {
      std::fprintf(stderr, "FAIL service decompress job: %s\n",
                   r.error.c_str());
      std::exit(1);
    }
    seconds += r.decompressProfile.endToEndSeconds;
    bytesOut += static_cast<f64>(r.decompressed.size());
  }
  for (const std::vector<std::byte>& s : streams) {
    bytesIn += static_cast<f64>(s.size());
  }
  if (launches != nullptr) *launches = svc.stats().batches;
  return {bytesIn > 0.0 ? bytesOut / bytesIn : 0.0, seconds,
          seconds > 0.0 ? bytesOut / seconds / 1e9 : 0.0};
}

Modelled modelChaosOnce(const std::vector<ServiceJob>& jobs,
                        const std::vector<std::vector<f32>>& fields,
                        u64* recoveries) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;
  scfg.watchdog.enabled = false;
  scfg.breaker.threshold = 0;
  scfg.retry.backoffBaseMillis = 0;
  service::ChaosConfig ccfg;
  ccfg.seed = 20260805;
  ccfg.bitFlipRate = 0.2;
  ccfg.abortRate = 0.2;
  ccfg.arenaRate = 0.1;
  ccfg.stallRate = 0.0;
  ccfg.wedgeRate = 0.0;
  scfg.chaosHook = service::SeededChaosSchedule(ccfg).hook();
  service::CompressionService svc(scfg);

  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  cfg.checksum = true;
  cfg.blockChecksums = true;
  cfg.faultRetries = 2;
  std::vector<service::Ticket> tickets;
  for (usize i = 0; i < jobs.size(); ++i) {
    tickets.push_back(svc.submitCompress<f32>(jobs[i].tenant,
                                              std::span<const f32>(fields[i]),
                                              cfg)
                          .ticket);
  }
  svc.resume();
  svc.shutdown();

  f64 seconds = 0.0;
  f64 bytesIn = 0.0;
  f64 bytesOut = 0.0;
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    if (!r.ok) {
      std::fprintf(stderr, "FAIL chaos job: %s\n", r.error.c_str());
      std::exit(1);
    }
    seconds += r.compressed.profile.endToEndSeconds;
    bytesIn += static_cast<f64>(r.compressed.originalBytes);
    bytesOut += static_cast<f64>(r.compressed.stream.size());
  }
  const service::ServiceStats stats = svc.stats();
  if (recoveries != nullptr) {
    *recoveries = stats.retries + stats.streamFaultRelaunches;
  }
  return {bytesOut > 0.0 ? bytesIn / bytesOut : 0.0, seconds,
          seconds > 0.0 ? bytesIn / seconds / 1e9 : 0.0};
}

/// The mixed workload over a 3-shard cluster with the hottest tenant's
/// primary shard killed mid-load. Paused drill: submit everything, kill
/// while no worker is running (the cancel-first victim sweep makes the
/// requeue set exact), then resume — so the failover count and with it
/// the modelled cost of re-running the orphaned jobs on survivors is
/// deterministic. Guards the price of a shard loss: modelled seconds is
/// the sum of per-job end-to-end profiles on the shard that finally
/// completed each job.
Modelled modelClusterFailoverOnce(const std::vector<ServiceJob>& jobs,
                                  const std::vector<std::vector<f32>>& fields,
                                  u64* failovers) {
  cluster::ClusterConfig ccfg;
  ccfg.shards = 3;
  ccfg.replicas = 2;
  ccfg.shard.workers = 1;
  ccfg.shard.maxBatchJobs = 8;
  ccfg.startPaused = true;
  cluster::CompressionCluster cl(ccfg);

  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  std::vector<cluster::ClusterTicket> tickets;
  for (usize i = 0; i < jobs.size(); ++i) {
    tickets.push_back(cl.submitCompress<f32>(jobs[i].tenant,
                                             std::span<const f32>(fields[i]),
                                             cfg)
                          .ticket);
  }
  cl.killShard(cl.primaryShardFor(jobs[0].tenant));
  cl.resume();
  cl.shutdown();

  f64 seconds = 0.0;
  f64 bytesIn = 0.0;
  f64 bytesOut = 0.0;
  for (const cluster::ClusterTicket& t : tickets) {
    const cluster::ClusterJobResult& r = t.wait();
    if (!r.job.ok) {
      std::fprintf(stderr, "FAIL cluster failover job: %s\n",
                   r.job.error.c_str());
      std::exit(1);
    }
    seconds += r.job.compressed.profile.endToEndSeconds;
    bytesIn += static_cast<f64>(r.job.compressed.originalBytes);
    bytesOut += static_cast<f64>(r.job.compressed.stream.size());
  }
  if (failovers != nullptr) *failovers = cl.stats().failovers;
  return {bytesOut > 0.0 ? bytesIn / bytesOut : 0.0, seconds,
          seconds > 0.0 ? bytesIn / seconds / 1e9 : 0.0};
}

/// Pulls `"modelled_gbps": <num>` for the named case out of a previous
/// report. Deliberately string-level: the file is machine-written with a
/// fixed shape, and the comparison is advisory.
bool previousGbps(const std::string& report, const std::string& name,
                  f64* out) {
  const std::string needle = "\"name\": \"" + name + "\"";
  const usize at = report.find(needle);
  if (at == std::string::npos) return false;
  const std::string key = "\"modelled_gbps\": ";
  const usize k = report.find(key, at);
  if (k == std::string::npos) return false;
  *out = std::atof(report.c_str() + k + key.size());
  return true;
}

std::string readFileIfAny(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  usize n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Must precede the first Launcher: the shared pool is sized once.
  setenv("CUSZP2_WORKERS", "1", 1);

  const std::string outPath = argc > 1 ? argv[1] : "BENCH_perf.json";
  const std::string previous = readFileIfAny(outPath);

  bench::banner("perf_regression",
                "Deterministic perf baseline: 3 fields x "
                "{compress, decompress, round-trip}");

  const std::vector<std::string> datasets = {"cesm_atm", "hacc", "jetin"};
  const char* opNames[3] = {"compress", "decompress", "round_trip"};
  const usize elems = bench::fieldElems();

  std::vector<CaseResult> results;
  bool deterministic = true;
  int warns = 0;

  for (const std::string& ds : datasets) {
    const std::vector<f32> field = datagen::generateF32(ds, 0, elems);
    const u64 origBytes = field.size() * sizeof(f32);

    // Two independent passes; modelled metrics must agree bit-for-bit.
    const auto pass1 = modelOnce(field);
    const auto pass2 = modelOnce(field);
    for (usize op = 0; op < 3; ++op) {
      if (!(pass1[op] == pass2[op])) {
        std::fprintf(stderr,
                     "FAIL %s/%s: modelled metrics differ between runs "
                     "(%.17g vs %.17g GB/s)\n",
                     ds.c_str(), opNames[op], pass1[op].gbps,
                     pass2[op].gbps);
        deterministic = false;
      }
    }

    // Wall clock per operation (diagnostic; not diffed).
    core::Config cfg;
    cfg.relErrorBound = 1e-3;
    core::CompressorStream codec(cfg);
    const auto c = codec.compress<f32>(std::span<const f32>(field));
    const bench::RepeatStats wallCompress = bench::measureRepeated(
        5, [&] { codec.compress<f32>(std::span<const f32>(field)); });
    const bench::RepeatStats wallDecompress =
        bench::measureRepeated(5, [&] { codec.decompress<f32>(c.stream); });
    const bench::RepeatStats wallRoundTrip = bench::measureRepeated(5, [&] {
      const auto cc = codec.compress<f32>(std::span<const f32>(field));
      codec.decompress<f32>(cc.stream);
    });
    const bench::RepeatStats walls[3] = {wallCompress, wallDecompress,
                                         wallRoundTrip};

    for (usize op = 0; op < 3; ++op) {
      CaseResult r;
      r.name = ds + "/" + opNames[op];
      r.elems = field.size();
      r.ratio = pass1[op].ratio;
      r.modelledSeconds = pass1[op].seconds;
      r.modelledGBps = pass1[op].gbps;
      r.wall = walls[op];
      std::printf("%-24s %8.2f GB/s modelled  ratio %6.2f  wall %7.2f ms\n",
                  r.name.c_str(), r.modelledGBps, r.ratio, r.wallMsMedian());

      f64 prior = 0.0;
      if (!previous.empty() && previousGbps(previous, r.name, &prior) &&
          prior > 0.0) {
        const f64 drift = std::fabs(r.modelledGBps - prior) / prior;
        if (drift > kTolerance) {
          std::printf("WARN %s: modelled throughput drifted %.1f%% "
                      "(%.2f -> %.2f GB/s)\n",
                      r.name.c_str(), drift * 100.0, prior, r.modelledGBps);
          ++warns;
        }
      }
      results.push_back(std::move(r));
    }
    (void)origBytes;
  }

  // service_throughput scenario: the 4-tenant mixed workload through the
  // CompressionService, batched vs. unbatched. The modelled advantage of
  // coalescing (fewer fused launches, amortized launch overhead) is the
  // number this case guards.
  {
    const std::vector<ServiceJob> jobs = serviceWorkload(elems);
    const std::vector<std::vector<f32>> fields = serviceFields(jobs);
    u64 totalElems = 0;
    for (const ServiceJob& j : jobs) totalElems += j.elems;

    // One row per coalescing setting (maxBatchJobs 8, then 1): two
    // modelled passes that must agree, a batched run that must fuse the
    // jobs into fewer launches than jobs, and the wall time of a warm
    // service. `model(batched, launches)` and `wallOnce(svc)` run the
    // workload once.
    const auto servicePair = [&](const char* const (&names)[2],
                                 const auto& model, const auto& wallOnce) {
      for (usize v = 0; v < 2; ++v) {
        const bool batched = v == 0;
        const char* name = names[v];
        u64 launches = 0;
        const Modelled pass1 = model(batched, &launches);
        const Modelled pass2 = model(batched, nullptr);
        if (!(pass1 == pass2)) {
          std::fprintf(stderr,
                       "FAIL %s: modelled metrics differ between runs "
                       "(%.17g vs %.17g GB/s)\n",
                       name, pass1.gbps, pass2.gbps);
          deterministic = false;
        }
        if (batched && launches >= jobs.size()) {
          std::fprintf(stderr,
                       "FAIL %s: %llu launches for %zu jobs — coalescing "
                       "is not fusing\n",
                       name, static_cast<unsigned long long>(launches),
                       jobs.size());
          deterministic = false;
        }
        service::ServiceConfig wcfg;
        wcfg.workers = 1;
        wcfg.startPaused = true;
        wcfg.maxBatchJobs = batched ? 8 : 1;
        service::CompressionService warmSvc(wcfg);
        wallOnce(warmSvc);  // warm the worker's arena
        const bench::RepeatStats wall =
            bench::measureRepeated(3, [&] { wallOnce(warmSvc); });

        CaseResult r;
        r.name = name;
        r.elems = totalElems;
        r.ratio = pass1.ratio;
        r.modelledSeconds = pass1.seconds;
        r.modelledGBps = pass1.gbps;
        r.wall = wall;
        r.launches = launches;
        std::printf("%-24s %8.2f GB/s modelled  ratio %6.2f  wall %7.2f ms"
                    "  (%zu jobs, %llu launches)\n",
                    r.name.c_str(), r.modelledGBps, r.ratio,
                    r.wallMsMedian(), jobs.size(),
                    static_cast<unsigned long long>(launches));

        f64 prior = 0.0;
        if (!previous.empty() && previousGbps(previous, r.name, &prior) &&
            prior > 0.0) {
          const f64 drift = std::fabs(r.modelledGBps - prior) / prior;
          if (drift > kTolerance) {
            std::printf("WARN %s: modelled throughput drifted %.1f%% "
                        "(%.2f -> %.2f GB/s)\n",
                        r.name.c_str(), drift * 100.0, prior,
                        r.modelledGBps);
            ++warns;
          }
        }
        results.push_back(std::move(r));
      }
    };

    servicePair(
        {"service/batched", "service/unbatched"},
        [&](bool batched, u64* launches) {
          return modelServiceOnce(jobs, fields, batched, launches);
        },
        [&](service::CompressionService& svc) {
          wallServiceOnce(svc, jobs, fields);
        });

    // service/batched_decompress vs service/unbatched_decompress: the same
    // mixed workload pre-compressed OUTSIDE the timed region, then decoded
    // through the service with coalescing on and off.
    {
      core::Config cfg;
      cfg.relErrorBound = 1e-3;
      core::CompressorStream codec(cfg);
      std::vector<std::vector<std::byte>> streams;
      streams.reserve(jobs.size());
      for (usize i = 0; i < jobs.size(); ++i) {
        streams.push_back(
            codec.compress<f32>(std::span<const f32>(fields[i])).stream);
      }
      servicePair(
          {"service/batched_decompress", "service/unbatched_decompress"},
          [&](bool batched, u64* launches) {
            return modelServiceDecompressOnce(streams, batched, launches);
          },
          [&](service::CompressionService& svc) {
            wallServiceDecompressOnce(svc, streams);
          });
    }

    // service/chaos: the same workload with seeded fault injection. Both
    // the modelled metrics AND the recovery counters must be identical
    // between passes — the chaos schedule is pure in (seed, jobId,
    // attempt), so any divergence is a determinism regression.
    {
      u64 rec1 = 0;
      u64 rec2 = 0;
      const Modelled pass1 = modelChaosOnce(jobs, fields, &rec1);
      const Modelled pass2 = modelChaosOnce(jobs, fields, &rec2);
      if (!(pass1 == pass2) || rec1 != rec2) {
        std::fprintf(stderr,
                     "FAIL service/chaos: runs differ (%.17g vs %.17g GB/s, "
                     "%llu vs %llu recoveries)\n",
                     pass1.gbps, pass2.gbps,
                     static_cast<unsigned long long>(rec1),
                     static_cast<unsigned long long>(rec2));
        deterministic = false;
      }
      const bench::RepeatStats wall = bench::measureRepeated(
          3, [&] { modelChaosOnce(jobs, fields, nullptr); });

      CaseResult r;
      r.name = "service/chaos";
      r.elems = totalElems;
      r.ratio = pass1.ratio;
      r.modelledSeconds = pass1.seconds;
      r.modelledGBps = pass1.gbps;
      r.wall = wall;
      r.recoveries = rec1;
      std::printf("%-24s %8.2f GB/s modelled  ratio %6.2f  wall %7.2f ms"
                  "  (%zu jobs, %llu recoveries)\n",
                  r.name.c_str(), r.modelledGBps, r.ratio, r.wallMsMedian(),
                  jobs.size(), static_cast<unsigned long long>(rec1));

      f64 prior = 0.0;
      if (!previous.empty() && previousGbps(previous, r.name, &prior) &&
          prior > 0.0) {
        const f64 drift = std::fabs(r.modelledGBps - prior) / prior;
        if (drift > kTolerance) {
          std::printf("WARN %s: modelled throughput drifted %.1f%% "
                      "(%.2f -> %.2f GB/s)\n",
                      r.name.c_str(), drift * 100.0, prior, r.modelledGBps);
          ++warns;
        }
      }
      results.push_back(std::move(r));
    }

    // cluster/failover: the same workload over a 3-shard cluster with a
    // shard killed mid-load. Both the modelled metrics AND the failover
    // count must match between passes — the paused kill drill is
    // deterministic, so any divergence is a routing/failover regression.
    {
      u64 fo1 = 0;
      u64 fo2 = 0;
      const Modelled pass1 = modelClusterFailoverOnce(jobs, fields, &fo1);
      const Modelled pass2 = modelClusterFailoverOnce(jobs, fields, &fo2);
      if (!(pass1 == pass2) || fo1 != fo2) {
        std::fprintf(stderr,
                     "FAIL cluster/failover: runs differ (%.17g vs %.17g "
                     "GB/s, %llu vs %llu failovers)\n",
                     pass1.gbps, pass2.gbps,
                     static_cast<unsigned long long>(fo1),
                     static_cast<unsigned long long>(fo2));
        deterministic = false;
      }
      if (fo1 == 0) {
        std::fprintf(stderr,
                     "FAIL cluster/failover: the killed shard produced no "
                     "failovers — the drill is not exercising recovery\n");
        deterministic = false;
      }
      const bench::RepeatStats wall = bench::measureRepeated(
          3, [&] { modelClusterFailoverOnce(jobs, fields, nullptr); });

      CaseResult r;
      r.name = "cluster/failover";
      r.elems = totalElems;
      r.ratio = pass1.ratio;
      r.modelledSeconds = pass1.seconds;
      r.modelledGBps = pass1.gbps;
      r.wall = wall;
      r.recoveries = fo1;
      std::printf("%-24s %8.2f GB/s modelled  ratio %6.2f  wall %7.2f ms"
                  "  (%zu jobs, %llu failovers)\n",
                  r.name.c_str(), r.modelledGBps, r.ratio, r.wallMsMedian(),
                  jobs.size(), static_cast<unsigned long long>(fo1));

      f64 prior = 0.0;
      if (!previous.empty() && previousGbps(previous, r.name, &prior) &&
          prior > 0.0) {
        const f64 drift = std::fabs(r.modelledGBps - prior) / prior;
        if (drift > kTolerance) {
          std::printf("WARN %s: modelled throughput drifted %.1f%% "
                      "(%.2f -> %.2f GB/s)\n",
                      r.name.c_str(), drift * 100.0, prior, r.modelledGBps);
          ++warns;
        }
      }
      results.push_back(std::move(r));
    }
  }

  // ratio/v3 scenario: the jetin field under the Auto pipeline (format
  // v3) against the same field through the v2 FLE writer (same per-block
  // CRC footer v3 always carries). The selector's per-block Huffman/RLE
  // wins are the point of format v3, so this case hard-fails the run —
  // not a warning — if the v3 stream stops being smaller than the v2 one.
  // The ratio/v2crc row times that v2 writer, so the pair shows what the
  // v3 ratio costs in host wall time. The ratio/v3_decompress row times
  // the strict decode of the v3 stream (layout validation, dictionary,
  // every pipeline's block decoder).
  {
    const std::vector<f32> field = datagen::generateF32("jetin", 0, elems);
    core::Config v2cfg;
    v2cfg.relErrorBound = 1e-3;
    v2cfg.blockChecksums = true;
    core::Config v3cfg = v2cfg;
    v3cfg.pipeline = core::PipelineMode::Auto;

    const auto onePass = [&](const core::Config& cfg) {
      core::CompressorStream codec(cfg);
      const auto c = codec.compress<f32>(std::span<const f32>(field));
      return Modelled{c.ratio, c.profile.endToEndSeconds,
                      c.profile.endToEndGBps};
    };
    const Modelled v2a = onePass(v2cfg);
    const Modelled v3a = onePass(v3cfg);
    if (!(v2a == onePass(v2cfg)) || !(v3a == onePass(v3cfg))) {
      std::fprintf(stderr, "FAIL ratio/v3: modelled metrics differ "
                           "between runs\n");
      deterministic = false;
    }
    if (!(v3a.ratio > v2a.ratio)) {
      std::fprintf(stderr,
                   "FAIL ratio/v3: v3 auto ratio %.4f does not improve on "
                   "the v2 FLE ratio %.4f\n",
                   v3a.ratio, v2a.ratio);
      deterministic = false;
    }

    // The v3 stream's strict decode, twice for the determinism check.
    core::CompressorStream v3codec(v3cfg);
    const std::vector<std::byte> v3stream =
        v3codec.compress<f32>(std::span<const f32>(field)).stream;
    const auto decodePass = [&] {
      const auto d = v3codec.decompress<f32>(v3stream);
      return Modelled{v3a.ratio, d.profile.endToEndSeconds,
                      d.profile.endToEndGBps};
    };
    const Modelled v3d = decodePass();
    if (!(v3d == decodePass())) {
      std::fprintf(stderr, "FAIL ratio/v3_decompress: modelled metrics "
                           "differ between runs\n");
      deterministic = false;
    }

    const auto addRow = [&](const char* name, const Modelled& m,
                            const std::function<void()>& op) {
      CaseResult r;
      r.name = name;
      r.elems = field.size();
      r.ratio = m.ratio;
      r.modelledSeconds = m.seconds;
      r.modelledGBps = m.gbps;
      r.wall = bench::measureRepeated(5, op);
      std::printf("%-24s %8.2f GB/s modelled  ratio %6.2f  wall %7.2f ms\n",
                  r.name.c_str(), r.modelledGBps, r.ratio, r.wallMsMedian());

      f64 prior = 0.0;
      if (!previous.empty() && previousGbps(previous, r.name, &prior) &&
          prior > 0.0) {
        const f64 drift = std::fabs(r.modelledGBps - prior) / prior;
        if (drift > kTolerance) {
          std::printf("WARN %s: modelled throughput drifted %.1f%% "
                      "(%.2f -> %.2f GB/s)\n",
                      r.name.c_str(), drift * 100.0, prior, r.modelledGBps);
          ++warns;
        }
      }
      results.push_back(std::move(r));
    };
    core::CompressorStream v2codec(v2cfg);
    addRow("ratio/v3", v3a,
           [&] { v3codec.compress<f32>(std::span<const f32>(field)); });
    addRow("ratio/v2crc", v2a,
           [&] { v2codec.compress<f32>(std::span<const f32>(field)); });
    addRow("ratio/v3_decompress", v3d,
           [&] { v3codec.decompress<f32>(v3stream); });
    std::printf("%-24s v3 auto ratio is %+.1f%% on the v2 fle ratio\n", "",
                100.0 * (v3a.ratio / v2a.ratio - 1.0));
  }

  // cas/dedup scenario: a repeated-timestep corpus — two tenants each put
  // eight timesteps that cycle through two unique compressed fields — so
  // the content-addressed store should collapse 16 logical objects onto 2
  // physical copies. The row hard-fails (not a warning) if the store's
  // physical-bytes reduction drops below the pinned 1.8x floor, or if the
  // occupancy/counter snapshot differs between two identical passes.
  {
    const usize casElems = elems / 4;
    core::Config cfg;
    cfg.relErrorBound = 1e-3;
    cfg.pipeline = core::PipelineMode::Auto;
    core::CompressorStream codec(cfg);
    std::vector<std::vector<std::byte>> unique;
    for (u32 i = 0; i < 2; ++i) {
      const std::vector<f32> field = datagen::generateF32("cesm_atm", i,
                                                          casElems);
      unique.push_back(
          codec.compress<f32>(std::span<const f32>(field)).stream);
    }

    u64 logicalBytes = 0;
    const auto onePass = [&]() {
      cas::BlockStore store({.chunkBytes = 16 * 1024});
      for (u32 t = 0; t < 8; ++t) {
        for (const char* tenant : {"climate", "mirror"}) {
          const std::vector<std::byte>& body = unique[t % 2];
          store.put(tenant, "step-" + std::to_string(t),
                    ConstByteSpan(body.data(), body.size()));
        }
      }
      const cas::StoreStats s = store.stats();
      logicalBytes = s.logicalBytes;
      return s;
    };
    const cas::StoreStats pass1 = onePass();
    if (!(pass1 == onePass())) {
      std::fprintf(stderr, "FAIL cas/dedup: store stats differ between "
                           "identical passes\n");
      deterministic = false;
    }
    const f64 dedup = pass1.dedupRatio();
    if (!(dedup >= 1.8)) {
      std::fprintf(stderr,
                   "FAIL cas/dedup: dedup ratio %.4f below the pinned 1.8x "
                   "floor on the repeated-timestep dataset\n",
                   dedup);
      deterministic = false;
    }

    const bench::RepeatStats wall = bench::measureRepeated(5, [&] {
      onePass();
    });

    CaseResult r;
    r.name = "cas/dedup";
    r.elems = casElems;
    r.ratio = dedup;
    r.modelledSeconds = 0.0;
    r.modelledGBps = 0.0;
    r.wall = wall;
    std::printf("%-24s %8s           ratio %6.2f  wall %7.2f ms"
                "  (%llu logical -> %llu physical bytes)\n",
                r.name.c_str(), "-", r.ratio, r.wallMsMedian(),
                static_cast<unsigned long long>(logicalBytes),
                static_cast<unsigned long long>(pass1.physicalBytes));
    results.push_back(std::move(r));
  }

  // cas/journal scenario: the cost of incremental durability. One pass
  // journals ten distinct puts (each acked behind a sync barrier), kills
  // the store, and recovers from the snapshot-less journal; the baseline
  // rewrites a full snapshot after every put — the pre-journal way to get
  // the same crash safety. The row hard-fails (not a warning) if recovery
  // loses or corrupts any acked object, if the journal's disk cost fails
  // to amortize at least 2x under the snapshot-per-put baseline, or if
  // two identical passes disagree on bytes written or recovered stats.
  {
    constexpr u32 kOps = 10;
    constexpr usize kBlobBytes = 48 * 1024;
    std::vector<std::vector<std::byte>> blobs;
    u64 x = 0x243F6A8885A308D3ull;
    for (u32 i = 0; i < kOps; ++i) {
      std::vector<std::byte> blob(kBlobBytes);
      for (usize j = 0; j < kBlobBytes; ++j) {
        x += 0x9E3779B97F4A7C15ull;
        u64 z = x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        blob[j] = static_cast<std::byte>((z ^ (z >> 31)) & 0xFF);
      }
      blobs.push_back(std::move(blob));
    }

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("cuszp2-bench-journal-" + std::to_string(::getpid())))
            .string();
    const cas::StoreConfig storeCfg{.chunkBytes = 16 * 1024};

    struct JournalPass {
      u64 journalBytes = 0;     // disk cost of the journaled run
      u64 savePerPutBytes = 0;  // disk cost of the snapshot-per-put run
      u64 replayed = 0;
      cas::StoreStats recovered;
      bool intact = true;
    };
    const auto onePass = [&] {
      JournalPass ps;
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      const std::string index = dir + "/store.cas";
      const std::string jnl = index + ".jnl";
      {
        cas::BlockStore store(storeCfg);
        store.attachJournal(jnl);
        for (u32 i = 0; i < kOps; ++i) {
          store.put("bench", "blob-" + std::to_string(i),
                    ConstByteSpan(blobs[i]));
        }
        ps.journalBytes =
            static_cast<u64>(std::filesystem::file_size(jnl));
      }  // process death: nothing was ever snapshotted
      cas::RecoveryReport rep;
      auto store = cas::BlockStore::recover(index, jnl, storeCfg, &rep);
      ps.replayed = rep.replayedRecords;
      ps.recovered = store->stats();
      std::string err;
      if (!store->verifyAll(&err)) ps.intact = false;
      for (u32 i = 0; i < kOps; ++i) {
        if (store->get("bench", "blob-" + std::to_string(i)) != blobs[i]) {
          ps.intact = false;
        }
      }
      store.reset();

      const std::string base = dir + "/baseline.cas";
      cas::BlockStore baseline(storeCfg);
      for (u32 i = 0; i < kOps; ++i) {
        baseline.put("bench", "blob-" + std::to_string(i),
                     ConstByteSpan(blobs[i]));
        baseline.save(base);
        ps.savePerPutBytes +=
            static_cast<u64>(std::filesystem::file_size(base));
      }
      return ps;
    };

    const JournalPass pass1 = onePass();
    const JournalPass pass2 = onePass();
    if (!pass1.intact || !pass2.intact) {
      std::fprintf(stderr, "FAIL cas/journal: recovery lost or corrupted "
                           "an acknowledged put\n");
      deterministic = false;
    }
    if (pass1.journalBytes != pass2.journalBytes ||
        pass1.savePerPutBytes != pass2.savePerPutBytes ||
        pass1.replayed != pass2.replayed ||
        !(pass1.recovered == pass2.recovered)) {
      std::fprintf(stderr, "FAIL cas/journal: disk cost or recovered stats "
                           "differ between identical passes\n");
      deterministic = false;
    }
    const f64 amortize =
        pass1.journalBytes > 0
            ? static_cast<f64>(pass1.savePerPutBytes) /
                  static_cast<f64>(pass1.journalBytes)
            : 0.0;
    if (!(amortize >= 2.0)) {
      std::fprintf(stderr,
                   "FAIL cas/journal: journal amortization %.2fx below the "
                   "pinned 2x floor (journal %llu B vs snapshot-per-put "
                   "%llu B)\n",
                   amortize,
                   static_cast<unsigned long long>(pass1.journalBytes),
                   static_cast<unsigned long long>(pass1.savePerPutBytes));
      deterministic = false;
    }

    const bench::RepeatStats wall = bench::measureRepeated(5, [&] {
      onePass();
    });
    std::filesystem::remove_all(dir);

    CaseResult r;
    r.name = "cas/journal";
    r.elems = kOps * kBlobBytes;
    r.ratio = amortize;  // snapshot-per-put bytes / journaled bytes
    r.modelledSeconds = 0.0;
    r.modelledGBps = 0.0;
    r.wall = wall;
    std::printf("%-24s %8s           ratio %6.2f  wall %7.2f ms"
                "  (%llu journal B vs %llu snapshot-per-put B, "
                "%llu replayed)\n",
                r.name.c_str(), "-", r.ratio, r.wallMsMedian(),
                static_cast<unsigned long long>(pass1.journalBytes),
                static_cast<unsigned long long>(pass1.savePerPutBytes),
                static_cast<unsigned long long>(pass1.replayed));
    results.push_back(std::move(r));
  }

  // Soft wall-clock budget check: advisory WARN lines, never a failure
  // (wall time is hardware-dependent); the budget column itself is
  // required by ci_check.sh so regressions stay visible in the diff.
  for (CaseResult& r : results) {
    r.wallBudgetMs = wallBudgetMs(r.name);
    if (r.wallBudgetMs > 0.0 && r.wallMsMedian() > r.wallBudgetMs) {
      std::printf("WARN perf.wall_budget %s: wall %.2f ms exceeds budget "
                  "%.2f ms\n",
                  r.name.c_str(), r.wallMsMedian(), r.wallBudgetMs);
      ++warns;
    }
  }

  // Hand-rolled writer: modelled fields use %.17g so identical runs give
  // byte-identical files (JsonReport rounds for readability; this file is
  // diffed by CI).
  std::string json = "[\n";
  for (usize i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json += "  {\"name\": \"" + r.name + "\"";
    json += ", \"elems\": " + std::to_string(r.elems);
    json += ", \"ratio\": " + f64Str(r.ratio);
    json += ", \"modelled_seconds\": " + f64Str(r.modelledSeconds);
    json += ", \"modelled_gbps\": " + f64Str(r.modelledGBps);
    json += ", \"min_ms\": " + f64Str(r.wall.minSeconds * 1e3);
    json += ", \"wall_ms_median\": " + f64Str(r.wallMsMedian());
    json += ", \"max_ms\": " + f64Str(r.wall.maxSeconds * 1e3);
    json += ", \"wall_budget_ms\": " + f64Str(r.wallBudgetMs);
    if (r.launches > 0) {
      json += ", \"launches\": " + std::to_string(r.launches);
    }
    if (r.recoveries > 0) {
      json += ", \"recoveries\": " + std::to_string(r.recoveries);
    }
    json += "}";
    if (i + 1 < results.size()) json += ",";
    json += "\n";
  }
  json += "]\n";

  std::FILE* f = std::fopen(outPath.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", outPath.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu cases, %d drift warnings)\n", outPath.c_str(),
              results.size(), warns);

  return deterministic ? 0 : 1;
}
