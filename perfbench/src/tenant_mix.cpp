// tenant_mix: open loop. Seeded Poisson bursts of 1-4 jobs at a fixed
// offered job rate into a 2-shard CompressionCluster (1 worker per shard,
// pool of 1 set by run.py). Four tenants, one of them sending about half
// the jobs; log-uniform job sizes of 64 Ki - 2 Mi elements; compress and
// decompress jobs 1:1; two configs (legacy default, v2 + block
// checksums). The jobs of a burst can fuse into one batch; jobs of
// different kinds or configs cannot. Per-job kernels are small, so
// routing, queueing, batching and dispatch dominate.
//
// Threads: this generator thread issues every submission; four collector
// threads, one per tenant, sleep until their tenant's oldest job finishes,
// then stamp and check it. Busy threads are the generator, the two shard
// workers and the one pool worker. Latency runs from each job's intended
// send time, so a late generator is charged to the system, not hidden.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/launcher.hpp"

namespace perfbench {

namespace {

using namespace cuszp2;

// About a sixth of the measured capacity (600-800 jobs/s on a 1-worker
// pool, where the shards are busy all the time): queueing stays short, so
// latency is mostly service time, and half the jobs still run in fused
// batches.
constexpr f64 kOfferedJobsPerSecond = 100.0;
constexpr usize kMinElems = usize{64} << 10;
constexpr usize kMaxElems = usize{2} << 20;
constexpr usize kMaxBurst = 4;  // jobs per burst: uniform in 1..4
constexpr f64 kSliceUs = 1e6;   // CPU-time slices of the schedule
constexpr usize kCatalogue = 64;
constexpr usize kSlabElems = usize{16} << 10;
constexpr usize kPoolSlabsPerField = 20;  // 57 fields -> 1140 slabs, 71 MiB
// Fixed names: ring placement depends only on them, never on the seed.
// "climate" sends about half the jobs and is the only tenant on shard 1;
// the other three share shard 0, so both shards get about half the load.
const char* const kTenants[] = {"climate", "fusion", "plasma", "combust"};

struct Item {
  usize offset = 0;
  usize elems = 0;
  core::Config config;
  f64 eb = 0.0;
  std::vector<std::byte> reference;  ///< serial CompressorStream output
  std::vector<f32> decoded;          ///< its serial decode, bound-checked
};

struct Pending {
  Op op;
  usize item = 0;
  f64 returnedUs = 0.0;  ///< cluster submit returned
  cluster::ClusterTicket ticket;
};

core::Config itemConfig(usize i) {
  core::Config c;  // legacy default
  if (i % 2 == 1) c.blockChecksums = true;  // v2 + per-block checksums
  return c;
}

cluster::ClusterConfig clusterConfig() {
  cluster::ClusterConfig c;
  c.shards = 2;
  c.shard.workers = 1;
  return c;
}

}  // namespace

RunInfo runTenantMix(const Options& opt, Recorder& rec) {
  Rng rng(mixSeed(opt.seed, 0x7e9a));
  // Job inputs are slices of one pool that interleaves 16 Ki-element slabs
  // of every field of four datasets in a seeded order, so even a small job
  // sees a seeded mix of fields and the workload's compressibility does
  // not hinge on which few fields a seed happens to draw. Datagen is
  // outside every timed region.
  std::vector<f32> pool;
  {
    const char* datasets[] = {"cesm_atm", "hacc", "nyx", "scale"};
    std::vector<std::vector<f32>> fields;
    for (const char* ds : datasets) {
      for (u32 f = 0; f < datagen::datasetInfo(ds).numFields; ++f) {
        fields.push_back(datagen::generateF32(ds, f, kPoolSlabsPerField *
                                                         kSlabElems));
      }
    }
    std::vector<std::pair<usize, usize>> slabs;  // (field, slab within it)
    for (usize f = 0; f < fields.size(); ++f) {
      for (usize k = 0; k < kPoolSlabsPerField; ++k) slabs.push_back({f, k});
    }
    rng.shuffle(slabs);
    pool.reserve(slabs.size() * kSlabElems);
    for (const auto& [f, k] : slabs) {
      const auto first = fields[f].begin() + static_cast<long>(k * kSlabElems);
      pool.insert(pool.end(), first, first + static_cast<long>(kSlabElems));
    }
  }

  // Job catalogue: stratified log-uniform sizes at seeded pool offsets;
  // reference outputs from a serial stream (these are also the
  // decompress jobs' inputs, pre-compressed here in setup) and their
  // serial decodes, each checked element by element against the bound
  // here, so a job's output only has to match them byte for byte.
  std::vector<Item> items(kCatalogue);
  u64 catalogueBytes = 0;
  {
    core::CompressorStream serial;
    const f64 span = std::log(static_cast<f64>(kMaxElems) / kMinElems);
    for (usize i = 0; i < kCatalogue; ++i) {
      Item& it = items[i];
      const f64 q = (static_cast<f64>(i) + rng.uniform()) / kCatalogue;
      it.elems = std::min(kMaxElems, static_cast<usize>(std::llround(
                                         kMinElems * std::exp(q * span))));
      it.offset = rng.below(pool.size() - it.elems + 1);
      it.config = itemConfig(i);
      const std::span<const f32> in(pool.data() + it.offset, it.elems);
      it.eb = absBound<f32>(in, it.config.relErrorBound);
      serial.reconfigure(it.config);
      it.reference = serial.compress<f32>(in).stream;
      it.decoded = serial.decompress<f32>(it.reference).data;
      if (firstBoundViolation<f32>(in, it.decoded, it.eb) >= 0) {
        rec.error("tenant_mix: serial decode of item " + std::to_string(i) +
                  " violates the error bound");
      }
      catalogueBytes += it.elems * sizeof(f32);
    }
  }
  rec.count("catalogue.mean_bytes",
            static_cast<f64>(catalogueBytes) / kCatalogue);
  const auto input = [&](const Item& it) {
    return std::span<const f32>(pool.data() + it.offset, it.elems);
  };

  // Setup: cluster construction plus one warm-up compress and decompress
  // per catalogue item, which grows both shards' scratch to peak size.
  RunInfo info;
  std::unique_ptr<cluster::CompressionCluster> cl;
  for (u32 s = 0; s < opt.setups; ++s) {
    cl.reset();
    const f64 t0 = rec.nowUs();
    const f64 cpu0 = Recorder::cpuUs();
    cl = std::make_unique<cluster::CompressionCluster>(clusterConfig());
    // Waves of 8 items keep the warm-up's memory small.
    for (usize w = 0; w < kCatalogue; w += 8) {
      std::vector<cluster::ClusterTicket> warm;
      for (usize i = w; i < w + 8; ++i) {
        const char* tenant = kTenants[i % 4];
        warm.push_back(
            cl->submitCompress<f32>(tenant, input(items[i]), items[i].config)
                .ticket);
        warm.push_back(
            cl->submitDecompress(tenant, items[i].reference, items[i].config)
                .ticket);
      }
      for (const auto& t : warm) {
        if (!t.valid() || !t.wait().job.ok) {
          throw Error("tenant_mix: warm-up job failed");
        }
      }
    }
    info.setupSeconds.push_back((rec.nowUs() - t0) * 1e-6);
    info.setupCpuSeconds.push_back((Recorder::cpuUs() - cpu0) * 1e-6);
  }
  for (u32 t = 0; t < 4; ++t) {
    rec.count(std::string("placement.") + kTenants[t],
              cl->primaryShardFor(kTenants[t]));
  }
  const auto shardRetries = [&] {
    f64 n = 0.0;
    for (const cluster::ShardInfo& s : cl->shardInfos()) {
      n += static_cast<f64>(s.stats.retries);
    }
    return n;
  };
  const cluster::ClusterStats before = cl->stats();
  const f64 retriesBefore = shardRetries();

  // Arrival schedule: bursts at the times of a Poisson process
  // conditioned on its count, so the offered load (rate x window jobs) is
  // the same for every seed. A burst is one tenant sending 1-4 jobs of one
  // kind and one config at the same instant (a client flushing several
  // fields of one snapshot), so jobs that queue behind a burst's first job
  // can fuse into one batch even at low load; jobs of different kinds or
  // configs never fuse. The jobs of each kind walk their own seeded
  // permutations of each config's half of the catalogue, so every item is
  // used equally often by each kind and the bytes a kind offers hardly
  // depend on the seed.
  struct Arrival {
    f64 atUs;
    usize item;
    bool compress;
    u32 tenant;
    bool traced;
  };
  const f64 rate = opt.rate > 0.0 ? opt.rate : kOfferedJobsPerSecond;
  const usize jobs = static_cast<usize>(std::llround(rate * opt.seconds));
  std::vector<std::pair<f64, usize>> bursts;  // (time, jobs in the burst)
  for (usize queued = 0; queued < jobs;) {
    const usize k = std::min<usize>(1 + rng.below(kMaxBurst), jobs - queued);
    bursts.push_back({rng.uniform() * opt.seconds * 1e6, k});
    queued += k;
  }
  std::sort(bursts.begin(), bursts.end());
  std::vector<Arrival> arrivals;
  {
    std::vector<usize> perm[2][2];  // [compress][config]
    for (usize i = 0; i < kCatalogue; ++i) {
      perm[0][i % 2].push_back(i);
      perm[1][i % 2].push_back(i);
    }
    usize cursor[2][2] = {{kCatalogue, kCatalogue}, {kCatalogue, kCatalogue}};
    Rng traceRng(mixSeed(opt.seed, 0x7ace));
    for (const auto& [t, k] : bursts) {
      const f64 u = rng.uniform();
      const u32 tenant =
          std::min<u32>(u < 0.5 ? 0 : 1 + static_cast<u32>((u - 0.5) * 6.0), 3);
      const bool compress = (rng.next() & 1) != 0;
      const usize config = rng.next() & 1;
      for (usize j = 0; j < k; ++j) {
        std::vector<usize>& walk = perm[compress][config];
        usize& at = cursor[compress][config];
        if (at >= walk.size()) {
          rng.shuffle(walk);
          at = 0;
        }
        arrivals.push_back({t, walk[at++], compress,
                            tenant, opt.trace && (traceRng.next() & 1) != 0});
      }
    }
  }

  // Collectors: one per tenant, each blocked on its tenant's oldest
  // outstanding ticket. A shard has one worker and takes each tenant's
  // lane in FIFO order, and nothing moves jobs between shards (no
  // heartbeat runs, so no stealing or failover), so a tenant's jobs finish
  // in the order they were sent and a blocking wait on the oldest one
  // stamps each completion as it happens, with no polling. The output
  // check that follows is a byte comparison with references made in
  // setup, about 0.1 ms per job.
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool closed = false;
    f64 busyUs[2] = {0.0, 0.0};  ///< per shard: serviceUs / batchJobs
  };
  std::array<Lane, 4> lanes;
  // CPU time the collectors spend in the benchmark's own output checks,
  // left out of the CPU time marked for each slice.
  std::atomic<u64> checkCpuNs{0};
  const auto markCpu = [&](f64 atUs) {
    rec.mark(atUs,
             Recorder::cpuUs() - static_cast<f64>(checkCpuNs.load()) * 1e-3);
  };

  // Checks one finished job's output; traced jobs also get their spans.
  const auto verify = [&](Pending& p, Lane& lane) {
    const Item& it = items[p.item];
    const cluster::ClusterJobResult& r = p.ticket.result();
    const service::JobResult& job = r.job;
    if (!job.ok) {
      p.op.ok = false;
      rec.error("tenant_mix: job " + std::to_string(p.op.id) + " " +
                service::toString(job.outcome) + ": " + job.error);
      return;
    }
    if (r.shard < 2 && job.batchJobs > 0) {
      lane.busyUs[r.shard] += job.serviceUs / job.batchJobs;
    }
    if (p.op.kind == "compress") {
      if (job.compressed.stream != it.reference) {
        p.op.ok = false;
        rec.error("tenant_mix: compress job " + std::to_string(p.op.id) +
                  " differs from the serial stream");
      }
    } else if (job.decodedElements != it.elems ||
               job.decompressed.size() != it.decoded.size() * sizeof(f32) ||
               std::memcmp(job.decompressed.data(), it.decoded.data(),
                           job.decompressed.size()) != 0) {
      p.op.ok = false;
      rec.error("tenant_mix: decompress job " + std::to_string(p.op.id) +
                " differs from the bound-checked serial decode");
    }
    if (p.op.traced) {
      const core::KernelProfile& prof = p.op.kind == "compress"
                                            ? job.compressed.profile
                                            : job.decompressProfile;
      const u64 root = rec.newSpanId();
      const u64 id = p.op.id;
      rec.span({root, 0, id, "op.job", p.op.intendedUs, p.op.doneUs, {}});
      rec.span({rec.newSpanId(), root, id, "gen.late", p.op.intendedUs,
                p.op.sentUs, {}});
      rec.span({rec.newSpanId(), root, id, "cluster.submit", p.op.sentUs,
                p.returnedUs, {}});
      // Service time stamps are durations from the shard; lay them end
      // to end after submit returned, clipped to the observed finish.
      const f64 waitEnd = std::min(p.returnedUs + job.waitUs, p.op.doneUs);
      const f64 runEnd = std::min(waitEnd + job.serviceUs, p.op.doneUs);
      rec.span({rec.newSpanId(), root, id, "service.wait", p.returnedUs,
                waitEnd, {{"wait_us", job.waitUs}}});
      std::vector<SpanArg> args = profileArgs(prof);
      args.push_back({"service_us", job.serviceUs});
      args.push_back({"batch_jobs", static_cast<f64>(job.batchJobs)});
      rec.span({rec.newSpanId(), root, id, "service.run", waitEnd, runEnd,
                std::move(args)});
    }
  };

  std::vector<std::thread> collectors;
  for (usize t = 0; t < lanes.size(); ++t) {
    collectors.emplace_back([&, t] {
      Lane& lane = lanes[t];
      for (;;) {
        Pending p;
        {
          std::unique_lock lock(lane.mutex);
          lane.cv.wait(lock, [&] { return !lane.queue.empty() || lane.closed; });
          if (lane.queue.empty()) return;
          p = std::move(lane.queue.front());
          lane.queue.pop_front();
        }
        try {
          p.ticket.wait();
          p.op.doneUs = rec.nowUs();
          const f64 c0 = Recorder::threadCpuUs();
          verify(p, lane);
          checkCpuNs += static_cast<u64>((Recorder::threadCpuUs() - c0) * 1e3);
        } catch (const std::exception& e) {
          p.op.ok = false;
          if (p.op.doneUs == 0.0) p.op.doneUs = rec.nowUs();
          rec.error(std::string("tenant_mix: check failed: ") + e.what());
        }
        rec.op(p.op);
      }
    });
  }

  // Generator: one thread issues every job at its scheduled time. An
  // exception stops the load but still lets the collectors drain and
  // join.
  // The schedule is cut into one-second slices: at the first arrival of
  // each, and once every job is done, the generator marks the process CPU
  // time less the output checks', so each slice's jobs can be set against
  // the CPU time every layer spent meanwhile (without the time threads
  // waited for a CPU).
  const f64 startUs = rec.nowUs() + 2000.0;
  try {
    u64 nextId = 0;
    f64 nextSliceUs = 0.0;
    for (const Arrival& a : arrivals) {
      std::this_thread::sleep_until(rec.timeAt(startUs + a.atUs));
      if (a.atUs >= nextSliceUs) {
        markCpu(startUs + a.atUs);
        nextSliceUs = (std::floor(a.atUs / kSliceUs) + 1.0) * kSliceUs;
      }
      const Item& it = items[a.item];
      Pending p;
      p.item = a.item;
      p.op.id = ++nextId;
      p.op.kind = a.compress ? "compress" : "decompress";
      p.op.originalBytes = it.elems * sizeof(f32);
      p.op.streamBytes = it.reference.size();
      p.op.traced = a.traced;
      p.op.intendedUs = startUs + a.atUs;
      p.op.sentUs = rec.nowUs();
      cluster::ClusterSubmitResult sub =
          a.compress ? cl->submitCompress<f32>(kTenants[a.tenant], input(it),
                                               it.config)
                     : cl->submitDecompress(kTenants[a.tenant], it.reference,
                                            it.config);
      p.returnedUs = rec.nowUs();
      if (!sub.accepted()) {
        p.op.ok = false;
        p.op.doneUs = p.returnedUs;
        rec.error(std::string("tenant_mix: rejected (") +
                  service::toString(sub.reason) + ") " + sub.detail);
        rec.op(p.op);
        continue;
      }
      p.ticket = sub.ticket;
      Lane& lane = lanes[a.tenant];
      {
        std::lock_guard lock(lane.mutex);
        lane.queue.push_back(std::move(p));
      }
      lane.cv.notify_one();
    }
  } catch (const std::exception& e) {
    rec.error(std::string("tenant_mix: generator stopped: ") + e.what());
  }
  for (Lane& lane : lanes) {
    {
      std::lock_guard lock(lane.mutex);
      lane.closed = true;
    }
    lane.cv.notify_one();
  }
  for (std::thread& c : collectors) c.join();
  markCpu(rec.nowUs());
  info.windowSeconds = opt.seconds;
  for (usize shard = 0; shard < 2; ++shard) {
    f64 busy = 0.0;
    for (const Lane& lane : lanes) busy += lane.busyUs[shard];
    rec.count("shard" + std::to_string(shard) + ".busy_frac",
              busy / (opt.seconds * 1e6));
  }
  rec.count("window.start_us", startUs);
  rec.count("window.end_us", startUs + opt.seconds * 1e6);
  rec.count("offered_jobs_per_s", rate);

  const cluster::ClusterStats after = cl->stats();
  rec.count("cluster.failovers",
            static_cast<f64>(after.failovers - before.failovers));
  rec.count("service.rejected",
            static_cast<f64>(after.rejected - before.rejected));
  rec.count("service.retries", shardRetries() - retriesBefore);
  rec.count("pool_workers",
            static_cast<f64>(gpusim::Launcher::shared().workerCount()));
  return info;
}

}  // namespace perfbench
