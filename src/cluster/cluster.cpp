#include "cluster/cluster.hpp"

#include <algorithm>

#include "cluster/state.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::cluster {

ShardFault ShardChaosSchedule::decide(const ShardProbeInfo& info) const {
  Rng rng(keyedStream(config_.seed, u64{info.shard} + 1, info.heartbeat)
              .next());
  static constexpr ShardFault::Mode kModes[] = {ShardFault::Mode::Kill,
                                                ShardFault::Mode::Degrade,
                                                ShardFault::Mode::None};
  return ShardFault{kModes[rates_.pick(rng.uniform())]};
}

namespace detail {

ClusterState::ClusterState(ClusterConfig cfg)
    : config(std::move(cfg)),
      ring(config.vnodesPerShard, config.ringSeed) {
  require(config.shards > 0, "CompressionCluster: need at least 1 shard");
  if (config.devices.empty()) {
    config.devices = gpusim::heterogeneousFleet(config.shards);
  }
  require(config.devices.size() == config.shards,
          "CompressionCluster: one device per shard required");
  if (config.replicas == 0) config.replicas = 1;
  if (config.maxJobFailovers == 0) {
    config.maxJobFailovers = config.shards - 1;
  }
  paused = config.startPaused;
  shards.reserve(config.shards);
  for (u32 i = 0; i < config.shards; ++i) {
    Shard sh;
    sh.id = i;
    sh.device = config.devices[i];
    sh.svc = makeService(i, sh.device);
    sh.store = std::make_unique<cas::BlockStore>(config.replicaStore);
    shards.push_back(std::move(sh));
    ring.addShard(i);
  }
}

std::unique_ptr<service::CompressionService> ClusterState::makeService(
    u32 shardId, const gpusim::DeviceSpec& device) const {
  service::ServiceConfig sc = config.shard;
  // Every worker of a shard sits on that shard's one device; placement
  // across devices is the cluster's job, not the shard's.
  sc.devices.assign(std::max<u32>(1, sc.workers), device);
  sc.startPaused = paused;
  if (!config.journalDir.empty()) {
    sc.jobJournalPath =
        config.journalDir + "/shard-" + std::to_string(shardId) + ".jobs.jnl";
  }
  return std::make_unique<service::CompressionService>(std::move(sc));
}

u32 ClusterState::liveCount() const {
  u32 n = 0;
  for (const Shard& sh : shards) {
    if (sh.state != ShardState::Down) ++n;
  }
  return n;
}

std::vector<u32> ClusterState::routeCandidatesLocked(
    std::string_view key) const {
  std::vector<u32> out;
  if (ring.shardCount() == 0) return out;
  const std::vector<u32> walk =
      ring.replicasFor(key, static_cast<u32>(ring.shardCount()));
  for (u32 s : walk) {
    if (shards[s].state == ShardState::Up) out.push_back(s);
  }
  for (u32 s : walk) {
    if (shards[s].state == ShardState::Degraded) out.push_back(s);
  }
  return out;
}

std::vector<u32> ClusterState::replicaTargetsLocked(
    const std::string& key) const {
  std::vector<u32> out;
  if (ring.shardCount() == 0) return out;
  const std::vector<u32> walk =
      ring.replicasFor(key, static_cast<u32>(ring.shardCount()));
  for (u32 s : walk) {
    if (shards[s].state == ShardState::Down) continue;
    out.push_back(s);
    if (out.size() >= config.replicas) break;
  }
  return out;
}

service::SubmitResult ClusterState::submitToShardLocked(
    Shard& sh, const ClusterJob& job) {
  if (job.kind == service::JobKind::Decompress) {
    return sh.svc->submitDecompress(job.tenant, ConstByteSpan(job.input),
                                    job.config, job.priority);
  }
  if (job.precision == Precision::F64) {
    return sh.svc->submitCompress<f64>(
        job.tenant,
        std::span<const f64>(
            reinterpret_cast<const f64*>(job.input.data()),
            job.input.size() / sizeof(f64)),
        job.config, job.priority);
  }
  return sh.svc->submitCompress<f32>(
      job.tenant,
      std::span<const f32>(reinterpret_cast<const f32*>(job.input.data()),
                           job.input.size() / sizeof(f32)),
      job.config, job.priority);
}

service::Ticket ClusterState::snapshotInner(
    const std::shared_ptr<ClusterJob>& job) {
  std::lock_guard<std::mutex> lock(mutex);
  return job->inner;
}

void ClusterState::settle(const std::shared_ptr<ClusterJob>& job) {
  std::lock_guard<std::mutex> lock(mutex);
  settleLocked(job);
}

void ClusterState::settleLocked(const std::shared_ptr<ClusterJob>& job) {
  {
    std::lock_guard<std::mutex> jobLock(job->mutex);
    if (job->finished) return;
  }
  if (!job->inner.poll()) return;  // current shard attempt still running
  const service::JobResult& r = job->inner.result();
  switch (r.outcome) {
    case service::Outcome::Completed:
    case service::Outcome::Degraded:
      commitLocked(job, r);
      return;
    case service::Outcome::Canceled:
      // Steal-canceled tickets are swapped out before anyone can observe
      // them as current (see ShardSupervisor::stealLocked), so a current
      // Canceled is either the client's or a kill-cancel (the supervisor
      // cancels a dying shard's queued work before draining it) — the
      // latter falls through to the shard-loss path.
      if (job->clientCanceled) {
        commitLocked(job, r);
        return;
      }
      [[fallthrough]];
    case service::Outcome::Failed:
    case service::Outcome::Abandoned:
      // Failover only when the shard actually died under the job; a
      // failure on a healthy shard already burned the shard-level retry
      // ladder and is genuine.
      if (!job->clientCanceled && !shuttingDown &&
          shards[job->shard].state == ShardState::Down &&
          job->failovers < config.maxJobFailovers &&
          failoverLocked(job)) {
        return;
      }
      if (r.outcome == service::Outcome::Canceled) {
        // A kill-cancel with nowhere left to go is a loss, not a cancel:
        // the client never asked for it.
        service::JobResult lost = r;
        lost.outcome = service::Outcome::Failed;
        lost.canceled = false;
        lost.error = "shard lost: no surviving replica accepted the job";
        commitLocked(job, lost);
        return;
      }
      commitLocked(job, r);
      return;
  }
}

bool ClusterState::failoverLocked(
    const std::shared_ptr<ClusterJob>& job) {
  job->tried.push_back(job->shard);
  for (u32 s : routeCandidatesLocked(job->tenant)) {
    if (std::find(job->tried.begin(), job->tried.end(), s) !=
        job->tried.end()) {
      continue;
    }
    service::SubmitResult sub = submitToShardLocked(shards[s], *job);
    if (!sub.accepted()) continue;
    job->shard = s;
    job->inner = sub.ticket;
    job->failovers += 1;
    stats.failovers += 1;
    bump("cluster.failovers");
    if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
      trace->instant(
          "cluster.failover",
          {telemetry::TraceArg::str("tenant", job->tenant),
           telemetry::TraceArg::num("job_id", static_cast<f64>(job->id)),
           telemetry::TraceArg::num("to_shard", static_cast<f64>(s))});
    }
    return true;
  }
  return false;  // no surviving replica accepted it -> commit the failure
}

void ClusterState::commitLocked(const std::shared_ptr<ClusterJob>& job,
                                const service::JobResult& inner) {
  {
    std::lock_guard<std::mutex> jobLock(job->mutex);
    if (job->finished) return;
    job->result.job = inner;
    job->result.shard = job->shard;
    job->result.failovers = job->failovers;
    job->result.steals = job->steals;
    job->finished = true;
  }
  outstanding.erase(job->id);
  switch (inner.outcome) {
    case service::Outcome::Completed:
      stats.completed += 1;
      bump("cluster.completed");
      break;
    case service::Outcome::Degraded:
      stats.degraded += 1;
      bump("cluster.degraded");
      break;
    case service::Outcome::Canceled:
      stats.canceled += 1;
      bump("cluster.canceled");
      break;
    case service::Outcome::Abandoned:
      stats.abandoned += 1;
      bump("cluster.abandoned");
      break;
    default:
      stats.failed += 1;
      bump("cluster.failed");
      break;
  }
  job->cv.notify_all();
}

std::vector<f64> ClusterState::backlogSecondsLocked() const {
  std::vector<f64> backlog(shards.size(), 0.0);
  for (const auto& [id, job] : outstanding) {
    // Only queued work is movable (and only queued work waits); jobs
    // already executing are charged to nobody.
    if (!job->inner.poll()) {
      backlog[job->shard] +=
          gpusim::modelledPassSeconds(job->input.size(),
                                      shards[job->shard].device);
    }
  }
  return backlog;
}

void ClusterState::bump(const char* name, u64 delta) const {
  telemetry::MetricsRegistry& reg = telemetry::registry();
  if (reg.enabled()) reg.counter(name).add(delta);
}

}  // namespace detail

// ---------------------------------------------------------------------
// ClusterTicket

u64 ClusterTicket::id() const { return job_ == nullptr ? 0 : job_->id; }

bool ClusterTicket::poll() const {
  if (job_ == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(job_->mutex);
    if (job_->finished) return true;
  }
  if (state_->snapshotInner(job_).poll()) {
    state_->settle(job_);
  }
  std::lock_guard<std::mutex> lock(job_->mutex);
  return job_->finished;
}

const ClusterJobResult& ClusterTicket::wait() const {
  require(job_ != nullptr, "ClusterTicket::wait: invalid ticket");
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(job_->mutex);
      if (job_->finished) return job_->result;
    }
    // Wait on the current shard attempt, then settle: either it
    // committed (good outcome / genuine failure) or the shard died and
    // settle installed a fresh attempt on a surviving replica — loop
    // and wait on that one.
    state_->snapshotInner(job_).wait();
    state_->settle(job_);
  }
}

bool ClusterTicket::waitFor(std::chrono::milliseconds timeout) const {
  require(job_ != nullptr, "ClusterTicket::waitFor: invalid ticket");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(job_->mutex);
      if (job_->finished) return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              now);
    if (!state_->snapshotInner(job_).waitFor(
            std::max(remaining, std::chrono::milliseconds(1)))) {
      continue;  // re-check the deadline (and any inner swap) and retry
    }
    state_->settle(job_);
  }
}

const ClusterJobResult& ClusterTicket::result() const {
  require(job_ != nullptr, "ClusterTicket::result: invalid ticket");
  std::lock_guard<std::mutex> lock(job_->mutex);
  require(job_->finished, "ClusterTicket::result: job has not finished");
  return job_->result;
}

bool ClusterTicket::cancel() {
  if (job_ == nullptr) return false;
  service::Ticket inner;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    {
      std::lock_guard<std::mutex> jobLock(job_->mutex);
      if (job_->finished) return false;
    }
    job_->clientCanceled = true;
    inner = job_->inner;
  }
  const bool won = inner.cancel();
  state_->settle(job_);
  return won;
}

// ---------------------------------------------------------------------
// CompressionCluster

CompressionCluster::CompressionCluster(ClusterConfig config) {
  const u32 heartbeatMillis = config.heartbeatMillis;
  state_ = std::make_shared<detail::ClusterState>(std::move(config));
  supervisor_ =
      std::make_unique<ShardSupervisor>(state_, heartbeatMillis);
}

CompressionCluster::~CompressionCluster() { shutdown(); }

ClusterSubmitResult CompressionCluster::submit(
    const std::string& tenant, service::JobKind kind, Precision precision,
    std::vector<std::byte> input, const core::Config& config,
    u8 priority) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->stats.submitted += 1;
  state_->bump("cluster.submitted");

  ClusterSubmitResult out;
  if (state_->shuttingDown) {
    out.reason = service::RejectReason::ShuttingDown;
    out.detail = "cluster is shutting down";
    state_->stats.rejected += 1;
    state_->bump("cluster.rejected");
    return out;
  }

  auto job = std::make_shared<detail::ClusterJob>();
  job->tenant = tenant;
  job->kind = kind;
  job->precision = precision;
  job->config = config;
  job->priority = priority;
  job->input = std::move(input);

  const std::vector<u32> candidates =
      state_->routeCandidatesLocked(tenant);
  bool first = true;
  for (u32 s : candidates) {
    service::SubmitResult sub =
        state_->submitToShardLocked(state_->shards[s], *job);
    if (sub.accepted()) {
      job->id = state_->nextJobId++;
      job->shard = s;
      job->inner = sub.ticket;
      state_->outstanding[job->id] = job;
      state_->stats.accepted += 1;
      state_->bump("cluster.accepted");
      if (!first) {
        state_->stats.spills += 1;
        state_->bump("cluster.spills");
      }
      out.ticket = ClusterTicket(state_, job);
      return out;
    }
    out.reason = sub.reason;
    out.detail = std::move(sub.detail);
    // Quota and breaker rejections are tenant-scoped verdicts from the
    // tenant's primary — spilling them to a replica would just dodge
    // the limit, so they propagate. A full queue spills.
    if (sub.reason != service::RejectReason::QueueFull) break;
    first = false;
  }
  if (candidates.empty()) {
    out.reason = service::RejectReason::ShuttingDown;
    out.detail = "no live shard available";
  }
  state_->stats.rejected += 1;
  state_->bump("cluster.rejected");
  return out;
}

void CompressionCluster::pause() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->paused = true;
  for (auto& sh : state_->shards) {
    if (sh.state != ShardState::Down) sh.svc->pause();
  }
}

void CompressionCluster::resume() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->paused = false;
  for (auto& sh : state_->shards) {
    if (sh.state != ShardState::Down) sh.svc->resume();
  }
}

void CompressionCluster::shutdown() {
  supervisor_->stop();  // no probes once teardown begins
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->shuttingDown) return;
  state_->shuttingDown = true;
  for (auto& sh : state_->shards) {
    if (sh.state != ShardState::Down) sh.svc->shutdown();
  }
  // Every shard drained fully, so every inner ticket is resolved;
  // settle the stragglers (jobs nobody is waiting on) in id order.
  std::vector<std::shared_ptr<detail::ClusterJob>> open;
  open.reserve(state_->outstanding.size());
  for (auto& [id, job] : state_->outstanding) open.push_back(job);
  for (auto& job : open) state_->settleLocked(job);
}

u64 CompressionCluster::heartbeat() { return supervisor_->heartbeat(); }

void CompressionCluster::killShard(u32 shard) {
  supervisor_->killShard(shard);
}

void CompressionCluster::reviveShard(u32 shard) {
  supervisor_->reviveShard(shard);
}

void CompressionCluster::putArchive(const std::string& tenant,
                                    const std::string& name,
                                    ConstByteSpan archive) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  const std::string key = tenant + "/" + name;
  std::vector<std::byte> sealed = io::withParityTrailer(
      std::vector<std::byte>(archive.begin(), archive.end()),
      state_->config.replicaParity);
  state_->catalog[key] = crc32(ConstByteSpan(sealed));
  const std::vector<u32> targets = state_->replicaTargetsLocked(key);
  require(!targets.empty(), "putArchive: no live shard to store on");
  for (u32 s : targets) {
    state_->shards[s].store->put(tenant, name, sealed);
    state_->stats.archiveCopies += 1;
  }
  state_->stats.archivePuts += 1;
  state_->bump("cluster.archive.puts");
  state_->bump("cluster.archive.copies", targets.size());
}

CompressionCluster::ArchiveFetch CompressionCluster::getArchive(
    const std::string& tenant, const std::string& name) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  const std::string key = tenant + "/" + name;
  auto cat = state_->catalog.find(key);
  require(cat != state_->catalog.end(),
          "getArchive: unknown archive " + key);
  const u32 digest = cat->second;

  ArchiveFetch fetch;
  state_->stats.archiveReads += 1;
  state_->bump("cluster.archive.reads");

  // Walk every live shard in ring order; the first copy that is intact
  // (or self-heals via its parity trailer) serves the read. Candidate
  // verification is zero-copy: crcOf chains CRC-32 over the store's
  // chunk views (mirroring the CLI's MappedBytes read sites), so losing
  // candidates are never reassembled — bytes are materialized on the
  // heap only for the winning copy and where repair must mutate.
  const std::vector<u32> walk = state_->routeCandidatesLocked(key);
  bool found = false;
  for (u32 s : walk) {
    cas::BlockStore& store = *state_->shards[s].store;
    if (store.contains(tenant, name)) {
      if (store.crcOf(tenant, name) == digest) {
        fetch.archive = store.get(tenant, name);
        fetch.shard = s;
        found = true;
        break;
      }
      // Single damaged chunks are the parity trailer's job; anything it
      // can't rebuild (or damage inside the trailer itself) makes this
      // copy a failover. Repair mutates, so this path assembles a heap
      // copy (hash verification off: the chunks are known damaged).
      std::vector<std::byte> copy;
      try {
        copy = store.get(tenant, name);
      } catch (const Error&) {
        copy.clear();  // chunk-level damage: nothing to repair in place
      }
      if (!copy.empty()) {
        io::repairParity(copy);
        if (crc32(ConstByteSpan(copy)) == digest) {
          store.put(tenant, name, copy);  // write the healed copy back
          fetch.repairs += 1;
          fetch.archive = std::move(copy);
          fetch.shard = s;
          found = true;
          break;
        }
      }
    }
    fetch.failovers += 1;
    state_->stats.archiveReadFailovers += 1;
    state_->bump("cluster.archive.read_failovers");
  }
  require(found, "getArchive: no intact replica of " + key);

  // Read-repair: restore the replica set to `replicas` intact copies so
  // the next failure starts from full redundancy again (verification
  // again by chained chunk CRC, no reassembly of intact copies).
  for (u32 s : state_->replicaTargetsLocked(key)) {
    cas::BlockStore& store = *state_->shards[s].store;
    if (store.contains(tenant, name) &&
        store.crcOf(tenant, name) == digest) {
      continue;
    }
    store.put(tenant, name, fetch.archive);
    fetch.repairs += 1;
  }
  if (fetch.repairs > 0) {
    state_->stats.archiveRepairs += fetch.repairs;
    state_->bump("cluster.archive.repairs", fetch.repairs);
  }
  return fetch;
}

bool CompressionCluster::deleteArchive(const std::string& tenant,
                                       const std::string& name) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  const std::string key = tenant + "/" + name;
  auto cat = state_->catalog.find(key);
  if (cat == state_->catalog.end()) return false;
  state_->catalog.erase(cat);
  // Every shard's copy goes — Down shards' too, so a revive that runs
  // after this delete finds neither a catalog entry nor a stale object
  // to resurrect. The stores do the refcount GC.
  u64 copies = 0;
  for (auto& sh : state_->shards) {
    if (sh.store->erase(tenant, name)) ++copies;
  }
  state_->stats.archiveDeletes += 1;
  state_->stats.archiveDeleteCopies += copies;
  state_->bump("cluster.archive.deletes");
  state_->bump("cluster.archive.delete_copies", copies);
  return true;
}

cas::StoreStats CompressionCluster::casTotals() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  cas::StoreStats total;
  for (const auto& sh : state_->shards) {
    const cas::StoreStats s = sh.store->stats();
    total.objects += s.objects;
    total.logicalChunks += s.logicalChunks;
    total.uniqueChunks += s.uniqueChunks;
    total.parkedChunks += s.parkedChunks;
    total.logicalBytes += s.logicalBytes;
    total.physicalBytes += s.physicalBytes;
    total.puts += s.puts;
    total.gets += s.gets;
    total.erases += s.erases;
    total.chunkHits += s.chunkHits;
    total.chunkMisses += s.chunkMisses;
    total.refIncs += s.refIncs;
    total.refDecs += s.refDecs;
    total.gcFreedChunks += s.gcFreedChunks;
    total.gcFreedBytes += s.gcFreedBytes;
    total.resurrections += s.resurrections;
    total.compactionMigrations += s.compactionMigrations;
    total.compactionBytesReclaimed += s.compactionBytesReclaimed;
  }
  return total;
}

void CompressionCluster::corruptArchiveCopy(u32 shard,
                                            const std::string& tenant,
                                            const std::string& name,
                                            usize byteOffset) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  require(shard < state_->shards.size(), "corruptArchiveCopy: bad shard");
  require(state_->shards[shard].store->contains(tenant, name),
          "corruptArchiveCopy: shard holds no such copy");
  // The store rewrites the object copy-on-write, so a shared chunk is
  // never damaged for the other replicas referencing it.
  state_->shards[shard].store->corruptForDrill(tenant, name, byteOffset);
}

ClusterStats CompressionCluster::stats() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->stats;
}

u32 CompressionCluster::shardCount() const {
  return static_cast<u32>(state_->shards.size());
}

ShardState CompressionCluster::shardState(u32 shard) const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  require(shard < state_->shards.size(), "shardState: bad shard");
  return state_->shards[shard].state;
}

std::vector<ShardInfo> CompressionCluster::shardInfos() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  std::vector<ShardInfo> out;
  out.reserve(state_->shards.size());
  for (const auto& sh : state_->shards) {
    ShardInfo info;
    info.id = sh.id;
    info.state = sh.state;
    info.device = sh.device.name;
    info.queueDepth = sh.svc->queueDepth();
    info.replayedJobs = sh.svc->replayedJobs().size();
    info.stats = sh.svc->stats();
    out.push_back(std::move(info));
  }
  return out;
}

u32 CompressionCluster::primaryShardFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  const std::vector<u32> candidates =
      state_->routeCandidatesLocked(tenant);
  require(!candidates.empty(), "primaryShardFor: no live shard");
  return candidates.front();
}

}  // namespace cuszp2::cluster
