// Sharded compression cluster: N in-process CompressionService shards
// over a heterogeneous gpusim fleet, glued together by a consistent-hash
// ring (cluster/ring.hpp) and a ShardSupervisor.
//
// Deterministic by construction — no sockets, no wall-clock decisions:
//
//   * Routing: a tenant's jobs go to the first live shard on its ring
//     walk (Up preferred over Degraded, Down skipped). Shard services
//     keep their own FIFO lanes, batching, watchdog/retry/breaker
//     ladder — the cluster layer only decides placement.
//   * Failover: when a shard dies, its queued jobs resolve Abandoned at
//     the shard level (shutdown drain) and the cluster resubmits each to
//     the next untried live replica in ring order, reusing the
//     exactly-once commit: whichever execution publishes first wins, and
//     a job's ClusterTicket resolves exactly once with a typed Outcome.
//     Output bytes are device-independent (DeviceSpec only feeds the
//     timing model), so a failed-over job is byte-identical to a
//     single-shard run.
//   * Replicated archives: putArchive seals each copy with the XOR-
//     parity trailer (io::withParityTrailer) and writes it to the first
//     R live shards on the blob key's ring walk. getArchive verifies
//     CRC-32 digests, self-heals single-chunk damage via repairParity,
//     fails over past missing/corrupt/Down copies, and read-repairs the
//     replica set back to R intact copies.
//   * Supervision: heartbeat() probes every live shard through an
//     optional seeded chaos hook (ShardChaosSchedule — pure in (seed,
//     shard, heartbeat), same contract as service::SeededChaosSchedule),
//     walks the Up -> Degraded -> Down ladder, drains + requeues a dead
//     shard's work, removes it from the ring (only that shard's tenants
//     move — tests assert), and runs placement-cost-aware work stealing
//     from the most-backlogged shard to the idlest one.
//
// docs/SERVICE.md "Cluster topology & failure semantics" is the prose
// spec; docs/OBSERVABILITY.md lists the cluster.* metrics.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cas/block_store.hpp"
#include "cluster/ring.hpp"
#include "common/rng.hpp"
#include "io/archive.hpp"
#include "service/service.hpp"

namespace cuszp2::cluster {

/// Health ladder of one shard. Up shards take new work; Degraded shards
/// are routed around when an Up replica exists but keep their queue;
/// Down shards are drained, removed from the ring, and hold no work.
enum class ShardState : u8 { Up = 0, Degraded = 1, Down = 2 };

constexpr const char* toString(ShardState s) {
  switch (s) {
    case ShardState::Up: return "up";
    case ShardState::Degraded: return "degraded";
    default: return "down";
  }
}

/// One probe verdict for a shard heartbeat (returned by a ShardChaosHook).
struct ShardFault {
  enum class Mode : u8 {
    None = 0,     ///< probe succeeded (a Degraded shard recovers)
    Degrade = 1,  ///< probe slow/flaky: Up -> Degraded, Degraded -> ladder
    Kill = 2,     ///< probe dead: shard goes Down (subject to minShardsUp)
  };
  Mode mode = Mode::None;
};

/// What a ShardChaosHook learns about the probe it may fault.
struct ShardProbeInfo {
  u32 shard = 0;
  /// 1-based heartbeat ordinal (cluster-wide, monotonic).
  u64 heartbeat = 0;
};

/// Consulted once per (shard, heartbeat) by the supervisor. Must be a
/// pure function of its input for reproducible kill schedules.
using ShardChaosHook = std::function<ShardFault(const ShardProbeInfo&)>;

struct ShardChaosConfig {
  u64 seed = 1;
  /// Probability a probe reads Degrade / Kill. Evaluated edge-cascaded
  /// (kill first) from one uniform draw per (seed, shard, heartbeat).
  f64 degradeRate = 0.0;
  f64 killRate = 0.0;
};

/// Seeded shard-probe fault schedule: decide() is pure in (seed, shard,
/// heartbeat), so a run's Degraded/Down transitions — and therefore its
/// failover counters — replay identically for the same seed. The
/// shard-level analogue of service::SeededChaosSchedule.
class ShardChaosSchedule {
 public:
  /// Throws when a rate is negative or NaN or the two sum past 1.
  explicit ShardChaosSchedule(ShardChaosConfig config = {})
      : config_(config),
        rates_({config.killRate, config.degradeRate}, "ShardChaosSchedule") {}

  ShardFault decide(const ShardProbeInfo& info) const;

  /// A copyable hook for ClusterConfig::shardChaos.
  ShardChaosHook hook() const {
    return [schedule = *this](const ShardProbeInfo& info) {
      return schedule.decide(info);
    };
  }

 private:
  ShardChaosConfig config_;
  RateCascade<2> rates_;  ///< kill first, then degrade
};

struct ClusterConfig {
  /// Shard count. Shard i runs one CompressionService built from the
  /// `shard` template with its workers pinned to devices[i].
  u32 shards = 4;

  /// Archive replication factor (primary + followers), clamped to the
  /// live shard count at write time.
  u32 replicas = 2;

  /// Ring geometry (see ConsistentHashRing).
  u32 vnodesPerShard = 64;
  u64 ringSeed = 0xC1A57E12u;

  /// Per-shard service template. `workers` is workers PER SHARD;
  /// `devices` and `startPaused` are overridden per shard from the
  /// fields below.
  service::ServiceConfig shard;

  /// One device per shard; empty = gpusim::heterogeneousFleet(shards)
  /// (A100 / RTX 3090 / RTX 3080 round-robin).
  std::vector<gpusim::DeviceSpec> devices;

  /// Supervisor floor: a Kill verdict is vetoed (stats.killsVetoed)
  /// when honoring it would leave fewer live shards than this.
  u32 minShardsUp = 1;

  /// Consecutive Degrade verdicts that escalate Degraded -> Down.
  u32 degradedProbesToDown = 2;

  /// Cross-shard resubmissions per job (0 = shards - 1).
  u32 maxJobFailovers = 0;

  /// Placement-cost-aware work stealing during heartbeat(): move queued
  /// jobs from the most-backlogged shard to the idlest Up shard while
  /// the move strictly improves the modelled finish time.
  bool workStealing = true;
  f64 stealMarginSeconds = 0.0;
  u32 maxStealsPerHeartbeat = 8;

  /// Start every shard paused (deterministic replay: submit everything,
  /// run heartbeats/kills, then resume()).
  bool startPaused = false;

  /// Probe fault injection (chaos drills); nullptr = every probe is
  /// healthy and only explicit killShard()/reviveShard() change state.
  ShardChaosHook shardChaos;

  /// Parity geometry for sealed archive replicas.
  io::ParityOptions replicaParity{};

  /// Per-shard replica stores: every shard holds its archive copies in a
  /// cas::BlockStore, so replicas of the same sealed bytes — and replicas
  /// of different tenants' identical archives — share physical chunks on
  /// that shard, and reads verify copies by chained CRC over the chunk
  /// views without reassembling them (docs/CAS.md). deferGc here makes
  /// deleteArchive park chunks until a store gc() (resurrection drills).
  cas::StoreConfig replicaStore{};

  /// Drain budget granted to a dying shard's queue before its queued
  /// jobs are abandoned (and failed over). Keep at 0 for deterministic
  /// drills: running jobs still always complete.
  std::chrono::milliseconds shardDrainDeadline{0};

  /// >0: the supervisor probes on its own thread every this many ms.
  /// 0 (default): heartbeats happen only via explicit heartbeat() calls,
  /// which is what deterministic tests and soaks want.
  u32 heartbeatMillis = 0;

  /// Non-empty: durable shard intake (docs/DURABILITY.md). Each shard's
  /// service journals accepted jobs at
  /// `<journalDir>/shard-<id>.jobs.jnl`; a revived shard replays its
  /// accepted-but-unresolved jobs (exactly-once) inside makeService —
  /// i.e. BEFORE it re-joins the ring and before the archive re-sync.
  /// The directory must exist.
  std::string journalDir;
};

/// Monotonic cluster counters. Value-comparable so chaos drills can
/// assert two runs of the same seed produce identical snapshots.
struct ClusterStats {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 rejected = 0;
  u64 completed = 0;   ///< jobs resolved Completed
  u64 failed = 0;      ///< jobs resolved Failed
  u64 degraded = 0;    ///< jobs resolved Degraded (salvaged decode)
  u64 canceled = 0;    ///< jobs resolved Canceled (client cancel)
  u64 abandoned = 0;   ///< jobs resolved Abandoned (cluster shutdown)
  u64 failovers = 0;   ///< cross-shard resubmissions after a shard died
  u64 spills = 0;      ///< submissions placed past a full primary
  u64 steals = 0;      ///< queued jobs moved by work stealing
  u64 heartbeats = 0;
  u64 probeFaults = 0;       ///< Degrade/Kill verdicts observed
  u64 shardDegrades = 0;     ///< Up -> Degraded transitions
  u64 shardRecoveries = 0;   ///< Degraded -> Up transitions
  u64 shardKills = 0;        ///< -> Down transitions
  u64 shardRevives = 0;      ///< Down -> Up transitions
  u64 killsVetoed = 0;       ///< Kill verdicts blocked by minShardsUp
  u64 archivePuts = 0;
  u64 archiveCopies = 0;     ///< replica copies written by puts
  u64 archiveReads = 0;
  u64 archiveReadFailovers = 0;  ///< bad/missing copies skipped by reads
  u64 archiveRepairs = 0;        ///< copies rebuilt (read-repair/revive)
  u64 archiveDeletes = 0;        ///< deleteArchive calls that found the key
  u64 archiveDeleteCopies = 0;   ///< shard copies released by deletes

  bool operator==(const ClusterStats&) const = default;
};

/// Terminal result of one cluster job: the winning shard execution's
/// JobResult plus the cluster-level routing history.
struct ClusterJobResult {
  service::JobResult job;
  u32 shard = 0;      ///< shard whose execution published the result
  u32 failovers = 0;  ///< cross-shard resubmissions this job consumed
  u32 steals = 0;     ///< work-stealing moves this job consumed
};

namespace detail {
struct ClusterJob;
struct ClusterState;
}  // namespace detail

/// Async handle to one cluster job. Copyable; safe to wait on after the
/// cluster has shut down or been destroyed. Waiting drives failover:
/// when the current shard execution resolves badly because its shard
/// died, the waiter resubmits to the next replica and keeps waiting.
class ClusterTicket {
 public:
  ClusterTicket() = default;

  bool valid() const { return job_ != nullptr; }
  u64 id() const;

  /// True once the cluster-level result is available. Never blocks on
  /// job completion (it may briefly contend the cluster mutex).
  bool poll() const;

  /// Blocks until the job resolves (across failovers) and returns the
  /// result. The reference stays valid for the ticket's lifetime.
  const ClusterJobResult& wait() const;

  /// Bounded wait; true when the result became available in time.
  bool waitFor(std::chrono::milliseconds timeout) const;

  /// Result accessor once poll()/wait() reported completion.
  const ClusterJobResult& result() const;

  /// Attempts to cancel before dispatch (forwards to the current shard
  /// ticket). Returns true when the cancel won; false when the job is
  /// already running or finished.
  bool cancel();

 private:
  friend class CompressionCluster;
  ClusterTicket(std::shared_ptr<detail::ClusterState> state,
                std::shared_ptr<detail::ClusterJob> job)
      : state_(std::move(state)), job_(std::move(job)) {}

  std::shared_ptr<detail::ClusterState> state_;
  std::shared_ptr<detail::ClusterJob> job_;
};

/// Outcome of a cluster submit: an accepted ticket or a typed rejection
/// (service::RejectReason — QueueFull only after every live replica
/// refused; quota/breaker rejections are tenant-scoped and propagate
/// from the primary).
struct ClusterSubmitResult {
  ClusterTicket ticket;
  service::RejectReason reason = service::RejectReason::QueueFull;
  std::string detail;

  bool accepted() const { return ticket.valid(); }
};

/// Point-in-time public view of one shard.
struct ShardInfo {
  u32 id = 0;
  ShardState state = ShardState::Up;
  std::string device;
  usize queueDepth = 0;        ///< admitted-but-unfinished at the shard
  u64 replayedJobs = 0;        ///< jobs replayed from the shard journal
  service::ServiceStats stats; ///< the shard service's own counters
};

class ShardSupervisor;

class CompressionCluster {
 public:
  explicit CompressionCluster(ClusterConfig config = {});
  ~CompressionCluster();

  CompressionCluster(const CompressionCluster&) = delete;
  CompressionCluster& operator=(const CompressionCluster&) = delete;

  /// Submits a compression job for `tenant` (input copied; the cluster
  /// retains a copy for failover resubmission).
  template <FloatingPoint T>
  ClusterSubmitResult submitCompress(const std::string& tenant,
                                     std::span<const T> data,
                                     const core::Config& config,
                                     u8 priority = 0) {
    std::vector<std::byte> bytes(data.size() * sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(bytes.data(), data.data(), bytes.size());
    }
    return submit(tenant, service::JobKind::Compress, precisionOf<T>(),
                  std::move(bytes), config, priority);
  }

  ClusterSubmitResult submitDecompress(const std::string& tenant,
                                       ConstByteSpan stream,
                                       const core::Config& config = {},
                                       u8 priority = 0) {
    return submit(tenant, service::JobKind::Decompress, Precision::F32,
                  {stream.begin(), stream.end()}, config, priority);
  }

  /// Pauses/resumes dispatch on every live shard (paused + submit-all +
  /// heartbeat + resume is the deterministic drill recipe).
  void pause();
  void resume();

  /// Stops intake, drains every live shard fully, and resolves every
  /// outstanding ticket. Idempotent; the destructor calls it.
  void shutdown();

  /// One synchronous probe round: chaos verdicts, the Degraded/Down
  /// ladder (kills drain + requeue + rebalance the ring), work stealing,
  /// and per-shard gauge refresh. Returns the heartbeat ordinal.
  u64 heartbeat();

  /// Operator/drill controls: force a shard Down (drain + requeue +
  /// ring rebalance) or bring a Down shard back (fresh service, ring
  /// re-add, archive re-replication).
  void killShard(u32 shard);
  void reviveShard(u32 shard);

  /// Replicated archive store. putArchive seals `archive` with the XOR-
  /// parity trailer and writes it to the first `replicas` live shards on
  /// the blob's ring walk; getArchive returns the sealed bytes (readers
  /// ignore the trailer) from the first intact copy, failing over past
  /// missing/corrupt/Down replicas and read-repairing the set.
  void putArchive(const std::string& tenant, const std::string& name,
                  ConstByteSpan archive);

  struct ArchiveFetch {
    std::vector<std::byte> archive;  ///< sealed bytes (parity trailer on)
    u32 shard = 0;                   ///< replica that served the read
    u32 failovers = 0;               ///< bad/missing copies skipped
    u32 repairs = 0;                 ///< copies rebuilt by this read
  };
  ArchiveFetch getArchive(const std::string& tenant,
                          const std::string& name);

  /// Removes a replicated archive cluster-wide: the catalog entry plus
  /// every shard's copy — Down shards' included, so a later reviveShard
  /// re-replication cannot resurrect deleted data. The shard stores
  /// release the copies' chunk refcounts (refcount GC; chunks still
  /// shared by other archives survive). Returns false for an unknown key.
  bool deleteArchive(const std::string& tenant, const std::string& name);

  /// Sum of every shard store's CAS accounting (dedup hit rate, logical
  /// vs. physical bytes across the whole replica fleet) — what the CLI
  /// cluster health line prints.
  cas::StoreStats casTotals() const;

  /// Chaos-drill hook: flips one byte of a stored replica in place (the
  /// cluster-level analogue of gpusim::FaultPlan bit flips).
  void corruptArchiveCopy(u32 shard, const std::string& tenant,
                          const std::string& name, usize byteOffset);

  ClusterStats stats() const;
  u32 shardCount() const;
  ShardState shardState(u32 shard) const;
  std::vector<ShardInfo> shardInfos() const;
  /// The shard a tenant's next submission routes to (ring primary over
  /// the current membership).
  u32 primaryShardFor(const std::string& tenant) const;

 private:
  ClusterSubmitResult submit(const std::string& tenant,
                             service::JobKind kind, Precision precision,
                             std::vector<std::byte> input,
                             const core::Config& config, u8 priority);

  std::shared_ptr<detail::ClusterState> state_;
  std::unique_ptr<ShardSupervisor> supervisor_;
};

/// Probe + ladder + rebalance engine, split from CompressionCluster so
/// the failure-handling policy reads in one place (supervisor.cpp). The
/// cluster forwards heartbeat()/killShard()/reviveShard() here; with
/// ClusterConfig::heartbeatMillis > 0 it also probes on its own thread.
class ShardSupervisor {
 public:
  ShardSupervisor(std::shared_ptr<detail::ClusterState> state,
                  u32 heartbeatMillis);
  ~ShardSupervisor();

  u64 heartbeat();
  void killShard(u32 shard);
  void reviveShard(u32 shard);
  void stop();

 private:
  void probeShardLocked(u32 shard, u64 heartbeatOrdinal);
  void killShardLocked(u32 shard);
  void stealLocked();
  void refreshGaugesLocked();

  std::shared_ptr<detail::ClusterState> state_;
  std::thread prober_;
  std::mutex proberMutex_;
  std::condition_variable proberCv_;
  bool proberStop_ = false;
};

}  // namespace cuszp2::cluster
