// In-process multi-tenant compression service.
//
// A CompressionService owns N worker threads, each bound to one simulated
// device (gpusim::homogeneousFleet by default) and holding its own warm
// core::CompressorStream. Clients submit compress/decompress jobs tagged
// with a tenant id and receive an async Ticket; a lock-guarded scheduler
// with one FIFO lane per tenant picks the next job by priority then
// round-robin (no tenant can starve another at equal priority), and a
// batching pass coalesces compatible jobs — same kind, same Config, same
// precision — into a single fused compressBatch or decompressBatchRaw
// launch, which the kernel telemetry table accounts as ONE launch (the
// amortization the service exists to win). A solo job runs as a batch of
// one. Output bytes per job are identical to a serial CompressorStream
// call with the same Config.
//
// Admission control sheds load instead of blocking: submissions beyond
// ServiceConfig::maxQueueDepth admitted-but-unfinished jobs, beyond a
// tenant's outstanding-byte quota, or after shutdown() return a typed
// rejection (RejectReason) immediately. shutdown(deadline) stops intake
// and drains accepted work; jobs still queued when the deadline expires
// complete with ok == false rather than hanging their tickets.
//
// Fault tolerance (see docs/SERVICE.md "Failure semantics"): a Watchdog
// thread deadline-monitors in-flight jobs (timeout derived from the
// modelled device timing times a configurable multiplier) and relaunches
// hung work on another worker; a retry policy with exponential seeded-
// jitter backoff wraps the stream-level Config::faultRetries relaunches;
// a per-tenant circuit breaker (closed -> open -> half-open) sheds a
// tenant whose jobs fail consecutively; and decompress jobs that exhaust
// their retries fall back to decompressResilient and resolve with a typed
// Degraded outcome carrying the salvage DecodeReport. A ChaosHook lets
// harnesses (tools/chaos_soak, `serve --chaos-seed`) inject seeded
// gpusim faults per dispatch attempt.
//
// Observability: queue-depth gauge, wait/service-time and batch-size
// histograms, per-tenant counters (see docs/SERVICE.md for the name
// catalogue) and one trace span per job when a TraceSession is active.
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <thread>

#include "cas/block_store.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launcher.hpp"
#include "service/job.hpp"
#include "service/queue.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::service {

/// Deadline monitoring of in-flight jobs. A job's deadline is
/// max(minTimeoutMillis, modelled-execution-seconds * modelledMultiplier)
/// after dispatch; a job still Running past it is requeued to run on
/// whichever worker frees up first (usually a different one — the hung
/// worker is by definition busy). The original execution is not killed
/// (threads can't be safely killed); instead, whichever execution
/// finishes first publishes the result and the loser is discarded —
/// safe because executions are deterministic and side-effect-free.
struct WatchdogConfig {
  bool enabled = true;
  /// Scan period of the watchdog thread.
  u32 pollMillis = 5;
  /// Deadline floor (host wall clock). Generous by default so only
  /// genuinely wedged work trips it even under sanitizers.
  u32 minTimeoutMillis = 2000;
  /// Wall-clock budget as a multiple of the job's modelled device
  /// seconds (the host simulation runs orders of magnitude slower than
  /// the modelled GPU, hence the large default).
  f64 modelledMultiplier = 20000.0;
  /// Recoveries per job before the watchdog leaves it alone (bounds the
  /// number of concurrent duplicate executions to maxRecoveries + 1).
  u32 maxRecoveries = 1;
};

/// Service-level retry of failed executions, wrapping the stream-level
/// Config::faultRetries relaunch budget: a job gets up to
/// maxAttempts * (faultRetries + 1) kernel launches in the worst case.
struct RetryConfig {
  /// Total dispatch attempts per job (1 = no service-level retry).
  u32 maxAttempts = 2;
  /// Backoff before attempt k is requeued: uniform in
  /// (0, min(backoffBaseMillis * 2^(k-1), backoffCapMillis)] with
  /// deterministic jitter seeded by (jitterSeed, job id, attempt).
  u32 backoffBaseMillis = 1;
  u32 backoffCapMillis = 50;
  u64 jitterSeed = 0x7a0b;
};

/// Per-tenant circuit breaker: `threshold` consecutive failures open the
/// circuit (submissions rejected with RejectReason::CircuitOpen); after
/// cooldownMillis the breaker goes half-open and admits one probe per
/// cooldown window; `probeSuccesses` successful probes close it again,
/// while a failed probe reopens it.
struct BreakerConfig {
  /// Consecutive failures that open a tenant's circuit (0 disables).
  u32 threshold = 8;
  u32 cooldownMillis = 250;
  u32 probeSuccesses = 1;
};

enum class BreakerState : u8 { Closed = 0, Open = 1, HalfOpen = 2 };

constexpr const char* toString(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    default: return "half-open";
  }
}

/// What a ChaosHook learns about the dispatch attempt it may fault.
struct ChaosJobInfo {
  u64 jobId = 0;
  std::string_view tenant;
  /// 0-based dispatch attempt (service retries and watchdog relaunches
  /// increment it).
  u32 attempt = 0;
};

/// Consulted once per dispatched batch (for its head job) when set. A
/// returned plan is armed on the executing worker's stream for exactly
/// that execution: the service stamps its triggerLaunch with the
/// stream's next launch, so the fault fires on the operation's first
/// kernel. Must be a pure function of its input for reproducible chaos
/// runs (see SeededChaosSchedule in service/chaos.hpp). Called
/// concurrently from worker threads.
using ChaosHook =
    std::function<std::optional<gpusim::FaultPlan>(const ChaosJobInfo&)>;

struct ServiceConfig {
  /// Worker threads; worker i is pinned to devices[i % devices.size()].
  u32 workers = 2;

  /// Admitted-but-unfinished job cap. The cap is checked at submission
  /// with no scheduler involvement, so rejection is deterministic: the
  /// (maxQueueDepth + 1)-th outstanding submission is refused.
  usize maxQueueDepth = 256;

  /// Outstanding input bytes allowed per tenant (0 = unlimited).
  u64 tenantQuotaBytes = 0;

  /// Jobs a single fused launch may serve (1 disables coalescing).
  u32 maxBatchJobs = 8;

  /// Total input bytes a fused launch may cover (bounds staging growth).
  u64 maxBatchBytes = u64{64} << 20;

  /// Device-affine worker placement; empty = homogeneousFleet of A100s,
  /// one per worker.
  std::vector<gpusim::DeviceSpec> devices;

  /// Start with the scheduler paused (tests and deterministic replay:
  /// submit everything, then resume() to drain with a fully known queue).
  bool startPaused = false;

  WatchdogConfig watchdog;
  RetryConfig retry;
  BreakerConfig breaker;

  /// When a decompress job exhausts its retries, fall back to
  /// decompressResilient and resolve with Outcome::Degraded (salvaged
  /// output + DecodeReport) instead of Outcome::Failed.
  bool degradedDecode = true;

  /// Optional seeded fault injection per dispatch attempt (chaos drills).
  ChaosHook chaosHook;

  /// Optional content-addressed store. When set, putObject/getObject/
  /// eraseObject route tenants' named objects through it: each tenant
  /// keeps its own logical namespace while identical bytes across
  /// tenants share physical chunks (docs/CAS.md). Shared so the CLI and
  /// a CompactionWorker can hold the same store.
  std::shared_ptr<cas::BlockStore> store;

  /// Non-empty: durable intake (docs/DURABILITY.md). Every accepted
  /// submission is journaled (and synced) at this path before its
  /// ticket is returned, and resolved jobs append their Outcome; a
  /// restarted service replays accepted-but-unresolved jobs exactly-once
  /// (replayedJobs()) before taking new work. A damaged journal header
  /// throws from the constructor (unrecoverable).
  std::string jobJournalPath;
};

/// One job the constructor replayed from the job journal: the id it had
/// in its previous life, plus the live ticket of its resubmission.
struct ReplayedJob {
  u64 originalJobId = 0;
  Ticket ticket;
};

/// Point-in-time counters snapshot (monotonic except queueDepth).
struct ServiceStats {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 rejectedQueueFull = 0;
  u64 rejectedQuota = 0;
  u64 rejectedShutdown = 0;
  u64 rejectedCircuitOpen = 0;
  u64 completed = 0;  ///< finished ok
  u64 failed = 0;     ///< finished with an error
  u64 abandoned = 0;  ///< queued past the shutdown deadline
  u64 degraded = 0;   ///< resolved via the decompressResilient fallback
  u64 dispatched = 0; ///< jobs handed to a worker
  u64 batches = 0;    ///< fused launches (execute() passes)
  usize queueDepth = 0;  ///< admitted-but-unfinished right now

  // Fault-tolerance counters. Deterministic for a fixed chaos seed and
  // schedule — tools/chaos_soak asserts run-to-run equality.
  u64 watchdogRecoveries = 0;  ///< hung jobs requeued by the watchdog
  u64 retries = 0;             ///< failed executions requeued for retry
  u64 retriesExhausted = 0;    ///< jobs that burned every attempt
  u64 batchSplits = 0;         ///< failed batches split into solo retries
  u64 breakerOpens = 0;        ///< circuit-open transitions (incl. reopens)
  u64 chaosInjected = 0;       ///< faults armed by the chaos hook
  u64 streamFaultsDetected = 0;   ///< in-stream detections (all workers)
  u64 streamFaultRelaunches = 0;  ///< in-stream relaunches (all workers)

  /// Launches the batching scheduler saved versus one launch per job.
  u64 launchesSaved() const {
    return dispatched >= batches ? dispatched - batches : 0;
  }
};

class CompressionService {
 public:
  explicit CompressionService(ServiceConfig config = {});
  ~CompressionService();

  CompressionService(const CompressionService&) = delete;
  CompressionService& operator=(const CompressionService&) = delete;

  /// Submits a compression job (the input is copied). Lower `priority`
  /// values run earlier across tenants; order within a tenant is always
  /// submission order.
  template <FloatingPoint T>
  SubmitResult submitCompress(const std::string& tenant,
                              std::span<const T> data,
                              const core::Config& config,
                              u8 priority = 0) {
    std::vector<std::byte> bytes(data.size() * sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(bytes.data(), data.data(), bytes.size());
    }
    return submit(tenant, JobKind::Compress, precisionOf<T>(),
                  std::move(bytes), config, priority);
  }

  /// Submits a decompression job (the stream is copied; precision comes
  /// from the stream header at execution time). `config` carries the
  /// execution knobs (blocksPerTile, syncAlgorithm, faultRetries).
  SubmitResult submitDecompress(const std::string& tenant,
                                ConstByteSpan stream,
                                const core::Config& config = {},
                                u8 priority = 0) {
    return submit(tenant, JobKind::Decompress, Precision::F32,
                  {stream.begin(), stream.end()}, config, priority);
  }

  /// Stops/resumes dispatch (submissions stay open). Paused + submit-all +
  /// resume gives deterministic batch formation.
  void pause();
  void resume();

  /// Stops intake and drains accepted work. With a deadline, jobs still
  /// queued when it expires finish with ok == false ("abandoned") instead
  /// of running; jobs already on a worker always complete. Returns true
  /// when every accepted job actually ran. Idempotent; the destructor
  /// calls shutdown() with no deadline (full drain).
  bool shutdown();
  bool shutdown(std::chrono::milliseconds drainDeadline);

  ServiceStats stats() const;
  usize queueDepth() const;
  u32 workerCount() const {
    return static_cast<u32>(workers_.size());
  }
  const std::vector<gpusim::DeviceSpec>& devices() const {
    return devices_;
  }

  /// Current breaker state for a tenant (Closed when never tripped).
  /// Open -> HalfOpen transitions happen lazily on the next submission
  /// after the cooldown, so a cooled-down breaker still reads Open here
  /// until someone probes it.
  BreakerState breakerState(const std::string& tenant) const;

  /// The tenant's outstanding (admitted-but-unfinished) input bytes.
  u64 tenantOutstandingBytes(const std::string& tenant) const;

  // ---- durable intake (ServiceConfig::jobJournalPath) -----------------

  /// Jobs the constructor found accepted-but-unresolved in the journal
  /// and resubmitted (exactly-once, original id order). Empty when the
  /// journal was clean or durable intake is off. Stable for the
  /// service's lifetime.
  const std::vector<ReplayedJob>& replayedJobs() const {
    return replayedJobs_;
  }

  /// Live job-journal accounting (attached == false without durability).
  io::JournalStatus jobJournalStatus() const;

  // ---- content-addressed object path (ServiceConfig::store) ----------

  /// The attached CAS, or nullptr when the service runs without one.
  const std::shared_ptr<cas::BlockStore>& store() const {
    return config_.store;
  }

  /// Stores a tenant's named object through the CAS (cross-tenant dedup;
  /// see cas::BlockStore::put). Throws when no store is attached.
  cas::PutResult putObject(const std::string& tenant,
                           const std::string& name, ConstByteSpan bytes);

  /// Fetches a tenant's named object from the CAS, chunk hashes verified.
  std::vector<std::byte> getObject(const std::string& tenant,
                                   const std::string& name) const;

  /// Drops a tenant's named object (refcount GC in the store). Returns
  /// false when the tenant never stored that name.
  bool eraseObject(const std::string& tenant, const std::string& name);

 private:
  struct Instruments {
    telemetry::Counter* submitted;
    telemetry::Counter* accepted;
    telemetry::Counter* completed;
    telemetry::Counter* failed;
    telemetry::Counter* abandoned;
    telemetry::Counter* degraded;
    telemetry::Counter* rejectedQueueFull;
    telemetry::Counter* rejectedQuota;
    telemetry::Counter* rejectedShutdown;
    telemetry::Counter* rejectedCircuitOpen;
    telemetry::Counter* batches;
    telemetry::Counter* jobsDispatched;
    telemetry::Counter* watchdogRecoveries;
    telemetry::Counter* retries;
    telemetry::Counter* retriesExhausted;
    telemetry::Counter* batchSplits;
    telemetry::Counter* breakerOpens;
    telemetry::Counter* chaosInjected;
    telemetry::Histogram* waitUs;
    telemetry::Histogram* serviceUs;
    telemetry::Histogram* batchJobs;
  };

  /// Per-tenant circuit breaker record (under breakerMutex_).
  struct Breaker {
    BreakerState state = BreakerState::Closed;
    u32 consecutiveFailures = 0;
    u32 probeSuccesses = 0;
    /// Open: when half-open probing may begin.
    std::chrono::steady_clock::time_point reopenAt{};
    /// HalfOpen: earliest next probe admission (one probe per window).
    std::chrono::steady_clock::time_point nextProbeAt{};
  };

  /// Watchdog bookkeeping for one dispatched job (under watchdogMutex_).
  struct InFlight {
    std::shared_ptr<detail::Job> job;
    std::chrono::steady_clock::time_point deadline;
  };

  SubmitResult submit(const std::string& tenant, JobKind kind,
                      Precision precision, std::vector<std::byte> input,
                      const core::Config& config, u8 priority,
                      u64 supersedesId = 0);
  SubmitResult reject(RejectReason reason, std::string detail,
                      const std::string& tenant);

  /// Constructor-time job-journal recovery: replays accepted-unresolved
  /// jobs, resubmits them (superseding their old ids), and leaves the
  /// journal open for appending.
  void recoverJobJournal();

  bool shutdownImpl(std::optional<std::chrono::milliseconds> deadline);

  void workerLoop(u32 worker);
  /// Runs one dispatched batch. `dispatchSeqs[i]` is batch[i]'s global
  /// dispatch ordinal, drawn under the scheduler mutex; it travels with
  /// this execution rather than on the shared Job, which a watchdog twin
  /// may be dispatching again on another worker meanwhile.
  void execute(std::vector<std::shared_ptr<detail::Job>>& batch,
               const std::vector<u64>& dispatchSeqs,
               core::CompressorStream& stream, u32 worker);
  template <FloatingPoint T>
  void runCompress(std::vector<std::shared_ptr<detail::Job>>& batch,
                   core::CompressorStream& stream,
                   std::vector<JobResult>& results);
  void runDecompress(std::vector<std::shared_ptr<detail::Job>>& batch,
                     core::CompressorStream& stream,
                     std::vector<JobResult>& results);
  void runDegradedDecode(detail::Job& job, core::CompressorStream& stream,
                         JobResult& result, const std::string& failure);
  void finishJob(detail::Job& job, JobResult result, bool abandoned);

  // Fault-tolerance machinery.
  void armChaosPlan(core::CompressorStream& stream,
                     std::optional<gpusim::FaultPlan> plan);
  void requeueSolo(std::shared_ptr<detail::Job> job);
  /// Requeues a job whose phase the caller already moved back to Queued,
  /// or — once the shutdown drain has abandoned the lanes — resolves it
  /// as Outcome::Abandoned instead of re-entering the queue.
  void requeueOrAbandon(std::shared_ptr<detail::Job> job);
  void backoffSleep(u64 jobId, u32 attempt) const;
  void watchdogLoop();
  void watchdogWatch(const std::vector<std::shared_ptr<detail::Job>>& batch,
                     std::chrono::steady_clock::time_point dispatched,
                     const gpusim::DeviceSpec& device);
  void watchdogForget(u64 jobId);
  std::chrono::milliseconds jobTimeout(
      const detail::Job& job, const gpusim::DeviceSpec& device) const;
  bool breakerAdmits(const std::string& tenant, std::string* detail);
  void recordBreakerOutcome(const std::string& tenant, bool success);
  void setBreakerState(const std::string& tenant, Breaker& breaker,
                       BreakerState state);

  ServiceConfig config_;
  std::vector<gpusim::DeviceSpec> devices_;
  std::shared_ptr<detail::Ledger> ledger_;
  Instruments instruments_;

  /// Durable intake (nullptr without jobJournalPath). Created — and any
  /// previous life's pending jobs replayed — before workers spawn, so
  /// replayed work is first in line.
  std::unique_ptr<io::JournalWriter> jobJournal_;
  std::vector<ReplayedJob> replayedJobs_;

  mutable std::mutex mutex_;          // scheduler state below
  std::condition_variable workCv_;
  detail::TenantLanes lanes_;
  bool paused_ = false;
  /// Atomic so submit() can shed ShuttingDown loads without mutex_; the
  /// authoritative flip (and the final re-check before enqueue) happen
  /// under mutex_.
  std::atomic<bool> accepting_{true};
  bool stopping_ = false;
  /// Set (under mutex_) the moment the shutdown-deadline drain empties
  /// the lanes: any requeue that lands afterwards (a watchdog twin or a
  /// retry waking from backoff) must resolve its job as Abandoned rather
  /// than slip back into a queue the drain already swept.
  bool requeuesAbandon_ = false;
  u64 nextJobId_ = 1;
  u64 dispatchSeq_ = 0;

  // Shutdown is serialized (idempotent for concurrent callers).
  std::mutex shutdownMutex_;
  bool shutdownDone_ = false;
  bool drained_ = true;

  // Watchdog state. The map is keyed by job id; entries for jobs no
  // longer Running are reaped lazily during scans.
  mutable std::mutex watchdogMutex_;
  std::condition_variable watchdogCv_;
  bool watchdogStop_ = false;
  std::map<u64, InFlight> inFlight_;
  std::thread watchdog_;

  // Circuit-breaker state, lazily created per tenant.
  mutable std::mutex breakerMutex_;
  std::map<std::string, Breaker> breakers_;

  std::atomic<u64> statSubmitted_{0};
  std::atomic<u64> statAccepted_{0};
  std::atomic<u64> statRejectedQueueFull_{0};
  std::atomic<u64> statRejectedQuota_{0};
  std::atomic<u64> statRejectedShutdown_{0};
  std::atomic<u64> statRejectedCircuitOpen_{0};
  std::atomic<u64> statCompleted_{0};
  std::atomic<u64> statFailed_{0};
  std::atomic<u64> statAbandoned_{0};
  std::atomic<u64> statDegraded_{0};
  std::atomic<u64> statDispatched_{0};
  std::atomic<u64> statBatches_{0};
  std::atomic<u64> statWatchdogRecoveries_{0};
  std::atomic<u64> statRetries_{0};
  std::atomic<u64> statRetriesExhausted_{0};
  std::atomic<u64> statBatchSplits_{0};
  std::atomic<u64> statBreakerOpens_{0};
  std::atomic<u64> statChaosInjected_{0};
  std::atomic<u64> statStreamFaultsDetected_{0};
  std::atomic<u64> statStreamFaultRelaunches_{0};

  std::vector<std::thread> workers_;
};

}  // namespace cuszp2::service
