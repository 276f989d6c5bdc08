// Job-level types of the in-process compression service: what a client
// submits, what it gets back, and the async Ticket handle connecting the
// two. The scheduler internals live in queue.hpp; the service itself in
// service.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/stream.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::service {

/// Operation a job performs.
enum class JobKind : u8 { Compress = 0, Decompress = 1 };

constexpr const char* toString(JobKind k) {
  return k == JobKind::Compress ? "compress" : "decompress";
}

/// Why admission control refused a submission (load shedding — the service
/// never blocks the submitting thread).
enum class RejectReason : u8 {
  /// The admitted-but-unfinished job count is at ServiceConfig::maxQueueDepth.
  QueueFull = 0,
  /// The tenant's outstanding input bytes would exceed its quota.
  QuotaExceeded = 1,
  /// shutdown() has been called; the service no longer accepts work.
  ShuttingDown = 2,
  /// The tenant's circuit breaker is open (too many consecutive failures);
  /// only this tenant is shed, and only until the breaker's cooldown
  /// admits a half-open probe.
  CircuitOpen = 3,
};

constexpr const char* toString(RejectReason r) {
  switch (r) {
    case RejectReason::QueueFull: return "queue-full";
    case RejectReason::QuotaExceeded: return "quota-exceeded";
    case RejectReason::CircuitOpen: return "circuit-open";
    default: return "shutting-down";
  }
}

/// Typed terminal state of a job. Every accepted ticket resolves with
/// exactly one of these (JobResult::outcome) — distinguishing a codec
/// failure from shutdown abandonment, a client cancel, or a salvaged
/// (degraded) decode.
enum class Outcome : u8 {
  /// Ran to completion; outputs are byte-identical to a serial stream call.
  Completed = 0,
  /// Every retry attempt failed; JobResult::error holds the last cause.
  Failed = 1,
  /// Ticket::cancel() won the race against dispatch.
  Canceled = 2,
  /// Still queued when the shutdown(deadline) drain expired; never ran.
  Abandoned = 3,
  /// Decompress retries exhausted, but decompressResilient salvaged the
  /// stream: JobResult::decompressed holds best-effort output and
  /// JobResult::decodeReport says which blocks were quarantined.
  Degraded = 4,
};

constexpr const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Completed: return "completed";
    case Outcome::Failed: return "failed";
    case Outcome::Canceled: return "canceled";
    case Outcome::Abandoned: return "abandoned";
    default: return "degraded";
  }
}

/// Completed (or failed / canceled) outcome of one job. Every accepted
/// ticket eventually carries exactly one of these — jobs abandoned by a
/// shutdown deadline complete with ok == false rather than hanging.
struct JobResult {
  /// Typed terminal state; `ok`/`canceled` below are redundant shorthands
  /// kept for callers that only care about success.
  Outcome outcome = Outcome::Failed;
  bool ok = false;  ///< outcome == Completed
  /// True when Ticket::cancel() won the race against dispatch.
  bool canceled = false;
  /// Failure description when !ok (codec Error, shutdown abandonment, ...).
  std::string error;

  /// Degraded decompress only: per-block salvage verdicts from the
  /// decompressResilient fallback (which blocks were quarantined and why).
  core::DecodeReport decodeReport;

  /// Dispatch attempts this job consumed (1 = first try succeeded;
  /// 0 = never dispatched, i.e. canceled or abandoned).
  u32 attempts = 0;
  /// Times the watchdog recovered this job off a hung worker.
  u32 recoveries = 0;

  /// Compress jobs: the compressed stream + profile, byte-identical to a
  /// serial core::CompressorStream::compress with the same Config.
  core::Compressed compressed;

  /// Decompress jobs: the reconstructed elements as raw little-endian
  /// bytes (decodedElements of Precision-sized values), plus the decode's
  /// modelled kernel profile (compress jobs carry theirs inside
  /// `compressed.profile`).
  std::vector<std::byte> decompressed;
  u64 decodedElements = 0;
  core::KernelProfile decompressProfile;

  std::string tenant;
  JobKind kind = JobKind::Compress;
  u64 jobId = 0;

  /// Global dispatch ordinal (1-based): the order the scheduler started
  /// jobs. Per tenant these are strictly increasing in submission order —
  /// the FIFO-lane guarantee tests assert.
  u64 dispatchSeq = 0;
  /// Jobs coalesced into the fused launch that served this job (1 = ran
  /// alone).
  u32 batchJobs = 0;
  /// Worker index and its device-affine placement.
  u32 worker = 0;
  std::string device;

  f64 waitUs = 0.0;     ///< submission -> dispatch
  f64 serviceUs = 0.0;  ///< dispatch -> completion
};

namespace detail {

/// Lifecycle of a job. Queued -> Running -> Done is the normal path;
/// cancel() moves Queued -> Canceled (jobs already Running cannot be
/// canceled), and recovery paths (service retry, watchdog relaunch) move
/// Running -> Queued again. Because a watchdog-recovered job can briefly
/// have two executions in flight, phase CASes alone are NOT exactly-once;
/// result publication (Job::commit) is the single arbiter of who owns
/// the admission-ledger release.
enum class Phase : u8 { Queued = 0, Running = 1, Done = 2, Canceled = 3 };

/// Admission bookkeeping shared between the service and every outstanding
/// ticket (shared_ptr: tickets may outlive the service). depth counts
/// admitted-but-unfinished jobs; tenantBytes the outstanding input bytes
/// per tenant. cv signals every release so shutdown() can wait for drain.
struct Ledger {
  std::mutex mutex;
  std::condition_variable cv;
  usize depth = 0;
  std::map<std::string, u64> tenantBytes;
  /// service.queue_depth gauge; set by the owning service so cancels (which
  /// go through the ledger, not the service) keep the gauge honest.
  telemetry::Gauge* depthGauge = nullptr;

  void release(const std::string& tenant, u64 bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      depth -= 1;
      if (depthGauge != nullptr) depthGauge->set(static_cast<f64>(depth));
      auto it = tenantBytes.find(tenant);
      if (it != tenantBytes.end()) {
        it->second -= std::min(it->second, bytes);
        if (it->second == 0) tenantBytes.erase(it);
      }
    }
    cv.notify_all();
  }
};

/// One queued unit of work plus its completion channel. Owned jointly by
/// the tenant lane (until dispatch) and the client's Ticket.
struct Job {
  u64 id = 0;
  std::string tenant;
  JobKind kind = JobKind::Compress;
  Precision precision = Precision::F32;
  u8 priority = 0;
  core::Config config;
  /// Compress: raw element bytes; Decompress: the compressed stream.
  std::vector<std::byte> input;
  std::chrono::steady_clock::time_point submitted;
  std::shared_ptr<Ledger> ledger;

  std::atomic<Phase> phase{Phase::Queued};
  /// Dispatch attempts started (incremented as a batch begins executing).
  std::atomic<u32> attempt{0};
  /// Watchdog recoveries performed on this job.
  std::atomic<u32> recoveries{0};
  /// Set (under the scheduler mutex) when a failed or recovered job is
  /// requeued: it must run alone, so one poisoned job cannot re-fail a
  /// whole batch on its retry.
  bool soloOnly = false;

  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;  // under mutex; result is valid once true
  JobResult result;

  /// Durable-intake hook (set by a journaled service at accept time):
  /// the commit winner — finishJob OR a winning Ticket::cancel — calls
  /// it exactly once to append the job's Resolve record. Best-effort by
  /// contract (the hook swallows journal errors): a lost resolve only
  /// re-executes the job at the next recovery.
  std::function<void(u64 jobId, Outcome outcome)> durableResolve;

  /// True when two jobs can share one fused launch (compressBatch or
  /// decompressBatchRaw): same operation, element type, and codec
  /// configuration. Per-field error bounds, headers and payloads are
  /// derived independently inside the batch, so coalescing never changes
  /// a job's output bytes.
  bool batchableWith(const Job& o) const {
    return kind == o.kind && !soloOnly && !o.soloOnly &&
           precision == o.precision && config == o.config;
  }

  /// Commits the result; returns true iff this call won (first
  /// publication). A watchdog-recovered job can race its own relaunched
  /// twin (or a concurrent cancel) here — the loser's result is
  /// discarded, and ONLY the winner releases the admission-ledger slot.
  /// This is the exactly-once commit point of a job. Does NOT wake
  /// waiters: the winner finishes its accounting (stats, circuit
  /// breaker, ledger release) first and then calls notifyWaiters(), so a
  /// client returning from Ticket::wait() always observes the service
  /// state this result implies.
  bool commit(JobResult r) {
    std::lock_guard<std::mutex> lock(mutex);
    if (finished) return false;
    result = std::move(r);
    finished = true;
    return true;
  }

  void notifyWaiters() { cv.notify_all(); }
};

}  // namespace detail

/// Async handle to one submitted job. Copyable and cheap (shared_ptr);
/// safe to wait on after the service has shut down or been destroyed.
class Ticket {
 public:
  Ticket() = default;

  bool valid() const { return job_ != nullptr; }
  u64 id() const { return job_ == nullptr ? 0 : job_->id; }

  /// True once the result is available (completed, failed, canceled or
  /// abandoned). Never blocks.
  bool poll() const {
    if (job_ == nullptr) return false;
    std::lock_guard<std::mutex> lock(job_->mutex);
    return job_->finished;
  }

  /// Blocks until the result is available and returns it. The reference
  /// stays valid for the ticket's lifetime.
  const JobResult& wait() const {
    require(job_ != nullptr, "Ticket::wait: invalid (rejected?) ticket");
    std::unique_lock<std::mutex> lock(job_->mutex);
    job_->cv.wait(lock, [&] { return job_->finished; });
    return job_->result;
  }

  /// Bounded wait; true when the result became available in time.
  bool waitFor(std::chrono::milliseconds timeout) const {
    require(job_ != nullptr, "Ticket::waitFor: invalid (rejected?) ticket");
    std::unique_lock<std::mutex> lock(job_->mutex);
    return job_->cv.wait_for(lock, timeout,
                             [&] { return job_->finished; });
  }

  /// Result accessor once poll()/wait() reported completion.
  const JobResult& result() const {
    require(job_ != nullptr, "Ticket::result: invalid (rejected?) ticket");
    std::lock_guard<std::mutex> lock(job_->mutex);
    require(job_->finished, "Ticket::result: job has not finished");
    return job_->result;
  }

  /// Attempts to cancel before dispatch. On success the ticket completes
  /// immediately with outcome == Canceled and the job's queue-depth and
  /// quota reservations are released at the cancel commit point (winning
  /// the result publication) — never deferred, so a canceled job can't
  /// linger in its tenant's outstanding-byte quota. Returns false when
  /// the job is already running or finished (it will complete normally).
  bool cancel() {
    if (job_ == nullptr) return false;
    detail::Phase expected = detail::Phase::Queued;
    if (!job_->phase.compare_exchange_strong(expected,
                                             detail::Phase::Canceled)) {
      return false;
    }
    JobResult r;
    r.outcome = Outcome::Canceled;
    r.canceled = true;
    r.error = "canceled before dispatch";
    r.tenant = job_->tenant;
    r.kind = job_->kind;
    r.jobId = job_->id;
    // The CAS alone is not the commit: a watchdog-recovered job can be
    // Queued again while its first execution is still in flight, so the
    // cancel can race that execution's completion. commit() arbitrates;
    // whoever wins owns the ledger release — done before waking waiters
    // so the freed quota is visible as soon as the cancel is observable.
    if (!job_->commit(std::move(r))) return false;
    // A canceled job is resolved: record it so a restart won't replay
    // it. Safe lifetime-wise — a cancel can only win while the service
    // is alive (shutdown commits every job before returning).
    if (job_->durableResolve) {
      job_->durableResolve(job_->id, Outcome::Canceled);
    }
    job_->ledger->release(job_->tenant, job_->input.size());
    job_->notifyWaiters();
    return true;
  }

 private:
  friend class CompressionService;
  explicit Ticket(std::shared_ptr<detail::Job> job)
      : job_(std::move(job)) {}

  std::shared_ptr<detail::Job> job_;
};

/// Outcome of a submit call: an accepted ticket, or a typed rejection.
struct SubmitResult {
  Ticket ticket;
  RejectReason reason = RejectReason::QueueFull;  // meaningful iff rejected
  std::string detail;

  bool accepted() const { return ticket.valid(); }
};

}  // namespace cuszp2::service
