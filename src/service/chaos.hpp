// Seeded chaos schedule for service fault drills: a pure function
// (seed, jobId, attempt) -> optional gpusim::FaultPlan, so the same seed
// reproduces the exact same fault injections — and therefore the same
// recovery counters — across runs. Used by tools/chaos_soak and
// `cuszp2 serve --chaos-seed`.
#pragma once

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "gpusim/launcher.hpp"
#include "service/service.hpp"

namespace cuszp2::service {

/// Knobs of a SeededChaosSchedule. Rates are per first dispatch attempt
/// and must sum to <= 1; the remainder is the fault-free probability.
struct ChaosConfig {
  u64 seed = 1;

  f64 bitFlipRate = 0.15;  ///< corrupt the kernel's written bytes
  f64 abortRate = 0.15;    ///< a thread block throws mid-launch
  f64 stallRate = 0.05;    ///< the launch hangs before any block runs
  f64 wedgeRate = 0.05;    ///< a pool worker stops draining mid-grid
  f64 arenaRate = 0.05;    ///< the scratch arena refuses to grow

  u32 bitFlips = 8;             ///< flips per BitFlip fault
  u32 stallTicks = 400;         ///< 1 tick = 1 ms of injected stall
  u32 wedgeTicks = 400;
  /// Below one aligned arena span, so even the smallest operation's first
  /// scratch allocation throws (tiny decompresses use < 256 arena bytes).
  u64 arenaBudgetBytes = 1;

  /// Tenant never injected against (a soak's poison tenant carries its
  /// own pre-corrupted payloads; faulting it too would blur the breaker
  /// assertion).
  std::string exemptTenant;
};

/// Deterministic fault decisions. Only a job's first dispatch attempt
/// may be faulted, so retries always run clean and every job eventually
/// resolves. Copyable by value; the hook() adapter captures a copy, so
/// the schedule may go out of scope.
class SeededChaosSchedule {
 public:
  /// Throws when a rate is negative or NaN or the rates sum past 1.
  explicit SeededChaosSchedule(ChaosConfig config = {});

  /// Pure decision for one dispatch attempt. Identical inputs always
  /// yield the identical plan (mode, parameters and seed); the service
  /// stamps its triggerLaunch.
  std::optional<gpusim::FaultPlan> decide(const ChaosJobInfo& info) const;

  /// Adapter binding decide() as a ServiceConfig::chaosHook (copies this
  /// schedule by value).
  ChaosHook hook() const;

  const ChaosConfig& config() const { return config_; }

 private:
  ChaosConfig config_;
  RateCascade<5> rates_;
};

}  // namespace cuszp2::service
