#include "io/crash.hpp"

#include <mutex>
#include <optional>

#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::io {

namespace {

struct Injector {
  std::mutex mu;
  std::optional<CrashPlan> plan;
  u64 planOps = 0;  // matching ops seen since install

  bool counting = false;
  CrashSite countSite = CrashSite::Write;
  std::string countPattern;
  u64 counted = 0;
};

Injector& injector() {
  static Injector g;
  return g;
}

bool pathMatches(const std::string& pattern, const std::string& path) {
  return pattern.empty() || path.find(pattern) != std::string::npos;
}

}  // namespace

void installCrashPlan(const CrashPlan& plan) {
  Injector& g = injector();
  std::lock_guard<std::mutex> lock(g.mu);
  g.plan = plan;
  g.planOps = 0;
}

void clearCrashPlan() {
  Injector& g = injector();
  std::lock_guard<std::mutex> lock(g.mu);
  g.plan.reset();
  g.planOps = 0;
}

bool crashPlanArmed() {
  Injector& g = injector();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.plan.has_value();
}

void startCrashCounting(CrashSite site, const std::string& pathPattern) {
  Injector& g = injector();
  std::lock_guard<std::mutex> lock(g.mu);
  g.counting = true;
  g.countSite = site;
  g.countPattern = pathPattern;
  g.counted = 0;
}

u64 stopCrashCounting() {
  Injector& g = injector();
  std::lock_guard<std::mutex> lock(g.mu);
  g.counting = false;
  return g.counted;
}

CrashAction crashCheckpoint(CrashSite site, const std::string& path,
                            usize pendingBytes) {
  Injector& g = injector();
  std::lock_guard<std::mutex> lock(g.mu);

  if (g.counting && site == g.countSite && pathMatches(g.countPattern, path)) {
    ++g.counted;
  }

  CrashAction action;
  if (!g.plan || site != g.plan->site || !pathMatches(g.plan->pathPattern, path)) {
    return action;
  }
  const u64 op = g.planOps++;
  if (op != g.plan->triggerOp) return action;

  action.fire = true;
  action.mode = g.plan->mode;
  if (site == CrashSite::Write && pendingBytes > 0 &&
      action.mode != CrashMode::Drop) {
    // Seeded, schedule-independent tear shape: prefix length and garbage
    // derive from (seed, op) alone.
    SplitMix64 mix = keyedStream(g.plan->seed, op);
    action.keepBytes = static_cast<usize>(mix.next() % pendingBytes);
    if (action.mode == CrashMode::Tear) {
      const usize tail = pendingBytes - action.keepBytes;
      action.garbage.resize(tail);
      const bool zeros = (mix.next() & 1ULL) != 0;  // zero-filled vs garbage tail
      u64 word = 0;
      for (usize i = 0; i < tail; ++i) {
        if (!zeros) {
          if (i % 8 == 0) word = mix.next();
          action.garbage[i] = static_cast<std::byte>((word >> ((i % 8) * 8)) & 0xff);
        } else {
          action.garbage[i] = std::byte{0};
        }
      }
    }
  }
  telemetry::registry().counter("journal.injected_crashes").add(1);
  return action;
}

void throwCrash(CrashSite site, const std::string& path) {
  throw CrashError(std::string("injected crash at ") + toString(site) + " on " +
                   path);
}

}  // namespace cuszp2::io
