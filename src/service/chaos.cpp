#include "service/chaos.hpp"

#include <algorithm>

namespace cuszp2::service {

SeededChaosSchedule::SeededChaosSchedule(ChaosConfig config)
    : config_(std::move(config)),
      rates_({config_.bitFlipRate, config_.abortRate, config_.stallRate,
              config_.wedgeRate, config_.arenaRate},
             "SeededChaosSchedule") {}

std::optional<gpusim::FaultPlan> SeededChaosSchedule::decide(
    const ChaosJobInfo& info) const {
  if (info.attempt != 0) return std::nullopt;  // retries run clean
  if (!config_.exemptTenant.empty() &&
      info.tenant == config_.exemptTenant) {
    return std::nullopt;
  }

  SplitMix64 mix = keyedStream(config_.seed, info.jobId);
  Rng rng(mix.next());
  gpusim::FaultPlan plan;
  switch (rates_.pick(rng.uniform())) {
    case 0: plan.bitFlips = std::max<u32>(1, config_.bitFlips); break;
    case 1: plan.abortBlock = 0; break;
    case 2: plan.stallTicks = std::max<u32>(1, config_.stallTicks); break;
    case 3: plan.wedgeTicks = std::max<u32>(1, config_.wedgeTicks); break;
    case 4:
      plan.arenaBudgetBytes = std::max<u64>(1, config_.arenaBudgetBytes);
      break;
    default: return std::nullopt;  // clean attempt
  }
  plan.seed = mix.next();  // bit-flip positions etc., also deterministic
  return plan;
}

ChaosHook SeededChaosSchedule::hook() const {
  return [schedule = *this](const ChaosJobInfo& info) {
    return schedule.decide(info);
  };
}

}  // namespace cuszp2::service
