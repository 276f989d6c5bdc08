// Failure-path tests: exceptions inside simulated kernels must abort the
// whole launch cleanly (no deadlock, no std::terminate, root cause
// preserved), and corrupted compressed streams must be rejected or decoded
// defensively — never crash or read out of bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/lorenzo_nd.hpp"
#include "core/quantizer.hpp"
#include "core/segmented.hpp"
#include "datagen/fields.hpp"
#include "gpusim/launcher.hpp"
#include "scan/lookback.hpp"

namespace cuszp2 {
namespace {

// ---- Launcher abort propagation --------------------------------------------

TEST(FaultInjection, ExceptionInBlockIsRethrown) {
  gpusim::Launcher launcher;
  EXPECT_THROW(launcher.launch(16,
                               [](gpusim::BlockCtx& ctx) {
                                 if (ctx.blockIdx == 7) {
                                   throw Error("boom");
                                 }
                               }),
               Error);
}

TEST(FaultInjection, RootCauseIsPreservedOverAbortErrors) {
  gpusim::Launcher launcher;
  try {
    launcher.launch(8, [](gpusim::BlockCtx& ctx) {
      if (ctx.blockIdx == 3) throw Error("root cause");
    });
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

// A block throws while a later block spin-waits on its lookback publish:
// the abort flag must release the spinner (this deadlocks without abort
// propagation).
TEST(FaultInjection, LookbackSpinnersUnwindOnAbort) {
  gpusim::Launcher launcher;
  scan::LookbackState state(64);
  EXPECT_THROW(
      launcher.launch(
          64,
          [&](gpusim::BlockCtx& ctx) {
            if (ctx.blockIdx == 10) {
              throw Error("failing block");  // never publishes
            }
            state.processTile(ctx.blockIdx, 1, ctx.sync, ctx.mem);
          },
          1),
      Error);
}

TEST(FaultInjection, LauncherIsReusableAfterAbort) {
  gpusim::Launcher launcher;
  EXPECT_THROW(
      launcher.launch(4, [](gpusim::BlockCtx&) { throw Error("x"); }),
      Error);
  std::atomic<int> count{0};
  launcher.launch(4, [&](gpusim::BlockCtx&) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(FaultInjection, QuantizerOverflowAbortsCompressionCleanly) {
  core::Config cfg;
  cfg.absErrorBound = 1e-15;  // far too tight for the data range
  const core::Compressor comp(cfg);
  std::vector<f32> data(4096, 1.0e6f);
  EXPECT_THROW(comp.compress<f32>(data), Error);
}

// ---- Stream corruption fuzzing ---------------------------------------------

struct CorpusFixture {
  std::vector<f32> data;
  std::vector<std::byte> stream;

  CorpusFixture() {
    data = datagen::generateF32("scale", 2, 1 << 12);
    core::Config cfg;
    cfg.relErrorBound = 1e-3;
    stream = core::Compressor(cfg).compress<f32>(data).stream;
  }
};

// Any single-byte corruption of the offset array must either throw
// cuszp2::Error or produce a (wrong, but bounded) decode — never crash,
// hang, or read out of bounds.
TEST(FaultInjection, FuzzOffsetBytes) {
  const CorpusFixture fx;
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  const core::Compressor comp(cfg);
  const auto header = core::StreamHeader::parse(fx.stream);
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = fx.stream;
    const usize pos = core::StreamHeader::offsetsBegin() +
                      rng.uniformInt(header.numBlocks());
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    try {
      const auto d = comp.decompress<f32>(corrupted);
      EXPECT_EQ(d.data.size(), fx.data.size());
    } catch (const Error&) {
      // Rejection is an acceptable outcome.
    }
  }
}

// Same for payload bytes: corrupt values decode to wrong numbers, but the
// decoder must stay in bounds.
TEST(FaultInjection, FuzzPayloadBytes) {
  const CorpusFixture fx;
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  const core::Compressor comp(cfg);
  const auto header = core::StreamHeader::parse(fx.stream);
  Rng rng(43);
  const usize payloadBegin = header.payloadBegin();
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = fx.stream;
    const usize pos =
        payloadBegin + rng.uniformInt(corrupted.size() - payloadBegin);
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    try {
      const auto d = comp.decompress<f32>(corrupted);
      EXPECT_EQ(d.data.size(), fx.data.size());
    } catch (const Error&) {
    }
  }
}

// Random truncations anywhere in the stream.
TEST(FaultInjection, FuzzTruncation) {
  const CorpusFixture fx;
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  const core::Compressor comp(cfg);
  Rng rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    auto truncated = fx.stream;
    truncated.resize(rng.uniformInt(truncated.size()));
    try {
      (void)comp.decompress<f32>(truncated);
    } catch (const Error&) {
    }
  }
}

// Header-field fuzzing: flipped header bytes must be rejected by parse or
// decode, not trusted.
TEST(FaultInjection, FuzzHeaderBytes) {
  const CorpusFixture fx;
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  const core::Compressor comp(cfg);
  Rng rng(45);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = fx.stream;
    const usize pos = rng.uniformInt(core::StreamHeader::kBytes);
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    try {
      (void)comp.decompress<f32>(corrupted);
    } catch (const Error&) {
    }
  }
}

// Pure random garbage must never crash the parser.
TEST(FaultInjection, FuzzGarbageStreams) {
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  const core::Compressor comp(cfg);
  Rng rng(46);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> junk(rng.uniformInt(512));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniformInt(256));
    }
    EXPECT_THROW((void)comp.decompress<f32>(junk), Error) << trial;
  }
}

// With checksums on, *every* corruption (not just structural ones) must be
// detected.
TEST(FaultInjection, ChecksumCatchesAllPayloadCorruption) {
  const auto data = datagen::generateF32("scale", 2, 1 << 12);
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  cfg.checksum = true;
  const core::Compressor comp(cfg);
  const auto c = comp.compress<f32>(data);
  Rng rng(47);
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = c.stream;
    const usize pos =
        core::StreamHeader::offsetsBegin() +
        rng.uniformInt(corrupted.size() - core::StreamHeader::offsetsBegin());
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    EXPECT_THROW((void)comp.decompress<f32>(corrupted), Error) << trial;
  }
}

// ND streams: corrupted headers/payloads must be rejected or decoded in
// bounds, never crash.
TEST(FaultInjection, FuzzNdStreams) {
  const core::Dims3 grid{24, 12, 8};
  const auto data = datagen::generateF32("rtm", 1, grid.count());
  core::NdConfig cfg;
  cfg.relErrorBound = 1e-3;
  const core::NdCompressor comp(cfg);
  const auto c = comp.compress<f32>(data, grid);
  Rng rng(48);
  for (int trial = 0; trial < 150; ++trial) {
    auto corrupted = c.stream;
    const usize pos = rng.uniformInt(corrupted.size());
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    try {
      const auto rec = comp.decompress<f32>(corrupted);
      EXPECT_EQ(rec.size(), data.size());
    } catch (const Error&) {
    }
  }
}

// ---- Seeded soft-error injection + detect-and-retry ------------------------

TEST(FaultPlan, InjectionIsSeededAndDeterministic) {
  std::vector<std::byte> target(1024, std::byte{0});
  gpusim::FaultPlan plan;
  plan.seed = 7;
  plan.triggerLaunch = 0;
  plan.bitFlips = 8;

  const auto runOnce = [&] {
    std::fill(target.begin(), target.end(), std::byte{0});
    gpusim::Launcher launcher;
    launcher.setFaultPlan(plan);
    const auto result =
        launcher.launch(4, [](gpusim::BlockCtx&) {}, 0, target);
    EXPECT_EQ(result.injectedBitFlips, plan.bitFlips);
    return target;
  };
  const auto first = runOnce();
  const auto second = runOnce();
  EXPECT_EQ(first, second);  // same seed -> same damaged bytes

  u32 flippedBits = 0;
  for (const auto b : first) {
    flippedBits += std::popcount(std::to_integer<u32>(b));
  }
  EXPECT_GT(flippedBits, 0u);
  EXPECT_LE(flippedBits, plan.bitFlips);  // collisions can cancel
}

TEST(FaultPlan, FiresOnlyOnTriggerLaunch) {
  std::vector<std::byte> target(256, std::byte{0});
  gpusim::Launcher launcher;
  gpusim::FaultPlan plan;
  plan.triggerLaunch = 1;
  plan.bitFlips = 4;
  launcher.setFaultPlan(plan);

  auto r = launcher.launch(2, [](gpusim::BlockCtx&) {}, 0, target);
  EXPECT_EQ(r.injectedBitFlips, 0u);  // launch 0: not yet
  r = launcher.launch(2, [](gpusim::BlockCtx&) {}, 0, target);
  EXPECT_EQ(r.injectedBitFlips, 4u);  // launch 1: fires
  r = launcher.launch(2, [](gpusim::BlockCtx&) {}, 0, target);
  EXPECT_EQ(r.injectedBitFlips, 0u);  // launch 2: non-sticky, disarmed
}

// The service's chaos trace names a plan's mode from the plan itself.
TEST(FaultPlan, ModeNameFollowsTheArmedField) {
  gpusim::FaultPlan plan;
  EXPECT_STREQ(gpusim::faultModeName(plan), "none");
  plan.arenaBudgetBytes = 1;
  EXPECT_STREQ(gpusim::faultModeName(plan), "arena_exhaust");
  plan = {};
  plan.wedgeTicks = 1;
  EXPECT_STREQ(gpusim::faultModeName(plan), "wedge");
  plan = {};
  plan.stallTicks = 1;
  EXPECT_STREQ(gpusim::faultModeName(plan), "stall");
  plan = {};
  plan.abortBlock = 0;
  EXPECT_STREQ(gpusim::faultModeName(plan), "abort");
  plan = {};
  plan.bitFlips = 1;
  EXPECT_STREQ(gpusim::faultModeName(plan), "bit_flip");
}

struct RetryFixture {
  std::vector<f32> data = datagen::generateF32("scale", 2, 1 << 12);
  core::CompressorStream stream;

  RetryFixture() : stream(makeConfig()) {}

  static core::Config makeConfig() {
    core::Config cfg;
    cfg.absErrorBound = 1e-2;
    cfg.checksum = true;
    cfg.blockChecksums = true;
    cfg.faultRetries = 2;
    return cfg;
  }

  /// Arms `plan` to fire on the next launch issued through the stream.
  void armNext(gpusim::FaultPlan plan) {
    plan.triggerLaunch = stream.launcher().launchCount();
    stream.launcher().setFaultPlan(plan);
  }
};

// Acceptance path: a seeded bit-flip lands in decompression output, the
// post-launch write-digest check catches it, and one relaunch absorbs it.
// Decompression faults always hit digest-covered bytes (the target is
// exactly the output array), so detection is deterministic.
TEST(FaultPlan, DecompressRetryAbsorbsBitFlips) {
  RetryFixture fx;
  const auto c = fx.stream.compress<f32>(fx.data);
  const auto clean = fx.stream.decompress<f32>(c.stream);
  ASSERT_EQ(fx.stream.faultsDetected(), 0u);

  gpusim::FaultPlan plan;
  plan.seed = 5;
  plan.bitFlips = 3;
  fx.armNext(plan);
  const auto retried = fx.stream.decompress<f32>(c.stream);
  fx.stream.launcher().clearFaultPlan();

  EXPECT_EQ(0, std::memcmp(retried.data.data(), clean.data.data(),
                           clean.data.size() * sizeof(f32)));
  EXPECT_EQ(fx.stream.faultsDetected(), 1u);
  EXPECT_EQ(fx.stream.faultRelaunches(), 1u);
}

// Same drill on the compression side: flips land in the staged stream
// bytes; when one hits the offset/payload region the digests disagree and
// the relaunch reproduces the original stream byte-identically.
TEST(FaultPlan, CompressRetryReproducesStream) {
  RetryFixture fx;
  const auto reference = fx.stream.compress<f32>(fx.data);

  gpusim::FaultPlan plan;
  plan.seed = 11;
  plan.bitFlips = 64;  // enough to hit used bytes with certainty
  fx.armNext(plan);
  const auto retried = fx.stream.compress<f32>(fx.data);
  fx.stream.launcher().clearFaultPlan();

  EXPECT_EQ(retried.stream, reference.stream);
  EXPECT_GE(fx.stream.faultsDetected(), 1u);
  EXPECT_EQ(fx.stream.faultsDetected(), fx.stream.faultRelaunches());
  // The retried stream passes strict (checksummed) decompression.
  const auto d = fx.stream.decompress<f32>(retried.stream);
  EXPECT_EQ(d.data.size(), fx.data.size());
}

// The retrying entry points, each run over `members` copies of one field
// (compress side) or of its stream (decode side). Every one goes through
// the same detect-and-retry loop, so each must show the same budget.
enum class Entry { Compress, CompressBatch, Decompress, DecompressBatchRaw };

struct EntryCase {
  const char* name;
  Entry entry;
  usize members;
};

constexpr EntryCase kEntryCases[] = {
    {"compress", Entry::Compress, 1},
    {"compressBatch/1", Entry::CompressBatch, 1},
    {"compressBatch/2", Entry::CompressBatch, 2},
    {"decompress", Entry::Decompress, 1},
    {"decompressBatchRaw/1", Entry::DecompressBatchRaw, 1},
    {"decompressBatchRaw/2", Entry::DecompressBatchRaw, 2},
};

/// Runs `ec` and returns each member's output bytes.
std::vector<std::vector<std::byte>> runEntry(core::CompressorStream& stream,
                                             const EntryCase& ec,
                                             const std::vector<f32>& data,
                                             ConstByteSpan compressed) {
  std::vector<std::vector<std::byte>> out;
  switch (ec.entry) {
    case Entry::Compress:
      out.push_back(stream.compress<f32>(data).stream);
      break;
    case Entry::CompressBatch: {
      const std::vector<std::span<const f32>> fields(ec.members, data);
      for (auto& c : stream.compressBatch<f32>(fields)) {
        out.push_back(std::move(c.stream));
      }
      break;
    }
    case Entry::Decompress: {
      const auto d = stream.decompress<f32>(compressed);
      const auto* p = reinterpret_cast<const std::byte*>(d.data.data());
      out.emplace_back(p, p + d.data.size() * sizeof(f32));
      break;
    }
    case Entry::DecompressBatchRaw: {
      const std::vector<ConstByteSpan> streams(ec.members, compressed);
      for (auto& d : stream.decompressBatchRaw(streams)) {
        out.push_back(std::move(d.data));
      }
      break;
    }
  }
  return out;
}

// Aborted-kernel fault mode: the grid throws on the trigger launch; the
// retry policy treats it like a detected fault and relaunches. An abort
// takes the whole fused launch down, so every member relaunches once.
TEST(FaultPlan, AbortedLaunchIsRetried) {
  for (const EntryCase& ec : kEntryCases) {
    SCOPED_TRACE(ec.name);
    RetryFixture fx;
    const auto c = fx.stream.compress<f32>(fx.data);
    const auto clean = runEntry(fx.stream, ec, fx.data, c.stream);
    const u64 detected = fx.stream.faultsDetected();
    const u64 relaunches = fx.stream.faultRelaunches();
    ASSERT_EQ(detected, 0u);

    gpusim::FaultPlan plan;
    plan.abortBlock = 0;
    fx.armNext(plan);
    const u64 before = fx.stream.launcher().launchCount();
    const auto retried = runEntry(fx.stream, ec, fx.data, c.stream);
    const u64 launches = fx.stream.launcher().launchCount() - before;
    fx.stream.launcher().clearFaultPlan();

    EXPECT_EQ(retried, clean);
    EXPECT_EQ(launches, 2 * ec.members);
    EXPECT_EQ(fx.stream.faultsDetected() - detected, ec.members);
    EXPECT_EQ(fx.stream.faultRelaunches() - relaunches, ec.members);
  }
}

// Sticky faults outlast the retry budget: the Error must propagate, and
// the counters must show every member got exactly faultRetries relaunches
// — whether the fault aborts the launch or corrupts what it wrote.
TEST(FaultPlan, StickyFaultExhaustsRetryBudget) {
  core::Config cfg = RetryFixture::makeConfig();
  cfg.faultRetries = 1;
  const auto data = datagen::generateF32("scale", 2, 1 << 14);
  gpusim::FaultPlan abort;
  abort.abortBlock = 0;  // aborts are detected on every attempt
  gpusim::FaultPlan flips;
  flips.seed = 7;
  flips.bitFlips = 256;  // corrupts used bytes of every attempt
  for (const EntryCase& ec : kEntryCases) {
    for (gpusim::FaultPlan plan : {abort, flips}) {
      SCOPED_TRACE(std::string(ec.name) +
                   (plan.bitFlips > 0 ? " bit flips" : " abort"));
      core::CompressorStream stream(cfg);
      const auto c = stream.compress<f32>(data);
      const auto clean = runEntry(stream, ec, data, c.stream);
      ASSERT_EQ(stream.faultsDetected(), 0u);

      plan.sticky = true;
      plan.triggerLaunch = stream.launcher().launchCount();
      stream.launcher().setFaultPlan(plan);
      EXPECT_THROW((void)runEntry(stream, ec, data, c.stream), Error);
      const u64 launches = stream.launcher().launchCount() - plan.triggerLaunch;
      stream.launcher().clearFaultPlan();

      const u64 attempts = cfg.faultRetries + 1;
      EXPECT_EQ(launches, ec.members * attempts);
      EXPECT_EQ(stream.faultsDetected(), ec.members * attempts);
      EXPECT_EQ(stream.faultRelaunches(), ec.members * cfg.faultRetries);

      // The stream stays usable once the plan is disarmed: every member
      // comes out byte-identical to the clean run before the fault.
      EXPECT_EQ(runEntry(stream, ec, data, c.stream), clean);
    }
  }
}

// With no retry budget there is no verification pass and no fault target:
// the kernel is simply not registered for injection.
TEST(FaultPlan, NoBudgetMeansNoFaultTarget) {
  core::Config cfg = RetryFixture::makeConfig();
  cfg.faultRetries = 0;
  core::CompressorStream stream(cfg);
  const auto data = datagen::generateF32("scale", 2, 1 << 12);
  const auto c = stream.compress<f32>(data);
  const auto clean = stream.decompress<f32>(c.stream);

  gpusim::FaultPlan plan;
  plan.bitFlips = 16;
  plan.triggerLaunch = stream.launcher().launchCount();
  plan.sticky = true;
  stream.launcher().setFaultPlan(plan);
  const auto d = stream.decompress<f32>(c.stream);
  stream.launcher().clearFaultPlan();
  EXPECT_EQ(d.data, clean.data);
  EXPECT_EQ(stream.faultsDetected(), 0u);
  EXPECT_EQ(stream.faultRelaunches(), 0u);
}

// ---- Latency & liveness faults (stall / wedge / arena exhaustion) ----------

// A kernel-stall fault delays the trigger launch by stallTicks model ticks
// but must not change its output: liveness recovery (the service watchdog)
// is exercised elsewhere; here the launch merely takes visibly longer.
TEST(FaultPlan, StallDelaysTriggerLaunch) {
  RetryFixture fx;
  const auto reference = fx.stream.compress<f32>(fx.data);

  gpusim::FaultPlan plan;
  plan.stallTicks = 120;  // 120 ms: far above a clean tiny compress
  fx.armNext(plan);
  const auto t0 = std::chrono::steady_clock::now();
  const auto stalled = fx.stream.compress<f32>(fx.data);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  fx.stream.launcher().clearFaultPlan();

  EXPECT_EQ(stalled.stream, reference.stream);
  EXPECT_GE(elapsed.count(), 100);
  EXPECT_EQ(fx.stream.faultsDetected(), 0u);  // slow, not corrupt
}

// A worker-wedge fault parks the pool thread running the grid's first task.
// With more than one pool worker the rest of the grid keeps draining and
// the launch completes (slowly) with clean output.
TEST(FaultPlan, WedgeDelaysPoolDrainButCompletes) {
  RetryFixture fx;
  const auto c = fx.stream.compress<f32>(fx.data);
  const auto clean = fx.stream.decompress<f32>(c.stream);

  gpusim::FaultPlan plan;
  plan.wedgeTicks = 120;
  fx.armNext(plan);
  const auto t0 = std::chrono::steady_clock::now();
  const auto wedged = fx.stream.decompress<f32>(c.stream);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  fx.stream.launcher().clearFaultPlan();

  EXPECT_EQ(wedged.data, clean.data);
  EXPECT_GE(elapsed.count(), 100);
  EXPECT_EQ(fx.stream.faultsDetected(), 0u);
}

// Arena-exhaustion fault: the stream's next operation fails its scratch
// allocation with a typed Error; the fault is consume-once, so the retry
// (here: the caller's second call) runs clean and the stream recovers.
TEST(FaultPlan, ArenaExhaustionFailsOnceThenRecovers) {
  RetryFixture fx;
  const auto reference = fx.stream.compress<f32>(fx.data);

  gpusim::FaultPlan plan;
  plan.arenaBudgetBytes = 256;  // below any real scratch footprint
  fx.armNext(plan);
  EXPECT_THROW((void)fx.stream.compress<f32>(fx.data), Error);

  const auto retried = fx.stream.compress<f32>(fx.data);
  fx.stream.launcher().clearFaultPlan();
  EXPECT_EQ(retried.stream, reference.stream);
}

// A strict decode that rejects its stream (here: the wrong precision)
// still consumes a pending arena-exhaustion fault, as every fallible
// operation does, so the next operation runs clean.
TEST(FaultPlan, RejectedDecodeConsumesArenaFault) {
  RetryFixture fx;
  const auto c = fx.stream.compress<f32>(fx.data);

  gpusim::FaultPlan plan;
  plan.arenaBudgetBytes = 256;
  fx.armNext(plan);
  EXPECT_THROW((void)fx.stream.decompress<f64>(c.stream), Error);
  const auto again = fx.stream.compress<f32>(fx.data);
  fx.stream.launcher().clearFaultPlan();
  EXPECT_EQ(again.stream, c.stream);
}

// Sticky arena exhaustion keeps refusing until the plan is cleared.
TEST(FaultPlan, StickyArenaExhaustionPersistsUntilCleared) {
  RetryFixture fx;
  gpusim::FaultPlan plan;
  plan.arenaBudgetBytes = 256;
  plan.sticky = true;
  fx.armNext(plan);
  EXPECT_THROW((void)fx.stream.compress<f32>(fx.data), Error);
  EXPECT_THROW((void)fx.stream.compress<f32>(fx.data), Error);
  fx.stream.launcher().clearFaultPlan();
  const auto ok = fx.stream.compress<f32>(fx.data);
  EXPECT_GT(ok.stream.size(), 0u);
}

// The salvage decoder keeps its never-throws contract even with a pending
// arena-exhaustion fault: it clears (rather than consumes) the budget.
TEST(FaultPlan, SalvageDecodeIgnoresArenaExhaustionFault) {
  RetryFixture fx;
  const auto c = fx.stream.compress<f32>(fx.data);

  gpusim::FaultPlan plan;
  plan.arenaBudgetBytes = 256;
  plan.sticky = true;
  fx.armNext(plan);
  const auto salvaged = fx.stream.decompressResilient<f32>(c.stream);
  fx.stream.launcher().clearFaultPlan();
  EXPECT_TRUE(salvaged.report.clean());
  EXPECT_EQ(salvaged.data.size(), fx.data.size());
}

// Segmented containers: corrupted tables of contents or segment bytes.
TEST(FaultInjection, FuzzSegmentedContainers) {
  core::Config cfg;
  cfg.absErrorBound = 1e-2;
  core::SegmentedCompressor<f32> sc(cfg, 512);
  sc.append(datagen::generateF32("scale", 0, 2000));
  const auto container = sc.finish();
  Rng rng(49);
  for (int trial = 0; trial < 150; ++trial) {
    auto corrupted = container;
    const usize pos = rng.uniformInt(corrupted.size());
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    try {
      core::SegmentedReader<f32> reader(corrupted);
      for (usize s = 0; s < reader.segmentCount(); ++s) {
        (void)reader.segment(s);
      }
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace cuszp2
