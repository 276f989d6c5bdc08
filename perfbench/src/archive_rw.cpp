// archive_rw: closed loop, one caller, a checkpoint archive. A write
// compresses a timestep with v3 Auto + stream checksum and puts it into a
// BlockStore whose journal is synced on every put; a read gets an object
// and decodes it whole, or gets it and decodes a block range. The seeded
// mix is about 1 write : 2 full reads : 1 range read. Two writes in three
// store fresh content (every chunk new); the third rewrites one of the
// shared timesteps that three tenants write in overlap, so its chunks
// dedup. entropy, the v3 host stages, cas and io do most of the work here
// and nowhere else.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "bench.hpp"
#include "cas/block_store.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/launcher.hpp"

namespace perfbench {

namespace {

using namespace cuszp2;

constexpr usize kTimesteps = 32;  // shared: every tenant writes these
constexpr usize kFreshSlots = 4;  // fresh: one key each, two contents
constexpr f64 kFreshPutFrac = 2.0 / 3.0;
constexpr usize kOpsPerSlice = 64;  // consecutive ops set against CPU time
constexpr usize kStepElems = usize{512} << 10;  // 2 MiB of f32 per timestep
const char* const kTenants[] = {"run-a", "run-b", "run-c"};

struct Key {
  u32 tenant = 0;
  u32 step = 0;  ///< index into the timestep contents
  std::string name;
};

Key sharedKey(u32 tenant, u32 step) {
  return {tenant, step, "ts" + std::to_string(step)};
}

}  // namespace

RunInfo runArchiveRw(const Options& opt, Recorder& rec) {
  Rng rng(mixSeed(opt.seed, 0xa7c1));
  Rng traceRng(mixSeed(opt.seed, 0x7ace));
  core::Config config;
  config.pipeline = core::PipelineMode::Auto;
  config.checksum = true;

  // Timesteps: CESM-ATM fields 0-31, the same on every seed, so the
  // contents a run writes and reads do not depend on it (the seed picks
  // the keys, the op order and the ranges). The fresh contents follow:
  // fresh slot k alternates between contents kTimesteps + 2k and
  // + 2k + 1, which are evenly spaced shared timesteps (so the fresh puts,
  // two thirds of all, see the same spread of roughness) shifted by an
  // offset that is not a whole number of quantization steps. They compress alike but share no chunk
  // with anything else. (A scale factor would not do: a REL bound scales
  // with the data, so the quantized codes would not change.) A fresh put
  // rewrites its slot's key with the content it does not hold; the eager
  // GC frees the old content's chunks, so every chunk of a fresh put is
  // new.
  const u32 fields = datagen::datasetInfo("cesm_atm").numFields;
  std::vector<std::vector<f32>> steps;
  std::vector<f64> ebs;
  std::vector<std::vector<std::byte>> streams;
  std::vector<std::vector<f32>> decoded;
  {
    core::CompressorStream serial(config);
    for (usize t = 0; t < kTimesteps + 2 * kFreshSlots; ++t) {
      if (t < kTimesteps) {
        steps.push_back(datagen::generateF32(
            "cesm_atm", static_cast<u32>(t % fields), kStepElems));
      } else {
        std::vector<f32> v =
            steps[(t - kTimesteps) * kTimesteps / (2 * kFreshSlots)];
        const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
        const f32 shift = (*hi - *lo) * 1e-3f *
                          (static_cast<f32>(t - kTimesteps) + 0.37f);
        for (f32& x : v) x += shift;
        steps.push_back(std::move(v));
      }
      ebs.push_back(absBound<f32>(steps.back(), config.relErrorBound));
      streams.push_back(
          serial.compress<f32>(std::span<const f32>(steps.back())).stream);
      decoded.push_back(serial.decompress<f32>(streams.back()).data);
      if (firstBoundViolation<f32>(steps.back(), decoded.back(), ebs.back()) >=
          0) {
        rec.error("archive_rw: reference decode violates the error bound");
      }
    }
  }
  const u64 stepBytes = kStepElems * sizeof(f32);
  const u64 numBlocks = core::StreamHeader::parse(streams[0]).numBlocks();

  // The store recovered in setup holds every (tenant, timestep) key, put
  // in a seeded order: the first half in its snapshot, the rest in its
  // journal. So the live objects, and stored_ratio, differ between seeds
  // only by the fresh keys' contents.
  const std::filesystem::path dir =
      std::filesystem::path(opt.workDir.empty() ? "." : opt.workDir) /
      "archive_rw";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string indexPath = (dir / "store.cas").string();
  const std::string journalPath = (dir / "store.jnl").string();
  std::vector<Key> keys;
  {
    std::vector<Key> all;
    for (u32 tn = 0; tn < 3; ++tn) {
      for (u32 t = 0; t < kTimesteps; ++t) all.push_back(sharedKey(tn, t));
    }
    rng.shuffle(all);
    keys = all;
    cas::BlockStore store;
    store.attachJournal(journalPath);
    for (usize i = 0; i < keys.size(); ++i) {
      if (i == keys.size() / 2) store.save(indexPath);
      store.put(kTenants[keys[i].tenant], keys[i].name,
                streams[keys[i].step]);
    }
  }

  // Setup: stream construction, a warm-up round trip and range decode of
  // every timestep content (the scratch arena reaches its peak size), and
  // recovery of the store (snapshot + journal replay).
  RunInfo info;
  std::unique_ptr<core::CompressorStream> stream;
  std::unique_ptr<cas::BlockStore> store;
  std::vector<f64> recoverMs;
  for (u32 s = 0; s < opt.setups; ++s) {
    store.reset();
    stream.reset();
    const f64 t0 = rec.nowUs();
    const f64 cpu0 = Recorder::cpuUs();
    stream = std::make_unique<core::CompressorStream>(config);
    for (const std::vector<f32>& step : steps) {
      const auto c = stream->compress<f32>(std::span<const f32>(step));
      stream->decompress<f32>(c.stream);
      stream->decompressBlocks<f32>(c.stream, 0, numBlocks / 4);
    }
    const f64 r0 = rec.nowUs();
    store = cas::BlockStore::recover(indexPath, journalPath);
    const f64 t1 = rec.nowUs();
    recoverMs.push_back((t1 - r0) * 1e-3);
    info.setupSeconds.push_back((t1 - t0) * 1e-6);
    info.setupCpuSeconds.push_back((Recorder::cpuUs() - cpu0) * 1e-6);
  }
  std::sort(recoverMs.begin(), recoverMs.end());
  rec.count("cas.recover_ms", recoverMs[recoverMs.size() / 2]);
  rec.count("pool_workers",
            static_cast<f64>(gpusim::Launcher::shared().workerCount()));

  rec.count("ops_per_slice", static_cast<f64>(kOpsPerSlice));
  const cas::StoreStats s0 = store->stats();
  const u64 records0 = store->journalStatus().recordsAppended;
  const u64 slabs0 = stream->arenaStats().slabAllocations;
  // keys[freshKey[k]] is fresh slot k once its first put has landed.
  std::vector<usize> freshKey(kFreshSlots, SIZE_MAX);
  u64 puts = 0;
  u64 freshPuts = 0;
  u64 nextId = 0;
  const f64 start = rec.nowUs();
  while (rec.nowUs() - start < opt.seconds * 1e6) {
    const f64 pick = rng.uniform();
    Op op;
    op.id = ++nextId;
    op.traced = opt.trace && (traceRng.next() & 1) != 0;
    const u64 root = op.traced ? rec.newSpanId() : 0;
    f64 cpu0 = 0.0;
    const auto send = [&] {
      cpu0 = Recorder::cpuUs();
      op.intendedUs = op.sentUs = rec.nowUs();
    };
    const auto close = [&] {
      op.doneUs = rec.nowUs();
      op.cpuUs = Recorder::cpuUs() - cpu0;
    };
    const auto child = [&](const char* name, f64 a, f64 b,
                           std::vector<SpanArg> args) {
      if (op.traced) rec.span({rec.newSpanId(), root, op.id, name, a, b,
                               std::move(args)});
    };
    try {
      if (pick < 0.25) {
        Key key;
        usize slot = SIZE_MAX;
        if (rng.uniform() < kFreshPutFrac) {
          slot = rng.below(kFreshSlots);
          const usize at = freshKey[slot];
          const u32 base = static_cast<u32>(kTimesteps + 2 * slot);
          key = {static_cast<u32>(slot % 3),
                 at == SIZE_MAX || keys[at].step == base + 1 ? base : base + 1,
                 "fresh" + std::to_string(slot)};
        } else {
          key = sharedKey(static_cast<u32>(rng.below(3)),
                          static_cast<u32>(rng.below(kTimesteps)));
        }
        op.kind = "put";
        op.originalBytes = stepBytes;
        send();
        const core::Compressed c =
            stream->compress<f32>(std::span<const f32>(steps[key.step]));
        const f64 c1 = rec.nowUs();
        const cas::PutResult pr =
            store->put(kTenants[key.tenant], key.name, c.stream);
        const f64 p1 = rec.nowUs();
        child("core.v3.compress", op.sentUs, c1, profileArgs(c.profile));
        child("cas.put", c1, p1,
              {{"new_chunks", static_cast<f64>(pr.newChunks)},
               {"dedup_chunks", static_cast<f64>(pr.dedupChunks)}});
        close();
        op.streamBytes = c.stream.size();
        ++puts;
        if (c.stream != streams[key.step]) {
          op.ok = false;
          rec.error("archive_rw: v3 stream differs from the serial stream");
        }
        if (slot == SIZE_MAX) {
          if (!pr.replaced) keys.push_back(key);
        } else {
          ++freshPuts;
          if (freshKey[slot] == SIZE_MAX) {
            freshKey[slot] = keys.size();
            keys.push_back(key);
          } else {
            keys[freshKey[slot]] = key;
          }
        }
      } else {
        const Key key = keys[rng.below(keys.size())];
        const bool range = pick >= 0.75;
        op.kind = range ? "get_range" : "get";
        send();
        const std::vector<std::byte> bytes =
            store->get(kTenants[key.tenant], key.name);
        const f64 g1 = rec.nowUs();
        child("cas.get", op.sentUs, g1, {});
        op.streamBytes = bytes.size();
        if (range) {
          const u64 firstBlock = rng.below(numBlocks);
          const u64 count = std::min<u64>(
              numBlocks - firstBlock,
              numBlocks / 16 + rng.below(numBlocks * 3 / 16 + 1));
          const core::BlockRange<f32> r =
              stream->decompressBlocks<f32>(bytes, firstBlock, count);
          const f64 d1 = rec.nowUs();
          child("core.range_decode", g1, d1, profileArgs(r.profile));
          close();
          op.originalBytes = r.values.size() * sizeof(f32);
          const std::vector<f32>& full = decoded[key.step];
          if (r.firstElement + r.values.size() > full.size() ||
              !std::equal(r.values.begin(), r.values.end(),
                          full.begin() +
                              static_cast<long>(r.firstElement))) {
            op.ok = false;
            rec.error("archive_rw: range decode differs from the full decode");
          }
        } else {
          const core::Decompressed<f32> d = stream->decompress<f32>(bytes);
          const f64 d1 = rec.nowUs();
          child("core.decompress", g1, d1, profileArgs(d.profile));
          close();
          op.originalBytes = stepBytes;
          if (firstBoundViolation<f32>(steps[key.step], d.data,
                                       ebs[key.step]) >= 0) {
            op.ok = false;
            rec.error("archive_rw: decoded timestep violates the bound");
          }
        }
        if (bytes != streams[key.step]) {
          op.ok = false;
          rec.error("archive_rw: get returned bytes that were not put");
        }
      }
    } catch (const std::exception& e) {
      op.ok = false;
      close();
      rec.error(std::string("archive_rw: ") + e.what());
    }
    if (op.traced) {
      rec.span({root, 0, op.id, "op." + op.kind, op.sentUs, op.doneUs, {}});
    }
    rec.op(op);
  }
  info.windowSeconds = (rec.nowUs() - start) * 1e-6;

  const cas::StoreStats s1 = store->stats();
  rec.count("core.arena_slab_allocs",
            static_cast<f64>(stream->arenaStats().slabAllocations - slabs0));
  rec.count("cas.chunk_hits", static_cast<f64>(s1.chunkHits - s0.chunkHits));
  rec.count("cas.chunk_misses",
            static_cast<f64>(s1.chunkMisses - s0.chunkMisses));
  rec.count("cas.puts", static_cast<f64>(puts));
  rec.count("cas.fresh_puts", static_cast<f64>(freshPuts));
  rec.count("io.journal.records",
            static_cast<f64>(store->journalStatus().recordsAppended -
                             records0));
  rec.count("store.original_bytes",
            static_cast<f64>(s1.objects) * static_cast<f64>(stepBytes));
  rec.count("store.physical_bytes", static_cast<f64>(s1.physicalBytes));
  store.reset();
  std::filesystem::remove_all(dir);
  return info;
}

}  // namespace perfbench
