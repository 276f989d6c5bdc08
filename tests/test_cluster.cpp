// CompressionCluster: consistent-hash routing, replicated archives,
// shard failover and supervision.
//
// The load-bearing acceptance tests are:
//   * KilledShardFailsOverByteIdentical — a seeded kill mid-load resolves
//     every ticket with a typed Outcome and the surviving executions are
//     byte-identical to a no-fault serial run;
//   * RingRemoveMovesOnlyOwnedKeys / killShard rebalance — membership
//     changes move only the keys whose owning arc changed hands (~1/N);
//   * SeededChaosDrillIsDeterministic — two runs of the same chaos seed
//     produce identical ClusterStats snapshots and identical bytes;
//   * ArchiveReplicaLossRepairsBitExactly — a lost/corrupted primary is
//     served from a replica, read-repaired, and revived bit-exactly.
//
// Determinism recipe: startPaused + submit everything + heartbeat (kills
// happen while every shard is paused, so the queued/running partition is
// exact) + resume. See docs/SERVICE.md "Cluster topology".
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/archive.hpp"
#include "telemetry/metrics.hpp"

using namespace cuszp2;

namespace {

core::Config relConfig(f64 rel) {
  core::Config cfg;
  cfg.relErrorBound = rel;
  return cfg;
}

struct Request {
  std::string tenant;
  std::string dataset;
  u32 fieldIndex;
  usize elems;
};

// 4 tenants, mixed sizes, one shared Config (jobs coalesce per shard).
std::vector<Request> mixedWorkload() {
  return {
      {"climate", "cesm_atm", 0, 4096}, {"physics", "hacc", 0, 8192},
      {"fluids", "jetin", 0, 2048},     {"tiny", "cesm_atm", 1, 512},
      {"climate", "cesm_atm", 2, 4096}, {"physics", "hacc", 1, 8192},
      {"fluids", "jetin", 0, 2048},     {"tiny", "cesm_atm", 3, 512},
      {"climate", "cesm_atm", 4, 4096}, {"physics", "hacc", 2, 8192},
      {"fluids", "jetin", 0, 2048},     {"tiny", "cesm_atm", 5, 512},
  };
}

std::vector<f32> fieldFor(const Request& r) {
  return datagen::generateF32(r.dataset, r.fieldIndex, r.elems);
}

// Serial no-fault reference: one CompressorStream, one compress per
// request — the byte-identity baseline every cluster run must match.
std::vector<std::vector<std::byte>> serialStreams(
    const std::vector<Request>& reqs, const core::Config& cfg) {
  std::vector<std::vector<std::byte>> out;
  core::CompressorStream serial(cfg);
  for (const Request& r : reqs) {
    const std::vector<f32> data = fieldFor(r);
    out.push_back(serial.compress<f32>(std::span<const f32>(data)).stream);
  }
  return out;
}

std::vector<cluster::ClusterTicket> submitAll(
    cluster::CompressionCluster& cl, const std::vector<Request>& reqs,
    const core::Config& cfg) {
  std::vector<cluster::ClusterTicket> tickets;
  for (const Request& r : reqs) {
    const std::vector<f32> data = fieldFor(r);
    cluster::ClusterSubmitResult s =
        cl.submitCompress<f32>(r.tenant, std::span<const f32>(data), cfg);
    EXPECT_TRUE(s.accepted()) << s.detail;
    tickets.push_back(s.ticket);
  }
  return tickets;
}

u32 liveShards(const cluster::CompressionCluster& cl) {
  u32 n = 0;
  for (const cluster::ShardInfo& info : cl.shardInfos()) {
    if (info.state != cluster::ShardState::Down) ++n;
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------------
// Consistent-hash ring

TEST(ClusterRing, DeterministicBalancedAndDistinctReplicas) {
  cluster::ConsistentHashRing a(64, 42);
  cluster::ConsistentHashRing b(64, 42);
  for (u32 s = 0; s < 4; ++s) {
    a.addShard(s);
    b.addShard(s);
  }

  std::map<u32, u32> share;
  const u32 keys = 4000;
  for (u32 i = 0; i < keys; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    const u32 p = a.primaryFor(key);
    EXPECT_EQ(p, b.primaryFor(key)) << "ring placement is not seeded";
    share[p] += 1;

    const std::vector<u32> reps = a.replicasFor(key, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], p) << "replica walk must start at the primary";
    EXPECT_EQ(std::set<u32>(reps.begin(), reps.end()).size(), reps.size())
        << "replicas must be distinct shards";
  }

  // Virtual nodes smooth the share toward 1/N = 25%.
  for (const auto& [shard, count] : share) {
    const f64 frac = static_cast<f64>(count) / keys;
    EXPECT_GT(frac, 0.12) << "shard " << shard << " owns too little";
    EXPECT_LT(frac, 0.42) << "shard " << shard << " owns too much";
  }
  EXPECT_EQ(share.size(), 4u);

  // A different seed is a different placement (at least one key moves).
  cluster::ConsistentHashRing c(64, 43);
  for (u32 s = 0; s < 4; ++s) c.addShard(s);
  u32 moved = 0;
  for (u32 i = 0; i < 200; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    if (a.primaryFor(key) != c.primaryFor(key)) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(ClusterRing, RemoveMovesOnlyOwnedKeysAddMovesOneNth) {
  cluster::ConsistentHashRing ring(64, 7);
  for (u32 s = 0; s < 5; ++s) ring.addShard(s);

  const u32 keys = 4000;
  std::vector<u32> before(keys);
  for (u32 i = 0; i < keys; ++i) {
    before[i] = ring.primaryFor("k" + std::to_string(i));
  }

  // removeShard(2): exactly the keys whose primary was 2 move.
  ring.removeShard(2);
  EXPECT_FALSE(ring.contains(2));
  u32 owned = 0;
  for (u32 i = 0; i < keys; ++i) {
    const u32 after = ring.primaryFor("k" + std::to_string(i));
    if (before[i] == 2) {
      ++owned;
      EXPECT_NE(after, 2u);
    } else {
      EXPECT_EQ(after, before[i])
          << "key k" << i << " moved although shard 2 never owned it";
    }
  }
  const f64 movedFrac = static_cast<f64>(owned) / keys;
  EXPECT_GT(movedFrac, 0.08) << "shard 2 owned suspiciously few keys";
  EXPECT_LT(movedFrac, 0.35) << "a remove moved far more than ~1/N keys";

  // Adding it back restores the original placement exactly (same seed,
  // same virtual-node points).
  ring.addShard(2);
  for (u32 i = 0; i < keys; ++i) {
    EXPECT_EQ(ring.primaryFor("k" + std::to_string(i)), before[i]);
  }

  // addShard(5): only keys landing on the new shard's arcs move.
  ring.addShard(5);
  u32 gained = 0;
  for (u32 i = 0; i < keys; ++i) {
    const u32 after = ring.primaryFor("k" + std::to_string(i));
    if (after != before[i]) {
      ++gained;
      EXPECT_EQ(after, 5u)
          << "a key moved to a shard other than the new one";
    }
  }
  const f64 gainedFrac = static_cast<f64>(gained) / keys;
  EXPECT_GT(gainedFrac, 0.05);
  EXPECT_LT(gainedFrac, 0.35) << "an add moved far more than ~1/N keys";
}

// ---------------------------------------------------------------------
// Routing + byte identity

TEST(ClusterTest, ByteIdenticalAcrossHeterogeneousShardsAndRoundTrip) {
  telemetry::registry().setEnabled(false);
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);
  const std::vector<std::vector<std::byte>> expected =
      serialStreams(reqs, cfg);

  cluster::ClusterConfig ccfg;
  ccfg.shards = 3;  // heterogeneous fleet: A100 / 3090 / 3080
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  cluster::CompressionCluster cl(ccfg);
  ASSERT_EQ(cl.shardCount(), 3u);

  // The fleet really is heterogeneous.
  std::set<std::string> deviceNames;
  for (const cluster::ShardInfo& info : cl.shardInfos()) {
    deviceNames.insert(info.device);
  }
  EXPECT_EQ(deviceNames.size(), 3u);

  std::vector<cluster::ClusterTicket> tickets = submitAll(cl, reqs, cfg);
  cl.resume();

  std::set<u32> shardsUsed;
  for (usize i = 0; i < tickets.size(); ++i) {
    const cluster::ClusterJobResult& r = tickets[i].wait();
    ASSERT_TRUE(r.job.ok) << r.job.error;
    EXPECT_EQ(r.job.compressed.stream, expected[i])
        << "job " << i << " (" << reqs[i].tenant << " on shard "
        << r.shard << ") is not byte-identical to the serial stream";
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.shard, cl.primaryShardFor(reqs[i].tenant));
    shardsUsed.insert(r.shard);
  }
  EXPECT_GT(shardsUsed.size(), 1u)
      << "4 tenants all hashed to one shard — ring is not spreading";

  // Decompress round trip through the cluster (F32): byte-identical to
  // a serial decompress of the same stream.
  const std::vector<f32> original = fieldFor(reqs[0]);
  core::CompressorStream serial(cfg);
  const core::Decompressed<f32> reference =
      serial.decompress<f32>(expected[0]);
  cluster::ClusterSubmitResult d =
      cl.submitDecompress("climate", ConstByteSpan(expected[0]), cfg);
  ASSERT_TRUE(d.accepted()) << d.detail;
  const cluster::ClusterJobResult& dr = d.ticket.wait();
  ASSERT_TRUE(dr.job.ok) << dr.job.error;
  ASSERT_EQ(dr.job.decodedElements, reference.data.size());
  ASSERT_EQ(dr.job.decompressed.size(),
            reference.data.size() * sizeof(f32));
  EXPECT_EQ(std::memcmp(dr.job.decompressed.data(),
                        reference.data.data(),
                        dr.job.decompressed.size()),
            0);

  // F64 precision routes through the same envelope.
  std::vector<f64> wide(original.begin(), original.begin() + 1024);
  const std::vector<std::byte> wideExpected =
      serial.compress<f64>(std::span<const f64>(wide)).stream;
  cluster::ClusterSubmitResult w =
      cl.submitCompress<f64>("physics", std::span<const f64>(wide), cfg);
  ASSERT_TRUE(w.accepted()) << w.detail;
  EXPECT_EQ(w.ticket.wait().job.compressed.stream, wideExpected);

  cl.shutdown();
  const cluster::ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.accepted, reqs.size() + 2);
  EXPECT_EQ(stats.completed, reqs.size() + 2);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

// ---------------------------------------------------------------------
// Failover

TEST(ClusterTest, KilledShardFailsOverByteIdentical) {
  telemetry::registry().setEnabled(false);
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);
  const std::vector<std::vector<std::byte>> expected =
      serialStreams(reqs, cfg);

  cluster::ClusterConfig ccfg;
  ccfg.shards = 3;
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  cluster::CompressionCluster cl(ccfg);

  // Primary placement before the kill, for the rebalance assertion.
  std::vector<std::string> probes;
  std::vector<u32> before;
  for (u32 i = 0; i < 300; ++i) {
    probes.push_back("probe-tenant-" + std::to_string(i));
    before.push_back(cl.primaryShardFor(probes.back()));
  }

  std::vector<cluster::ClusterTicket> tickets = submitAll(cl, reqs, cfg);
  const u32 victim = cl.primaryShardFor("climate");
  std::vector<bool> onVictim;
  for (const Request& r : reqs) {
    onVictim.push_back(cl.primaryShardFor(r.tenant) == victim);
  }
  ASSERT_GT(std::count(onVictim.begin(), onVictim.end(), true), 0);

  cl.killShard(victim);
  EXPECT_EQ(cl.shardState(victim), cluster::ShardState::Down);
  EXPECT_EQ(liveShards(cl), 2u);

  // Rebalance invariant at the cluster level: only the victim's tenants
  // moved, and that is ~1/N of them.
  u32 moved = 0;
  for (usize i = 0; i < probes.size(); ++i) {
    const u32 after = cl.primaryShardFor(probes[i]);
    if (before[i] == victim) {
      ++moved;
      EXPECT_NE(after, victim);
    } else {
      EXPECT_EQ(after, before[i]) << probes[i] << " moved needlessly";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<f64>(moved) / probes.size(), 0.6)
      << "a single shard kill rerouted most of the tenant space";

  cl.resume();
  for (usize i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].waitFor(std::chrono::milliseconds(20000)))
        << "ticket " << i << " never resolved after the kill";
    const cluster::ClusterJobResult& r = tickets[i].result();
    ASSERT_TRUE(r.job.ok) << "job " << i << ": " << r.job.error;
    EXPECT_EQ(r.job.compressed.stream, expected[i])
        << "failover changed bytes for job " << i;
    EXPECT_NE(r.shard, victim);
    if (onVictim[i]) {
      EXPECT_GE(r.failovers, 1u) << "victim job " << i << " never moved";
    }
  }

  cl.shutdown();
  const cluster::ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.completed, reqs.size());
  EXPECT_EQ(stats.shardKills, 1u);
  EXPECT_GE(stats.failovers,
            static_cast<u64>(
                std::count(onVictim.begin(), onVictim.end(), true)));
}

TEST(ClusterTest, SeededChaosDrillIsDeterministic) {
  telemetry::registry().setEnabled(false);
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);

  struct DrillRun {
    cluster::ClusterStats stats;
    std::vector<service::Outcome> outcomes;
    std::vector<std::vector<std::byte>> streams;
    std::vector<u32> shards;
  };
  const auto drill = [&](u64 seed) {
    cluster::ClusterConfig ccfg;
    ccfg.shards = 4;
    ccfg.shard.workers = 1;
    ccfg.startPaused = true;
    ccfg.minShardsUp = 2;
    cluster::ShardChaosConfig chaos;
    chaos.seed = seed;
    chaos.killRate = 0.6;
    chaos.degradeRate = 0.2;
    ccfg.shardChaos = cluster::ShardChaosSchedule(chaos).hook();
    cluster::CompressionCluster cl(ccfg);

    std::vector<cluster::ClusterTicket> tickets =
        submitAll(cl, reqs, cfg);
    for (int beat = 0; beat < 5; ++beat) cl.heartbeat();
    EXPECT_GE(liveShards(cl), 2u) << "minShardsUp floor was breached";
    cl.resume();

    DrillRun run;
    for (cluster::ClusterTicket& t : tickets) {
      EXPECT_TRUE(t.waitFor(std::chrono::milliseconds(20000)));
      const cluster::ClusterJobResult& r = t.result();
      run.outcomes.push_back(r.job.outcome);
      run.streams.push_back(r.job.compressed.stream);
      run.shards.push_back(r.shard);
    }
    cl.shutdown();
    run.stats = cl.stats();
    return run;
  };

  const DrillRun a = drill(20260808);
  const DrillRun b = drill(20260808);
  EXPECT_TRUE(a.stats == b.stats)
      << "same seed, different cluster counter snapshots";
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_GT(a.stats.shardKills, 0u) << "drill never killed a shard";
  EXPECT_GT(a.stats.failovers, 0u) << "drill never failed a job over";

  // Every completed job is still byte-identical to the no-fault serial
  // run — failover resumed work, it did not re-derive different bytes.
  const std::vector<std::vector<std::byte>> expected =
      serialStreams(reqs, cfg);
  for (usize i = 0; i < reqs.size(); ++i) {
    if (a.outcomes[i] == service::Outcome::Completed) {
      EXPECT_EQ(a.streams[i], expected[i]) << "job " << i;
    }
  }

  // A different seed is a different drill.
  const DrillRun c = drill(911);
  EXPECT_FALSE(a.stats == c.stats);
}

// ---------------------------------------------------------------------
// Supervision ladder

// The shard schedule validates its rates as the service schedule does:
// a negative, NaN or over-unity rate would silently skew a drill.
TEST(ClusterTest, ShardChaosScheduleRejectsInvalidRates) {
  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  const std::pair<f64, f64> invalid[] = {
      {-0.1, 0.0}, {0.0, -0.1}, {nan, 0.0}, {0.0, nan}, {1.5, 0.0},
      {0.6, 0.6}};
  for (const auto& [kill, degrade] : invalid) {
    cluster::ShardChaosConfig chaos;
    chaos.killRate = kill;
    chaos.degradeRate = degrade;
    EXPECT_THROW(cluster::ShardChaosSchedule{chaos}, Error)
        << "kill " << kill << " degrade " << degrade;
  }
  cluster::ShardChaosConfig full;
  full.killRate = 0.5;
  full.degradeRate = 0.5;
  EXPECT_NO_THROW(cluster::ShardChaosSchedule{full});
}

TEST(ClusterTest, DegradedShardIsRoutedAroundThenEscalatesToDown) {
  telemetry::registry().setEnabled(false);
  // Compute the victim ahead of construction with an identical ring.
  cluster::ConsistentHashRing ring(64, 0xC1A57E12u);
  for (u32 s = 0; s < 3; ++s) ring.addShard(s);
  const u32 victim = ring.primaryFor("alpha");

  cluster::ClusterConfig ccfg;
  ccfg.shards = 3;
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  ccfg.workStealing = false;
  ccfg.degradedProbesToDown = 2;
  ccfg.shardChaos = [victim](const cluster::ShardProbeInfo& p) {
    cluster::ShardFault f;
    if (p.shard == victim && p.heartbeat <= 2) {
      f.mode = cluster::ShardFault::Mode::Degrade;
    }
    return f;
  };
  cluster::CompressionCluster cl(ccfg);
  ASSERT_EQ(cl.primaryShardFor("alpha"), victim);

  // Beat 1: Up -> Degraded. New submissions route around the shard while
  // an Up replica exists; the ring itself has not changed.
  cl.heartbeat();
  EXPECT_EQ(cl.shardState(victim), cluster::ShardState::Degraded);
  EXPECT_NE(cl.primaryShardFor("alpha"), victim);

  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1024);
  cluster::ClusterSubmitResult s = cl.submitCompress<f32>(
      "alpha", std::span<const f32>(data), relConfig(1e-3));
  ASSERT_TRUE(s.accepted());

  // Beat 2: a second consecutive Degrade escalates Degraded -> Down.
  cl.heartbeat();
  EXPECT_EQ(cl.shardState(victim), cluster::ShardState::Down);

  cl.resume();
  const cluster::ClusterJobResult& r = s.ticket.wait();
  EXPECT_TRUE(r.job.ok) << r.job.error;
  EXPECT_NE(r.shard, victim);
  cl.shutdown();

  const cluster::ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.shardDegrades, 1u);
  EXPECT_EQ(stats.shardKills, 1u);
  EXPECT_EQ(stats.probeFaults, 2u);
}

TEST(ClusterTest, DegradedShardRecoversOnHealthyProbe) {
  telemetry::registry().setEnabled(false);
  cluster::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.shard.workers = 1;
  ccfg.shardChaos = [](const cluster::ShardProbeInfo& p) {
    cluster::ShardFault f;
    if (p.shard == 0 && p.heartbeat == 1) {
      f.mode = cluster::ShardFault::Mode::Degrade;
    }
    return f;
  };
  cluster::CompressionCluster cl(ccfg);
  cl.heartbeat();
  EXPECT_EQ(cl.shardState(0), cluster::ShardState::Degraded);
  cl.heartbeat();  // healthy probe: Degraded -> Up
  EXPECT_EQ(cl.shardState(0), cluster::ShardState::Up);
  const cluster::ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.shardDegrades, 1u);
  EXPECT_EQ(stats.shardRecoveries, 1u);
  EXPECT_EQ(stats.shardKills, 0u);
}

TEST(ClusterTest, MinShardsUpVetoesTheLastKill) {
  telemetry::registry().setEnabled(false);
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);

  cluster::ClusterConfig ccfg;
  ccfg.shards = 3;
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  ccfg.minShardsUp = 1;
  ccfg.shardChaos = [](const cluster::ShardProbeInfo&) {
    cluster::ShardFault f;
    f.mode = cluster::ShardFault::Mode::Kill;
    return f;
  };
  cluster::CompressionCluster cl(ccfg);

  std::vector<cluster::ClusterTicket> tickets = submitAll(cl, reqs, cfg);
  cl.heartbeat();  // kills shards 0 and 1; the kill of 2 is vetoed

  EXPECT_EQ(liveShards(cl), 1u);
  const cluster::ClusterStats mid = cl.stats();
  EXPECT_EQ(mid.shardKills, 2u);
  EXPECT_GE(mid.killsVetoed, 1u);

  cl.resume();
  u32 survivor = 0;
  for (const cluster::ShardInfo& info : cl.shardInfos()) {
    if (info.state != cluster::ShardState::Down) survivor = info.id;
  }
  for (usize i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].waitFor(std::chrono::milliseconds(20000)));
    const cluster::ClusterJobResult& r = tickets[i].result();
    ASSERT_TRUE(r.job.ok) << "job " << i << ": " << r.job.error;
    EXPECT_EQ(r.shard, survivor);
  }
  cl.shutdown();
  EXPECT_EQ(cl.stats().completed, reqs.size());
}

// ---------------------------------------------------------------------
// Work stealing

TEST(ClusterTest, WorkStealingMovesQueuedJobsToIdleShard) {
  telemetry::registry().setEnabled(false);
  const core::Config cfg = relConfig(1e-3);

  cluster::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  ccfg.maxStealsPerHeartbeat = 8;
  cluster::CompressionCluster cl(ccfg);
  const u32 hot = cl.primaryShardFor("hot-tenant");
  const u32 idle = 1 - hot;

  const std::vector<f32> data = datagen::generateF32("hacc", 0, 8192);
  std::vector<cluster::ClusterTicket> tickets;
  for (u32 i = 0; i < 8; ++i) {
    cluster::ClusterSubmitResult s = cl.submitCompress<f32>(
        "hot-tenant", std::span<const f32>(data), cfg);
    ASSERT_TRUE(s.accepted()) << s.detail;
    tickets.push_back(s.ticket);
  }

  cl.heartbeat();  // placement-cost-aware stealing while paused
  const cluster::ClusterStats mid = cl.stats();
  EXPECT_GT(mid.steals, 0u) << "an empty shard stole nothing";

  cl.resume();
  u32 stolen = 0;
  for (cluster::ClusterTicket& t : tickets) {
    const cluster::ClusterJobResult& r = t.wait();
    ASSERT_TRUE(r.job.ok) << r.job.error;
    if (r.steals > 0) {
      ++stolen;
      EXPECT_EQ(r.shard, idle);
    } else {
      EXPECT_EQ(r.shard, hot);
    }
  }
  EXPECT_EQ(static_cast<u64>(stolen), mid.steals);
  cl.shutdown();

  // Byte identity survives the move: compare one stolen result against
  // a serial compress of the same input.
  core::CompressorStream serial(cfg);
  const std::vector<std::byte> expected =
      serial.compress<f32>(std::span<const f32>(data)).stream;
  for (cluster::ClusterTicket& t : tickets) {
    EXPECT_EQ(t.result().job.compressed.stream, expected);
  }
}

// ---------------------------------------------------------------------
// Replicated archives

TEST(ClusterTest, ArchiveReplicaLossRepairsBitExactly) {
  telemetry::registry().setEnabled(false);
  cluster::ClusterConfig ccfg;
  ccfg.shards = 4;
  ccfg.replicas = 2;
  ccfg.shard.workers = 1;
  cluster::CompressionCluster cl(ccfg);

  // A real archive payload, sealed exactly as putArchive seals it.
  io::ArchiveWriter writer;
  const std::vector<f32> field = datagen::generateF32("cesm_atm", 0, 4096);
  core::CompressorStream stream(relConfig(1e-3));
  writer.addField(
      "t", stream.compress<f32>(std::span<const f32>(field)).stream);
  const std::vector<std::byte> raw = writer.finalize();
  const std::vector<std::byte> sealed =
      io::withParityTrailer(raw, ccfg.replicaParity);

  cl.putArchive("climate", "run-001", ConstByteSpan(raw));
  const u32 primary = cl.primaryShardFor("climate/run-001");

  // Clean read: served by the primary, byte-exact, no failover.
  cluster::CompressionCluster::ArchiveFetch clean =
      cl.getArchive("climate", "run-001");
  EXPECT_EQ(clean.archive, sealed);
  EXPECT_EQ(clean.shard, primary);
  EXPECT_EQ(clean.failovers, 0u);
  EXPECT_EQ(clean.repairs, 0u);

  // One flipped byte = one damaged chunk: the parity trailer self-heals
  // it without touching a replica.
  cl.corruptArchiveCopy(primary, "climate", "run-001", 100);
  cluster::CompressionCluster::ArchiveFetch healed =
      cl.getArchive("climate", "run-001");
  EXPECT_EQ(healed.archive, sealed);
  EXPECT_EQ(healed.shard, primary);
  EXPECT_EQ(healed.failovers, 0u);
  EXPECT_GE(healed.repairs, 1u);

  // Two damaged chunks in one parity group defeat XOR parity: the read
  // fails over to a replica and read-repairs the primary copy.
  cl.corruptArchiveCopy(primary, "climate", "run-001", 10);
  cl.corruptArchiveCopy(primary, "climate", "run-001",
                        ccfg.replicaParity.chunkBytes + 10);
  cluster::CompressionCluster::ArchiveFetch failed =
      cl.getArchive("climate", "run-001");
  EXPECT_EQ(failed.archive, sealed);
  EXPECT_NE(failed.shard, primary);
  EXPECT_GE(failed.failovers, 1u);
  EXPECT_GE(failed.repairs, 1u);

  // Read-repair restored the primary: the next read is clean again.
  cluster::CompressionCluster::ArchiveFetch again =
      cl.getArchive("climate", "run-001");
  EXPECT_EQ(again.archive, sealed);
  EXPECT_EQ(again.shard, primary);
  EXPECT_EQ(again.failovers, 0u);
  EXPECT_EQ(again.repairs, 0u);

  const cluster::ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.archivePuts, 1u);
  EXPECT_EQ(stats.archiveCopies, 2u);
  EXPECT_EQ(stats.archiveReads, 4u);
  EXPECT_GE(stats.archiveReadFailovers, 1u);
  EXPECT_GE(stats.archiveRepairs, 2u);
}

TEST(ClusterTest, ArchiveSurvivesPrimaryKillAndReviveReReplicates) {
  telemetry::registry().setEnabled(false);
  cluster::ClusterConfig ccfg;
  ccfg.shards = 4;
  ccfg.replicas = 2;
  ccfg.shard.workers = 1;
  cluster::CompressionCluster cl(ccfg);

  std::vector<std::byte> raw(10000);
  for (usize i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
  }
  const std::vector<std::byte> sealed =
      io::withParityTrailer(raw, ccfg.replicaParity);

  cl.putArchive("physics", "ckpt", ConstByteSpan(raw));
  const u32 primary = cl.primaryShardFor("physics/ckpt");

  // Lose the primary entirely: the read fails over to the follower and
  // read-repairs the set back to R=2 intact copies on live shards.
  cl.killShard(primary);
  cluster::CompressionCluster::ArchiveFetch fetch =
      cl.getArchive("physics", "ckpt");
  EXPECT_EQ(fetch.archive, sealed);
  EXPECT_NE(fetch.shard, primary);

  // Revive: the shard comes back empty and is re-replicated bit-exactly
  // from a digest-verified survivor. Prove it by killing every OTHER
  // shard and reading again — only the revived copy can serve.
  cl.reviveShard(primary);
  EXPECT_EQ(cl.shardState(primary), cluster::ShardState::Up);
  for (u32 s = 0; s < cl.shardCount(); ++s) {
    if (s != primary) cl.killShard(s);
  }
  cluster::CompressionCluster::ArchiveFetch revived =
      cl.getArchive("physics", "ckpt");
  EXPECT_EQ(revived.archive, sealed);
  EXPECT_EQ(revived.shard, primary);

  const cluster::ClusterStats stats = cl.stats();
  EXPECT_GE(stats.shardRevives, 1u);
  EXPECT_GE(stats.archiveRepairs, 1u);
}

// ---------------------------------------------------------------------
// Lifecycle

TEST(ClusterTest, ShutdownResolvesEveryTicketAndRejectsNewWork) {
  telemetry::registry().setEnabled(false);
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);

  cluster::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  cluster::CompressionCluster cl(ccfg);
  std::vector<cluster::ClusterTicket> tickets = submitAll(cl, reqs, cfg);

  // Shutdown drains paused shards fully: accepted work completes.
  cl.shutdown();
  for (cluster::ClusterTicket& t : tickets) {
    ASSERT_TRUE(t.poll()) << "shutdown left a ticket unresolved";
    EXPECT_EQ(t.result().job.outcome, service::Outcome::Completed);
  }

  const std::vector<f32> data = datagen::generateF32("hacc", 0, 256);
  cluster::ClusterSubmitResult late =
      cl.submitCompress<f32>("climate", std::span<const f32>(data), cfg);
  EXPECT_FALSE(late.accepted());
  EXPECT_EQ(late.reason, service::RejectReason::ShuttingDown);
  EXPECT_GE(cl.stats().rejected, 1u);
}

TEST(ClusterTest, ClientCancelBeforeDispatchResolvesCanceled) {
  telemetry::registry().setEnabled(false);
  cluster::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.shard.workers = 1;
  ccfg.startPaused = true;
  cluster::CompressionCluster cl(ccfg);

  const std::vector<f32> data = datagen::generateF32("jetin", 0, 2048);
  cluster::ClusterSubmitResult s = cl.submitCompress<f32>(
      "fluids", std::span<const f32>(data), relConfig(1e-3));
  ASSERT_TRUE(s.accepted());
  EXPECT_TRUE(s.ticket.cancel());
  EXPECT_TRUE(s.ticket.poll());
  EXPECT_EQ(s.ticket.result().job.outcome, service::Outcome::Canceled);

  cl.resume();
  cl.shutdown();
  const cluster::ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.canceled, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ClusterTest, ClusterMetricsAppearInSnapshot) {
  telemetry::registry().setEnabled(true);
  telemetry::registry().reset();

  cluster::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.shard.workers = 1;
  cluster::CompressionCluster cl(ccfg);

  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1024);
  cluster::ClusterSubmitResult s = cl.submitCompress<f32>(
      "climate", std::span<const f32>(data), relConfig(1e-3));
  ASSERT_TRUE(s.accepted());
  s.ticket.wait();
  cl.heartbeat();
  const std::vector<std::byte> blob(64, std::byte{0x5A});
  cl.putArchive("climate", "m", ConstByteSpan(blob));
  cl.getArchive("climate", "m");
  cl.shutdown();

  const std::string json = telemetry::registry().snapshotJson();
  EXPECT_NE(json.find("cluster.submitted"), std::string::npos);
  EXPECT_NE(json.find("cluster.accepted"), std::string::npos);
  EXPECT_NE(json.find("cluster.completed"), std::string::npos);
  EXPECT_NE(json.find("cluster.heartbeats"), std::string::npos);
  EXPECT_NE(json.find("cluster.shard.0.state"), std::string::npos);
  EXPECT_NE(json.find("cluster.shard.1.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("cluster.archive.puts"), std::string::npos);
  EXPECT_NE(json.find("cluster.archive.reads"), std::string::npos);
  telemetry::registry().setEnabled(false);
}
