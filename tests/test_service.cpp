// CompressionService: scheduling, admission control, batching and
// lifecycle guarantees.
//
// The load-bearing acceptance test is
// ByteIdenticalToSerialStreamAndFewerLaunches: a seeded 4-tenant mixed
// workload through the service must produce byte-identical compressed
// output to serial per-request CompressorStream calls, while the batching
// scheduler shows fewer total launches in the kernel telemetry table and
// the queue/wait metrics appear in snapshotJson.
//
// Determinism recipe used throughout: workers = 1 + startPaused = true +
// submit everything + resume() gives a fully known queue at dispatch time,
// so batch formation and dispatch order are exact, not statistical.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/format.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "service/chaos.hpp"
#include "service/service.hpp"
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

// 4 tenants, mixed sizes, all with the same Config so jobs coalesce
// across tenants.
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

u64 kernelLaunches(const std::string& kernel) {
  for (const telemetry::KernelRow& row :
       telemetry::registry().snapshotKernels()) {
    if (row.name == kernel) return row.launches;
  }
  return 0;
}

}  // namespace

TEST(ServiceTest, ByteIdenticalToSerialStreamAndFewerLaunches) {
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);

  // Serial reference, with the registry off so only the service run is
  // counted in the kernel table.
  telemetry::registry().setEnabled(false);
  std::vector<std::vector<std::byte>> expected;
  {
    core::CompressorStream serial(cfg);
    for (const Request& r : reqs) {
      const std::vector<f32> data = fieldFor(r);
      expected.push_back(
          serial.compress<f32>(std::span<const f32>(data)).stream);
    }
  }

  telemetry::registry().setEnabled(true);
  telemetry::registry().reset();

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 4;
  service::CompressionService svc(scfg);

  std::vector<service::Ticket> tickets;
  for (const Request& r : reqs) {
    const std::vector<f32> data = fieldFor(r);
    service::SubmitResult s =
        svc.submitCompress<f32>(r.tenant, std::span<const f32>(data), cfg);
    ASSERT_TRUE(s.accepted()) << s.detail;
    tickets.push_back(s.ticket);
  }
  svc.resume();
  EXPECT_TRUE(svc.shutdown());

  for (usize i = 0; i < tickets.size(); ++i) {
    const service::JobResult& r = tickets[i].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.compressed.stream, expected[i])
        << "job " << i << " (" << reqs[i].tenant
        << ") is not byte-identical to the serial stream";
  }

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, reqs.size());
  EXPECT_LT(stats.batches, static_cast<u64>(reqs.size()))
      << "batching scheduler did not coalesce anything";
  EXPECT_GT(stats.launchesSaved(), 0u);

  // The fused launches are visible in the kernel telemetry table: fewer
  // `compress` launches than jobs, exactly one per batch.
  const u64 launches = kernelLaunches("compress");
  EXPECT_GT(launches, 0u);
  EXPECT_LT(launches, static_cast<u64>(reqs.size()));
  EXPECT_EQ(launches, stats.batches);

  // Queue/wait metrics and per-tenant counters appear in the snapshot.
  const std::string json = telemetry::registry().snapshotJson();
  EXPECT_NE(json.find("service.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("service.wait_us"), std::string::npos);
  EXPECT_NE(json.find("service.service_us"), std::string::npos);
  EXPECT_NE(json.find("service.batch_jobs"), std::string::npos);
  EXPECT_NE(json.find("service.tenant.climate.jobs"), std::string::npos);
  EXPECT_NE(json.find("service.tenant.tiny.bytes_out"), std::string::npos);
}

TEST(ServiceTest, UnbatchedModeMatchesJobCount) {
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;
  service::CompressionService svc(scfg);
  std::vector<service::Ticket> tickets;
  for (const Request& r : reqs) {
    const std::vector<f32> data = fieldFor(r);
    tickets.push_back(
        svc.submitCompress<f32>(r.tenant, std::span<const f32>(data), cfg)
            .ticket);
  }
  svc.resume();
  svc.shutdown();
  for (const service::Ticket& t : tickets) EXPECT_TRUE(t.wait().ok);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, static_cast<u64>(reqs.size()));
  EXPECT_EQ(stats.launchesSaved(), 0u);
}

TEST(ServiceTest, BatchedDecompressByteIdenticalAndFewerLaunches) {
  const std::vector<Request> reqs = mixedWorkload();
  const core::Config cfg = relConfig(1e-3);

  // Serial reference: compress each field and decompress it back, with
  // the registry off so only the service run lands in the kernel table.
  telemetry::registry().setEnabled(false);
  std::vector<std::vector<std::byte>> streams;
  std::vector<std::vector<f32>> expected;
  {
    core::CompressorStream serial(cfg);
    for (const Request& r : reqs) {
      const std::vector<f32> data = fieldFor(r);
      streams.push_back(
          serial.compress<f32>(std::span<const f32>(data)).stream);
      expected.push_back(serial.decompress<f32>(streams.back()).data);
    }
  }

  telemetry::registry().setEnabled(true);
  telemetry::registry().reset();

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 4;
  service::CompressionService svc(scfg);
  std::vector<service::Ticket> tickets;
  for (usize i = 0; i < reqs.size(); ++i) {
    service::SubmitResult s =
        svc.submitDecompress(reqs[i].tenant, streams[i]);
    ASSERT_TRUE(s.accepted()) << s.detail;
    tickets.push_back(s.ticket);
  }
  svc.resume();
  EXPECT_TRUE(svc.shutdown());

  for (usize i = 0; i < tickets.size(); ++i) {
    const service::JobResult& r = tickets[i].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.decodedElements, expected[i].size());
    ASSERT_EQ(r.decompressed.size(), expected[i].size() * sizeof(f32));
    EXPECT_EQ(std::memcmp(r.decompressed.data(), expected[i].data(),
                          r.decompressed.size()),
              0)
        << "job " << i << " (" << reqs[i].tenant
        << ") is not byte-identical to the serial decode";
    EXPECT_GT(r.decompressProfile.endToEndGBps, 0.0);
  }

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, reqs.size());
  EXPECT_LT(stats.batches, static_cast<u64>(reqs.size()))
      << "decompress jobs were not coalesced";

  const u64 launches = kernelLaunches("decompress");
  EXPECT_GT(launches, 0u);
  EXPECT_LT(launches, static_cast<u64>(reqs.size()));
}

// Guards the whole point of batching: a fused launch must not cost more
// wall-clock than dispatching the same jobs one by one. Uses the bench
// workload shape (4 tenants x 4 rounds, mixed sizes, shared Config)
// against a warm persistent service — cold construction would measure
// arena growth, not scheduling. Minimum over several passes with a noise
// tolerance keeps the assertion stable on loaded machines while still
// catching a real regression of the coalescing path.
TEST(ServiceTest, BatchedWallClockNoSlowerThanUnbatched) {
  const core::Config cfg = relConfig(1e-3);
  std::vector<Request> reqs;
  const char* datasets[4] = {"cesm_atm", "hacc", "jetin", "cesm_atm"};
  const usize sizes[4] = {32768, 65536, 16384, 8192};
  for (u32 round = 0; round < 4; ++round) {
    for (u32 t = 0; t < 4; ++t) {
      const u32 numFields = datagen::datasetInfo(datasets[t]).numFields;
      reqs.push_back(Request{"tenant" + std::to_string(t), datasets[t],
                             round % numFields, sizes[t]});
    }
  }
  std::vector<std::vector<f32>> fields;
  for (const Request& r : reqs) fields.push_back(fieldFor(r));

  const auto measure = [&](u32 maxBatchJobs) {
    service::ServiceConfig scfg;
    scfg.workers = 1;
    scfg.startPaused = true;
    scfg.maxBatchJobs = maxBatchJobs;
    service::CompressionService svc(scfg);
    const auto pass = [&]() {
      svc.pause();
      std::vector<service::Ticket> tickets;
      for (usize i = 0; i < reqs.size(); ++i) {
        service::SubmitResult s = svc.submitCompress<f32>(
            reqs[i].tenant, std::span<const f32>(fields[i]), cfg);
        EXPECT_TRUE(s.accepted()) << s.detail;
        tickets.push_back(s.ticket);
      }
      svc.resume();
      for (const service::Ticket& t : tickets) EXPECT_TRUE(t.wait().ok);
    };
    pass();  // warm-up: grows the arena and pays one-time setup
    f64 best = std::numeric_limits<f64>::infinity();
    for (int i = 0; i < 5; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      pass();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<f64>(t1 - t0).count());
    }
    svc.shutdown();
    return best;
  };

  // One OS scheduling spike can invert a ~20 ms comparison; re-measure up
  // to three times and only fail if batched loses every round.
  f64 batched = 0.0;
  f64 unbatched = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    batched = measure(8);
    unbatched = measure(1);
    if (batched <= unbatched * 1.15) break;
  }
  EXPECT_LE(batched, unbatched * 1.15)
      << "batched " << batched * 1e3 << " ms vs unbatched "
      << unbatched * 1e3 << " ms";
}

TEST(ServiceProperty, PerTenantFifoOrderPreserved) {
  // 3 tenants x 20 interleaved jobs on 2 workers; whatever the global
  // interleaving, each tenant's dispatch ordinals must be increasing in
  // its submission order.
  const std::vector<std::string> tenantNames = {"a", "b", "c"};
  const core::Config cfg = relConfig(1e-3);
  service::ServiceConfig scfg;
  scfg.workers = 2;
  scfg.startPaused = true;
  service::CompressionService svc(scfg);

  std::map<std::string, std::vector<service::Ticket>> perTenant;
  for (u32 j = 0; j < 20; ++j) {
    for (const std::string& tenant : tenantNames) {
      const std::vector<f32> data =
          datagen::generateF32("cesm_atm", j % 6, 256 + 64 * j);
      perTenant[tenant].push_back(
          svc.submitCompress<f32>(tenant, std::span<const f32>(data), cfg)
              .ticket);
    }
  }
  svc.resume();
  EXPECT_TRUE(svc.shutdown());

  for (const auto& [tenant, tickets] : perTenant) {
    u64 lastSeq = 0;
    for (usize i = 0; i < tickets.size(); ++i) {
      const service::JobResult& r = tickets[i].wait();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_GT(r.dispatchSeq, lastSeq)
          << "tenant " << tenant << " job " << i
          << " dispatched out of submission order";
      lastSeq = r.dispatchSeq;
    }
  }
}

TEST(ServiceProperty, HotTenantDoesNotStarveColdTenant) {
  // Distinct configs per tenant prevent cross-tenant coalescing, so the
  // round-robin tie-break is directly visible in the dispatch ordinals.
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 4;
  service::CompressionService svc(scfg);

  std::vector<service::Ticket> hot;
  std::vector<service::Ticket> cold;
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1024);
  for (u32 j = 0; j < 100; ++j) {
    hot.push_back(svc.submitCompress<f32>("hot", std::span<const f32>(data),
                                          relConfig(1e-3))
                      .ticket);
  }
  for (u32 j = 0; j < 4; ++j) {
    cold.push_back(svc.submitCompress<f32>(
                          "cold", std::span<const f32>(data), relConfig(1e-2))
                       .ticket);
  }
  svc.resume();
  EXPECT_TRUE(svc.shutdown());

  u64 coldLast = 0;
  for (const service::Ticket& t : cold) {
    coldLast = std::max(coldLast, t.wait().dispatchSeq);
  }
  // Round-robin at equal priority alternates lanes, so all 4 cold jobs are
  // dispatched within the first few batches despite 100 queued hot jobs.
  EXPECT_LE(coldLast, 2u * (4 + 1) * scfg.maxBatchJobs)
      << "cold tenant was starved behind the hot tenant";
  for (const service::Ticket& t : hot) EXPECT_TRUE(t.wait().ok);
}

TEST(ServiceProperty, BackpressureRejectsDeterministicallyAtDepth) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;  // nothing drains: depth is exact
  scfg.maxQueueDepth = 5;
  service::CompressionService svc(scfg);

  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 256);
  const core::Config cfg = relConfig(1e-3);
  std::vector<service::Ticket> tickets;
  for (u32 j = 0; j < 5; ++j) {
    service::SubmitResult s =
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg);
    ASSERT_TRUE(s.accepted()) << "submission " << j << ": " << s.detail;
    tickets.push_back(s.ticket);
  }
  // The (maxQueueDepth + 1)-th outstanding submission is refused — every
  // time, not probabilistically.
  for (u32 j = 0; j < 3; ++j) {
    service::SubmitResult s =
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg);
    ASSERT_FALSE(s.accepted());
    EXPECT_EQ(s.reason, service::RejectReason::QueueFull);
    EXPECT_FALSE(s.ticket.valid());
    EXPECT_THROW(s.ticket.wait(), Error);
  }
  EXPECT_EQ(svc.queueDepth(), 5u);
  EXPECT_EQ(svc.stats().rejectedQueueFull, 3u);

  // Draining frees the slots; submissions are accepted again.
  svc.resume();
  for (const service::Ticket& t : tickets) EXPECT_TRUE(t.wait().ok);
  service::SubmitResult s =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg);
  EXPECT_TRUE(s.accepted());
  svc.shutdown();
  EXPECT_TRUE(s.ticket.wait().ok);
}

TEST(ServiceProperty, TenantQuotaShedsOnlyTheOffendingTenant) {
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1024);
  const u64 jobBytes = data.size() * sizeof(f32);

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.tenantQuotaBytes = 2 * jobBytes;
  service::CompressionService svc(scfg);

  const core::Config cfg = relConfig(1e-3);
  std::vector<service::Ticket> tickets;
  for (u32 j = 0; j < 2; ++j) {
    service::SubmitResult s =
        svc.submitCompress<f32>("greedy", std::span<const f32>(data), cfg);
    ASSERT_TRUE(s.accepted()) << s.detail;
    tickets.push_back(s.ticket);
  }
  service::SubmitResult over =
      svc.submitCompress<f32>("greedy", std::span<const f32>(data), cfg);
  ASSERT_FALSE(over.accepted());
  EXPECT_EQ(over.reason, service::RejectReason::QuotaExceeded);

  // Quotas are per tenant: another tenant's bytes are unaffected.
  service::SubmitResult other =
      svc.submitCompress<f32>("frugal", std::span<const f32>(data), cfg);
  EXPECT_TRUE(other.accepted());
  tickets.push_back(other.ticket);

  svc.resume();
  EXPECT_TRUE(svc.shutdown());
  for (const service::Ticket& t : tickets) EXPECT_TRUE(t.wait().ok);
  EXPECT_EQ(svc.stats().rejectedQuota, 1u);
}

TEST(ServiceProperty, ShutdownCompletesAllAcceptedTickets) {
  service::ServiceConfig scfg;
  scfg.workers = 2;
  service::CompressionService svc(scfg);
  const core::Config cfg = relConfig(1e-3);

  std::vector<service::Ticket> tickets;
  for (u32 j = 0; j < 50; ++j) {
    const std::vector<f32> data =
        datagen::generateF32("hacc", j % 6, 512 + 32 * j);
    service::SubmitResult s =
        svc.submitCompress<f32>("t" + std::to_string(j % 4),
                                std::span<const f32>(data), cfg);
    ASSERT_TRUE(s.accepted());
    tickets.push_back(s.ticket);
  }
  EXPECT_TRUE(svc.shutdown());
  for (const service::Ticket& t : tickets) {
    EXPECT_TRUE(t.poll()) << "accepted ticket unfinished after shutdown";
    EXPECT_TRUE(t.result().ok) << t.result().error;
  }

  // Post-shutdown submissions shed with the ShuttingDown reason.
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 256);
  service::SubmitResult late =
      svc.submitCompress<f32>("t0", std::span<const f32>(data), cfg);
  ASSERT_FALSE(late.accepted());
  EXPECT_EQ(late.reason, service::RejectReason::ShuttingDown);
  // Idempotent.
  EXPECT_TRUE(svc.shutdown());
}

TEST(ServiceProperty, ShutdownDeadlineAbandonsQueuedJobsButAllFinish) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;
  service::CompressionService svc(scfg);
  const core::Config cfg = relConfig(1e-3);

  // Pin the single worker on one long job, then queue 10 short ones
  // behind it. The zero-length drain budget expires while the long job is
  // still running, so the queued jobs are abandoned deterministically
  // (scheduler jitter cannot outlast a multi-millisecond compress).
  svc.resume();
  const std::vector<f32> big = datagen::generateF32("hacc", 0, 4 << 20);
  std::vector<service::Ticket> tickets;
  tickets.push_back(
      svc.submitCompress<f32>("t", std::span<const f32>(big), cfg).ticket);
  while (svc.stats().dispatched == 0) std::this_thread::yield();
  const std::vector<f32> data = datagen::generateF32("hacc", 1, 65536);
  for (u32 j = 0; j < 10; ++j) {
    tickets.push_back(
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg)
            .ticket);
  }
  EXPECT_FALSE(svc.shutdown(std::chrono::milliseconds(0)));
  // Every accepted ticket still finishes — either it ran before the queue
  // was drained or it carries the abandonment error.
  u64 ran = 0;
  u64 abandoned = 0;
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    if (r.ok) {
      ++ran;
    } else {
      ++abandoned;
      EXPECT_NE(r.error.find("abandoned"), std::string::npos) << r.error;
    }
  }
  EXPECT_EQ(ran + abandoned, 11u);
  EXPECT_GE(ran, 1u);  // the in-flight job always completes
  EXPECT_GE(abandoned, 1u);
  EXPECT_EQ(svc.stats().completed + svc.stats().abandoned, 11u);
  EXPECT_EQ(svc.queueDepth(), 0u);
}

TEST(ServiceTest, CancelBeforeDispatchReleasesSlot) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxQueueDepth = 3;
  service::CompressionService svc(scfg);
  const core::Config cfg = relConfig(1e-3);
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 512);

  std::vector<service::Ticket> tickets;
  for (u32 j = 0; j < 3; ++j) {
    tickets.push_back(
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg)
            .ticket);
  }
  EXPECT_EQ(svc.queueDepth(), 3u);
  EXPECT_TRUE(tickets[1].cancel());
  EXPECT_FALSE(tickets[1].cancel());  // already canceled
  EXPECT_EQ(svc.queueDepth(), 2u);    // slot released immediately
  EXPECT_TRUE(tickets[1].poll());
  EXPECT_TRUE(tickets[1].result().canceled);

  // The freed slot is usable while still paused.
  service::SubmitResult refill =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg);
  EXPECT_TRUE(refill.accepted());

  svc.resume();
  EXPECT_TRUE(svc.shutdown());
  EXPECT_TRUE(tickets[0].wait().ok);
  EXPECT_TRUE(tickets[2].wait().ok);
  EXPECT_TRUE(refill.ticket.wait().ok);
  EXPECT_FALSE(tickets[0].cancel());  // finished jobs cannot be canceled
  EXPECT_EQ(svc.stats().completed, 3u);
}

TEST(ServiceTest, PriorityRunsBeforeBacklogWhenUnbatched) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;  // coalescing off: strict priority order
  service::CompressionService svc(scfg);
  const core::Config cfg = relConfig(1e-3);
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 512);

  std::vector<service::Ticket> background;
  std::vector<service::Ticket> urgent;
  for (u32 j = 0; j < 3; ++j) {
    background.push_back(
        svc.submitCompress<f32>("bg", std::span<const f32>(data), cfg,
                                /*priority=*/5)
            .ticket);
  }
  for (u32 j = 0; j < 3; ++j) {
    urgent.push_back(svc.submitCompress<f32>(
                            "rt", std::span<const f32>(data), cfg,
                            /*priority=*/0)
                         .ticket);
  }
  svc.resume();
  EXPECT_TRUE(svc.shutdown());
  u64 urgentMax = 0;
  u64 backgroundMin = ~u64{0};
  for (const service::Ticket& t : urgent) {
    urgentMax = std::max(urgentMax, t.wait().dispatchSeq);
  }
  for (const service::Ticket& t : background) {
    backgroundMin = std::min(backgroundMin, t.wait().dispatchSeq);
  }
  EXPECT_LT(urgentMax, backgroundMin)
      << "priority-0 jobs must dispatch before the priority-5 backlog";
}

TEST(ServiceTest, DecompressRoundTripThroughService) {
  const std::vector<f32> original = datagen::generateF32("jetin", 0, 4096);
  const core::Config cfg = relConfig(1e-3);
  core::CompressorStream serial(cfg);
  const core::Compressed c =
      serial.compress<f32>(std::span<const f32>(original));
  const core::Decompressed<f32> expected = serial.decompress<f32>(c.stream);

  service::CompressionService svc(service::ServiceConfig{.workers = 1});
  service::SubmitResult s = svc.submitDecompress("t", c.stream);
  ASSERT_TRUE(s.accepted());
  const service::JobResult& r = s.ticket.wait();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.decodedElements, expected.data.size());
  ASSERT_EQ(r.decompressed.size(), expected.data.size() * sizeof(f32));
  EXPECT_EQ(std::memcmp(r.decompressed.data(), expected.data.data(),
                        r.decompressed.size()),
            0);
  svc.shutdown();
}

TEST(ServiceTest, WorkersAreDeviceAffine) {
  service::ServiceConfig scfg;
  scfg.workers = 3;
  service::CompressionService svc(scfg);
  ASSERT_EQ(svc.devices().size(), 3u);
  for (usize i = 0; i < svc.devices().size(); ++i) {
    EXPECT_NE(svc.devices()[i].name.find("[dev" + std::to_string(i) + "]"),
              std::string::npos)
        << svc.devices()[i].name;
  }

  const core::Config cfg = relConfig(1e-3);
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1024);
  std::vector<service::Ticket> tickets;
  for (u32 j = 0; j < 24; ++j) {
    tickets.push_back(
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg)
            .ticket);
  }
  EXPECT_TRUE(svc.shutdown());
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    ASSERT_TRUE(r.ok);
    ASSERT_LT(r.worker, 3u);
    // Each job reports the device its worker is pinned to.
    EXPECT_EQ(r.device, svc.devices()[r.worker].name);
  }
}

// ---- Fault tolerance: watchdog, retries, breaker, degraded decode ----------

namespace {

core::Config faultTolerantConfig() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = true;
  cfg.blockChecksums = true;
  cfg.faultRetries = 2;
  return cfg;
}

/// A hook faulting exactly the given job id's first attempt.
service::ChaosHook faultJobOnce(u64 jobId, gpusim::FaultPlan fault) {
  return [jobId, fault](const service::ChaosJobInfo& info)
             -> std::optional<gpusim::FaultPlan> {
    if (info.jobId == jobId && info.attempt == 0) return fault;
    return std::nullopt;
  };
}

}  // namespace

// Satellite regression: cancel() must release the tenant's outstanding-byte
// quota at the cancel commit point, not at shutdown — a canceled job's
// bytes were previously stuck in the quota until the service drained.
TEST(ServiceTest, CancelReleasesQuotaAtCommitPoint) {
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1024);
  const u64 jobBytes = data.size() * sizeof(f32);

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.tenantQuotaBytes = 2 * jobBytes;
  service::CompressionService svc(scfg);
  const core::Config cfg = relConfig(1e-3);

  service::Ticket a =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg).ticket;
  service::Ticket b =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg).ticket;
  EXPECT_EQ(svc.tenantOutstandingBytes("t"), 2 * jobBytes);
  ASSERT_FALSE(
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg)
          .accepted());

  // The cancel commit point releases the quota immediately — while the
  // service is still paused, before any dispatch or shutdown.
  ASSERT_TRUE(b.cancel());
  EXPECT_EQ(svc.tenantOutstandingBytes("t"), jobBytes);
  service::SubmitResult refill =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg);
  EXPECT_TRUE(refill.accepted()) << refill.detail;
  EXPECT_EQ(b.result().outcome, service::Outcome::Canceled);

  svc.resume();
  EXPECT_TRUE(svc.shutdown());
  EXPECT_TRUE(a.wait().ok);
  EXPECT_TRUE(refill.ticket.wait().ok);
  EXPECT_EQ(svc.tenantOutstandingBytes("t"), 0u);
}

// Satellite: jobs abandoned by a shutdown deadline carry the typed
// Abandoned outcome, not just a free-text error.
TEST(ServiceTest, AbandonedJobsCarryTypedOutcome) {
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;
  service::CompressionService svc(scfg);
  const core::Config cfg = relConfig(1e-3);

  svc.resume();
  const std::vector<f32> big = datagen::generateF32("hacc", 0, 4 << 20);
  std::vector<service::Ticket> tickets;
  tickets.push_back(
      svc.submitCompress<f32>("t", std::span<const f32>(big), cfg).ticket);
  while (svc.stats().dispatched == 0) std::this_thread::yield();
  const std::vector<f32> data = datagen::generateF32("hacc", 1, 65536);
  for (u32 j = 0; j < 6; ++j) {
    tickets.push_back(
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg)
            .ticket);
  }
  EXPECT_FALSE(svc.shutdown(std::chrono::milliseconds(0)));
  u64 abandoned = 0;
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    if (r.ok) {
      EXPECT_EQ(r.outcome, service::Outcome::Completed);
      continue;
    }
    ++abandoned;
    EXPECT_EQ(r.outcome, service::Outcome::Abandoned);
    EXPECT_EQ(r.attempts, 0u);  // never dispatched
  }
  EXPECT_GE(abandoned, 1u);
}

// Tentpole: a job wedged by a chaos fault is recovered by the watchdog —
// requeued, relaunched, and completed with byte-identical output while
// the wedged execution's late result is discarded.
TEST(ServiceTest, WatchdogRecoversWedgedJobOnAnotherWorker) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 4096);
  core::CompressorStream serial(cfg);
  const std::vector<std::byte> expected =
      serial.compress<f32>(std::span<const f32>(data)).stream;

  service::ServiceConfig scfg;
  scfg.workers = 2;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;
  scfg.watchdog.pollMillis = 5;
  scfg.watchdog.minTimeoutMillis = 30;
  scfg.watchdog.maxRecoveries = 1;
  gpusim::FaultPlan wedge;
  wedge.wedgeTicks = 300;  // 300 ms >> the 30 ms watchdog deadline
  scfg.chaosHook = faultJobOnce(1, wedge);
  service::CompressionService svc(scfg);

  std::vector<service::Ticket> tickets;
  for (u32 j = 0; j < 4; ++j) {
    tickets.push_back(
        svc.submitCompress<f32>("t", std::span<const f32>(data), cfg)
            .ticket);
  }
  svc.resume();
  for (const service::Ticket& t : tickets) {
    ASSERT_TRUE(t.waitFor(std::chrono::seconds(30)));
    const service::JobResult& r = t.result();
    EXPECT_EQ(r.outcome, service::Outcome::Completed) << r.error;
    EXPECT_EQ(r.compressed.stream, expected);
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.watchdogRecoveries, 1u);
  EXPECT_EQ(stats.chaosInjected, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(tickets[0].result().recoveries, 1u);
  svc.shutdown();
}

// Tentpole: a transient arena-exhaustion fault fails the first attempt;
// the retry policy backs off and the second attempt completes.
TEST(ServiceTest, RetryAbsorbsTransientArenaExhaustion) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("hacc", 0, 4096);

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.startPaused = true;
  scfg.maxBatchJobs = 1;
  scfg.retry.maxAttempts = 2;
  gpusim::FaultPlan fault;
  fault.arenaBudgetBytes = 1;
  scfg.chaosHook = faultJobOnce(1, fault);
  service::CompressionService svc(scfg);

  service::Ticket t =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg).ticket;
  svc.resume();
  EXPECT_TRUE(svc.shutdown());
  const service::JobResult& r = t.wait();
  EXPECT_EQ(r.outcome, service::Outcome::Completed) << r.error;
  EXPECT_EQ(r.attempts, 2u);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.retriesExhausted, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

// A fault that outlasts every attempt fails the job with a typed outcome
// and the last error preserved (compress jobs have no degraded fallback).
TEST(ServiceTest, RetriesExhaustedFailsCompressJob) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("hacc", 0, 4096);

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.retry.maxAttempts = 2;
  scfg.retry.backoffBaseMillis = 0;  // no backoff: keep the test fast
  scfg.chaosHook = [](const service::ChaosJobInfo&) {
    gpusim::FaultPlan fault;  // every attempt, every job
    fault.arenaBudgetBytes = 1;
    return std::optional<gpusim::FaultPlan>(fault);
  };
  service::CompressionService svc(scfg);

  service::Ticket t =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg).ticket;
  const service::JobResult& r = t.wait();
  EXPECT_EQ(r.outcome, service::Outcome::Failed);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_NE(r.error.find("exhaustion"), std::string::npos) << r.error;
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.retriesExhausted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  svc.shutdown();
}

// Satellite regression: a retry waking from its backoff sleep after the
// shutdown drain already swept the lanes must resolve Abandoned — it used
// to silently re-enter the queue and run past the caller's deadline.
TEST(ServiceTest, RetryRequeueAfterDrainResolvesAbandoned) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("hacc", 0, 4096);

  // Pick a jitter seed whose (job 1, attempt 1) draw sleeps >= 400 ms —
  // same formula as CompressionService::backoffSleep, so the chosen seed
  // deterministically gives shutdown time to sweep the lanes first.
  u64 jitterSeed = 0;
  for (u64 s = 0;; ++s) {
    Rng rng(keyedStream(s, /*jobId=*/1, /*attempt=*/1).next());
    if (1 + rng.uniformInt(500) >= 400) {
      jitterSeed = s;
      break;
    }
  }

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.watchdog.enabled = false;  // isolate the retry-requeue path
  scfg.retry.maxAttempts = 2;
  scfg.retry.backoffBaseMillis = 500;
  scfg.retry.backoffCapMillis = 500;
  scfg.retry.jitterSeed = jitterSeed;
  gpusim::FaultPlan fault;
  fault.arenaBudgetBytes = 1;
  scfg.chaosHook = faultJobOnce(1, fault);
  service::CompressionService svc(scfg);

  service::Ticket t =
      svc.submitCompress<f32>("t", std::span<const f32>(data), cfg).ticket;

  // Wait for the failed first attempt to enter its backoff sleep...
  while (svc.stats().retries == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...then shut down with a deadline far shorter than the backoff. The
  // drain sweep finds the lanes empty (the job is asleep on the worker);
  // when its requeue lands it must resolve, not re-run to completion.
  EXPECT_FALSE(svc.shutdown(std::chrono::milliseconds(10)));

  ASSERT_TRUE(t.poll()) << "shutdown returned with the ticket unresolved";
  const service::JobResult& r = t.result();
  EXPECT_EQ(r.outcome, service::Outcome::Abandoned);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("after the shutdown drain"), std::string::npos)
      << r.error;
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.abandoned, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

// Tentpole: a decompress job whose stream is corrupt exhausts its strict
// attempts, then degrades to decompressResilient — typed Degraded outcome,
// salvage report attached, intact blocks delivered.
TEST(ServiceTest, DegradedDecodeSalvagesCorruptStream) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 8192);
  core::CompressorStream serial(cfg);
  std::vector<std::byte> stream =
      serial.compress<f32>(std::span<const f32>(data)).stream;
  // Smash payload bytes; the header stays intact so salvage can frame.
  for (usize k = 0; k < 16; ++k) {
    stream[stream.size() / 2 + k * 13] ^= std::byte{0x5A};
  }
  const core::Salvaged<f32> reference =
      serial.decompressResilient<f32>(stream);
  ASSERT_FALSE(reference.report.clean());

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.retry.maxAttempts = 2;
  scfg.retry.backoffBaseMillis = 0;
  service::CompressionService svc(scfg);
  service::Ticket t = svc.submitDecompress("t", stream, cfg).ticket;
  const service::JobResult& r = t.wait();

  EXPECT_EQ(r.outcome, service::Outcome::Degraded);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.decodeReport.totalBlocks, reference.report.totalBlocks);
  EXPECT_EQ(r.decodeReport.badBlocks, reference.report.badBlocks);
  ASSERT_EQ(r.decompressed.size(), reference.data.size() * sizeof(f32));
  EXPECT_EQ(std::memcmp(r.decompressed.data(), reference.data.data(),
                        r.decompressed.size()),
            0);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.failed, 0u);  // degraded is its own terminal bucket
  svc.shutdown();
}

// Degraded decode can be disabled: the job then fails outright.
TEST(ServiceTest, DegradedDecodeCanBeDisabled) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 4096);
  core::CompressorStream serial(cfg);
  std::vector<std::byte> stream =
      serial.compress<f32>(std::span<const f32>(data)).stream;
  for (usize k = 0; k < 8; ++k) {
    stream[stream.size() / 2 + k * 17] ^= std::byte{0x5A};
  }

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.retry.maxAttempts = 1;
  scfg.degradedDecode = false;
  service::CompressionService svc(scfg);
  service::Ticket t = svc.submitDecompress("t", stream, cfg).ticket;
  const service::JobResult& r = t.wait();
  EXPECT_EQ(r.outcome, service::Outcome::Failed);
  EXPECT_EQ(svc.stats().degraded, 0u);
  svc.shutdown();
}

// Satellite property test: FaultPlan corruption + decompressResilient
// under the service path. Seeded trials corrupt a stream's payload; the
// degraded result must quarantine exactly the damaged blocks and keep
// every intact block inside the configured error bound.
TEST(ServiceProperty, SalvageUnderServiceQuarantinesAndBoundsIntactBlocks) {
  core::Config cfg;
  cfg.absErrorBound = 1e-2;
  cfg.checksum = true;
  cfg.blockChecksums = true;
  cfg.faultRetries = 1;

  service::ServiceConfig scfg;
  scfg.workers = 2;
  scfg.retry.maxAttempts = 1;
  scfg.retry.backoffBaseMillis = 0;
  scfg.breaker.threshold = 0;  // every trial degrades; don't trip it
  service::CompressionService svc(scfg);

  core::CompressorStream serial(cfg);
  Rng rng(0xC0FFEEull);
  for (u32 trial = 0; trial < 10; ++trial) {
    const usize elems = 2048 + 512 * (trial % 5);
    const std::vector<f32> data =
        datagen::generateF32("scale", trial % 12, elems);
    std::vector<std::byte> stream =
        serial.compress<f32>(std::span<const f32>(data)).stream;
    const auto header = core::StreamHeader::parse(stream);
    const usize payloadBegin = header.payloadBegin();
    if (payloadBegin >= stream.size()) continue;
    const u32 corruptions = 1 + static_cast<u32>(rng.uniformInt(4));
    for (u32 k = 0; k < corruptions; ++k) {
      const usize pos =
          payloadBegin + rng.uniformInt(stream.size() - payloadBegin);
      stream[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    }

    service::Ticket t = svc.submitDecompress("fuzz", stream, cfg).ticket;
    const service::JobResult& r = t.wait();
    ASSERT_TRUE(r.outcome == service::Outcome::Degraded ||
                r.outcome == service::Outcome::Completed)
        << toString(r.outcome) << ": " << r.error;
    if (r.outcome == service::Outcome::Completed) continue;  // flip undone

    ASSERT_EQ(r.decompressed.size(), data.size() * sizeof(f32));
    const f32* got = reinterpret_cast<const f32*>(r.decompressed.data());
    const auto& rep = r.decodeReport;
    EXPECT_GT(rep.badBlocks, 0u) << "trial " << trial;
    EXPECT_EQ(rep.goodBlocks + rep.badBlocks, rep.totalBlocks);
    ASSERT_EQ(rep.verdicts.size(), rep.totalBlocks);
    const usize blockSize = cfg.blockSize;
    for (u64 b = 0; b < rep.totalBlocks; ++b) {
      const usize begin = b * blockSize;
      const usize end = std::min(begin + blockSize, data.size());
      if (rep.verdicts[b] == core::BlockVerdict::Good) {
        for (usize i = begin; i < end; ++i) {
          ASSERT_LE(std::abs(got[i] - data[i]), cfg.absErrorBound + 1e-7)
              << "trial " << trial << " intact block " << b
              << " violates the bound at element " << i;
        }
      } else {
        for (usize i = begin; i < end; ++i) {
          ASSERT_EQ(got[i], 0.0f)
              << "trial " << trial << " quarantined block " << b
              << " leaked non-fill data at element " << i;
        }
      }
    }
  }
  svc.shutdown();
}

// Tentpole: the per-tenant circuit breaker opens after `threshold`
// consecutive failures, sheds exactly that tenant, and closes again after
// a successful half-open probe. Healthy tenants are never affected.
TEST(ServiceTest, CircuitBreakerIsolatesPoisonedTenant) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 4096);
  core::CompressorStream serial(cfg);
  const std::vector<std::byte> good =
      serial.compress<f32>(std::span<const f32>(data)).stream;
  std::vector<std::byte> bad = good;
  for (usize k = 0; k < 8; ++k) {
    bad[bad.size() / 2 + k * 19] ^= std::byte{0x77};
  }

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.retry.maxAttempts = 1;
  scfg.retry.backoffBaseMillis = 0;
  scfg.degradedDecode = true;  // Degraded counts as a breaker failure
  scfg.breaker.threshold = 2;
  scfg.breaker.cooldownMillis = 50;
  scfg.breaker.probeSuccesses = 1;
  service::CompressionService svc(scfg);

  // Two consecutive poisoned decodes trip the breaker.
  for (u32 j = 0; j < 2; ++j) {
    service::SubmitResult s = svc.submitDecompress("poison", bad, cfg);
    ASSERT_TRUE(s.accepted());
    EXPECT_EQ(s.ticket.wait().outcome, service::Outcome::Degraded);
  }
  EXPECT_EQ(svc.breakerState("poison"), service::BreakerState::Open);
  EXPECT_EQ(svc.stats().breakerOpens, 1u);

  // Open: the tenant is shed with the typed reason...
  service::SubmitResult shed = svc.submitDecompress("poison", good, cfg);
  ASSERT_FALSE(shed.accepted());
  EXPECT_EQ(shed.reason, service::RejectReason::CircuitOpen);
  EXPECT_EQ(svc.stats().rejectedCircuitOpen, 1u);

  // ...while other tenants sail through.
  service::SubmitResult healthy = svc.submitDecompress("ok", good, cfg);
  ASSERT_TRUE(healthy.accepted());
  EXPECT_EQ(healthy.ticket.wait().outcome, service::Outcome::Completed);
  EXPECT_EQ(svc.breakerState("ok"), service::BreakerState::Closed);

  // After the cooldown a half-open probe is admitted; its success closes
  // the breaker and the tenant is back in business.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service::SubmitResult probe = svc.submitDecompress("poison", good, cfg);
  ASSERT_TRUE(probe.accepted()) << probe.detail;
  EXPECT_EQ(probe.ticket.wait().outcome, service::Outcome::Completed);
  EXPECT_EQ(svc.breakerState("poison"), service::BreakerState::Closed);
  service::SubmitResult after = svc.submitDecompress("poison", good, cfg);
  EXPECT_TRUE(after.accepted());
  EXPECT_TRUE(after.ticket.wait().ok);
  svc.shutdown();
}

// A failed half-open probe reopens the breaker for another cooldown.
TEST(ServiceTest, BreakerReopensOnFailedProbe) {
  const core::Config cfg = faultTolerantConfig();
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 4096);
  core::CompressorStream serial(cfg);
  const std::vector<std::byte> good =
      serial.compress<f32>(std::span<const f32>(data)).stream;
  std::vector<std::byte> bad = good;
  for (usize k = 0; k < 8; ++k) {
    bad[bad.size() / 2 + k * 19] ^= std::byte{0x77};
  }

  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.retry.maxAttempts = 1;
  scfg.retry.backoffBaseMillis = 0;
  scfg.breaker.threshold = 1;
  scfg.breaker.cooldownMillis = 40;
  service::CompressionService svc(scfg);

  ASSERT_EQ(svc.submitDecompress("p", bad, cfg).ticket.wait().outcome,
            service::Outcome::Degraded);
  EXPECT_EQ(svc.breakerState("p"), service::BreakerState::Open);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service::SubmitResult probe = svc.submitDecompress("p", bad, cfg);
  ASSERT_TRUE(probe.accepted());  // half-open admits one probe
  EXPECT_EQ(probe.ticket.wait().outcome, service::Outcome::Degraded);
  EXPECT_EQ(svc.breakerState("p"), service::BreakerState::Open);
  EXPECT_EQ(svc.stats().breakerOpens, 2u);  // the reopen is counted
  // Still shedding during the second cooldown.
  EXPECT_FALSE(svc.submitDecompress("p", bad, cfg).accepted());
  svc.shutdown();
}

// The chaos schedule itself: pure, seeded, and exempting.
TEST(ServiceTest, ChaosScheduleIsDeterministicAndExempting) {
  service::ChaosConfig ccfg;
  ccfg.seed = 42;
  ccfg.exemptTenant = "safe";
  const service::SeededChaosSchedule schedule(ccfg);

  u32 faulted = 0;
  for (u64 id = 1; id <= 200; ++id) {
    service::ChaosJobInfo info;
    info.jobId = id;
    info.tenant = "t";
    info.attempt = 0;
    const std::optional<gpusim::FaultPlan> a = schedule.decide(info);
    const std::optional<gpusim::FaultPlan> b = schedule.decide(info);
    EXPECT_EQ(a, b);
    if (a) ++faulted;

    info.tenant = "safe";  // exempt tenant: never faulted
    EXPECT_FALSE(schedule.decide(info).has_value());
    info.tenant = "t";
    info.attempt = 1;  // only first attempts: retries run clean
    EXPECT_FALSE(schedule.decide(info).has_value());
  }
  // ~45% of attempts faulted at the default rates; 200 draws cannot
  // plausibly land outside [40, 140].
  EXPECT_GT(faulted, 40u);
  EXPECT_LT(faulted, 140u);

  service::ChaosConfig invalid;
  invalid.bitFlipRate = 0.9;
  invalid.abortRate = 0.9;
  EXPECT_THROW(service::SeededChaosSchedule{invalid}, Error);
  invalid.abortRate = std::numeric_limits<f64>::quiet_NaN();
  EXPECT_THROW(service::SeededChaosSchedule{invalid}, Error);
}

// CI soak (tools/ci_check.sh runs this filter under ASan): 4 tenants x 200
// jobs with live backpressure, mixed priorities and sprinkled cancels.
TEST(ServiceSoak, FourTenantsTimes200Jobs) {
  service::ServiceConfig scfg;
  scfg.workers = 4;
  scfg.maxQueueDepth = 64;
  scfg.tenantQuotaBytes = u64{8} << 20;
  service::CompressionService svc(scfg);

  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  const std::vector<std::string> datasets = {"cesm_atm", "hacc", "jetin",
                                             "cesm_atm"};
  std::vector<service::Ticket> tickets;
  u64 canceled = 0;
  for (u32 j = 0; j < 200; ++j) {
    for (usize t = 0; t < tenants.size(); ++t) {
      const std::vector<f32> data = datagen::generateF32(
          datasets[t], j % datagen::datasetInfo(datasets[t]).numFields,
          256 + 128 * (j % 5));
      for (;;) {
        service::SubmitResult s = svc.submitCompress<f32>(
            tenants[t], std::span<const f32>(data), relConfig(1e-3),
            static_cast<u8>(j % 3));
        if (s.accepted()) {
          if (j % 41 == 0 && s.ticket.cancel()) ++canceled;
          else tickets.push_back(s.ticket);
          break;
        }
        ASSERT_TRUE(s.reason == service::RejectReason::QueueFull ||
                    s.reason == service::RejectReason::QuotaExceeded)
            << s.detail;
        std::this_thread::yield();
      }
    }
  }
  EXPECT_TRUE(svc.shutdown());
  for (const service::Ticket& t : tickets) {
    const service::JobResult& r = t.wait();
    EXPECT_TRUE(r.ok) << r.error;
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, tickets.size());
  EXPECT_EQ(stats.completed + canceled, 800u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(svc.queueDepth(), 0u);
}
