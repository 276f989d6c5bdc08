// Telemetry layer: registry instrument semantics (including concurrent
// recording from kernel bodies on the shared worker pool), trace JSON
// structure, and the kernel event names a CompressorStream round trip
// auto-emits through gpusim::Launcher.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/launcher.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2 {
namespace {

using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::TraceEvent;
using telemetry::TraceSession;

TEST(MetricsRegistryTest, CounterAccumulatesAndFindsByName) {
  MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(4);
  reg.counter("b").add(1);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  EXPECT_EQ(reg.counter("b").value(), 1u);
  // Find-or-create returns a stable instrument.
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));
}

TEST(MetricsRegistryTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  reg.counter("c").add(10);
  reg.gauge("g").set(2.5);
  reg.histogram("h").record(42);
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);

  reg.setEnabled(true);
  reg.counter("c").add(10);
  EXPECT_EQ(reg.counter("c").value(), 10u);
}

TEST(MetricsRegistryTest, HistogramBucketsByBitWidth) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("depth");
  h.record(0);   // bucket 0
  h.record(1);   // bucket 1
  h.record(2);   // bucket 2
  h.record(3);   // bucket 2
  h.record(16);  // bucket 5
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 22u);
  EXPECT_EQ(h.max(), 16u);
  EXPECT_EQ(h.bucketCount(0), 1u);
  EXPECT_EQ(h.bucketCount(1), 1u);
  EXPECT_EQ(h.bucketCount(2), 2u);
  EXPECT_EQ(h.bucketCount(5), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0 / 5.0);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("x");
  c.add(5);
  reg.gauge("y").set(1.0);
  reg.histogram("z").record(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.gauge("y").value(), 0.0);
  EXPECT_EQ(reg.histogram("z").count(), 0u);
  c.add(2);
  EXPECT_EQ(reg.counter("x").value(), 2u);
}

// Concurrent recording from kernel blocks running on the shared worker
// pool: every increment must land (relaxed atomics, no lost updates).
TEST(MetricsRegistryTest, ConcurrentRecordingOnWorkerPool) {
  MetricsRegistry reg;
  telemetry::Counter& hits = reg.counter("kernel.hits");
  Histogram& values = reg.histogram("kernel.values");

  gpusim::Launcher launcher;
  constexpr u32 kGrid = 256;
  constexpr u32 kPerBlock = 100;
  launcher.launch(kGrid, [&](gpusim::BlockCtx& ctx) {
    for (u32 i = 0; i < kPerBlock; ++i) {
      hits.add(1);
      values.record(ctx.blockIdx);
    }
  });
  EXPECT_EQ(hits.value(), static_cast<u64>(kGrid) * kPerBlock);
  EXPECT_EQ(values.count(), static_cast<u64>(kGrid) * kPerBlock);
  EXPECT_EQ(values.max(), kGrid - 1u);
}

TEST(MetricsRegistryTest, SnapshotJsonIsDeterministic) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h").record(3);
  const std::string s1 = reg.snapshotJson();
  const std::string s2 = reg.snapshotJson();
  EXPECT_EQ(s1, s2);
  // Sorted key order: "a.count" serializes before "b.count".
  EXPECT_LT(s1.find("a.count"), s1.find("b.count"));
  EXPECT_NE(s1.find("\"counters\""), std::string::npos);
  EXPECT_NE(s1.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s1.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s1.find("\"kernels\""), std::string::npos);
}

TEST(TraceSessionTest, BeginEndPairsBalancedAndMonotonic) {
  TraceSession trace;
  trace.begin("outer");
  trace.begin("inner");
  trace.end("inner");
  trace.end("outer");
  trace.instant("marker");

  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 5u);

  // Balanced: every B has a matching E, depth never goes negative.
  int depth = 0;
  f64 lastTs = 0.0;
  for (const TraceEvent& e : events) {
    if (e.phase == 'B') ++depth;
    if (e.phase == 'E') --depth;
    EXPECT_GE(depth, 0);
    EXPECT_GE(e.tsUs, lastTs) << "timestamps must be non-decreasing";
    lastTs = e.tsUs;
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceSessionTest, JsonIsStructurallyValid) {
  TraceSession trace;
  trace.begin("span", {telemetry::TraceArg::str("key", "va\"lue")});
  trace.end("span");
  trace.complete("kernel", 12.5,
                 {telemetry::TraceArg::num("bytes", 1024.0)});
  const std::string json = trace.json();

  // Shape: one top-level object holding a traceEvents array.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // Balanced braces/brackets (no dangling comma can unbalance these).
  int braces = 0;
  int brackets = 0;
  bool inString = false;
  for (usize i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) inString = !inString;
    if (inString) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(inString);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // The embedded quote survived escaping.
  EXPECT_NE(json.find("va\\\"lue"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
}

// A stream round trip with tracing active must emit the auto-instrumented
// kernel events, carrying the modelled-timing and sync attributes.
TEST(TraceSessionTest, StreamRoundTripEmitsKernelEvents) {
  const std::vector<f32> field = datagen::generateF32("cesm_atm", 0, 4096);

  TraceSession trace;
  {
    telemetry::ScopedTrace scoped(trace);
    core::CompressorStream codec(core::Config{.absErrorBound = 1e-3});
    const auto c = codec.compress<f32>(std::span<const f32>(field));
    codec.decompress<f32>(c.stream);
    codec.decompressBlocks<f32>(c.stream, 1, 2);
    codec.decompressResilient<f32>(c.stream);
  }
  EXPECT_EQ(telemetry::activeTrace(), nullptr);

  std::map<std::string, int> launches;
  f64 lastTs = 0.0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_GE(e.tsUs, lastTs);
    lastTs = e.tsUs;
    // Host stages (stream.*) are complete events too; they carry bytes,
    // not kernel counters (HostStagesAppearAsCompleteEvents below).
    if (e.phase != 'X' || e.name.starts_with("stream.")) continue;
    launches[e.name] += 1;
    bool sawModelled = false;
    bool sawSync = false;
    for (const auto& a : e.args) {
      if (a.key == "modelled_seconds") sawModelled = true;
      if (a.key == "sync_method") sawSync = true;
    }
    EXPECT_TRUE(sawModelled) << e.name;
    EXPECT_TRUE(sawSync) << e.name;
  }
  EXPECT_EQ(launches["compress"], 1);
  EXPECT_EQ(launches["decompress"], 1);
  EXPECT_EQ(launches["random_access_decode"], 1);
  EXPECT_EQ(launches["salvage_decode"], 1);
}

// The host work between kernels shows up in traces as named complete
// events: the REL bound's range pass once per compress (ABS skips it), one
// output allocation per decode, and — on a v3 Auto+CRC compress — the
// Huffman table, the selection, the footer digests and the stream CRC,
// which the decode of that stream verifies again. Every strict decode
// validates the stream layout first, and a v3 decode loads the shared
// dictionary. Each is sized in bytes.
TEST(TraceSessionTest, HostStagesAppearAsCompleteEvents) {
  const std::vector<f32> field = datagen::generateF32("cesm_atm", 0, 4096);
  const u64 fieldBytes = field.size() * sizeof(f32);
  core::Config v3cfg{.absErrorBound = 1e-3};
  v3cfg.checksum = true;
  v3cfg.pipeline = core::PipelineMode::Auto;

  TraceSession trace;
  core::Compressed v3;
  u64 legacyStreamBytes = 0;
  {
    telemetry::ScopedTrace scoped(trace);
    core::CompressorStream codec(core::Config{.relErrorBound = 1e-3});
    const auto c = codec.compress<f32>(std::span<const f32>(field));
    legacyStreamBytes = c.stream.size();
    codec.decompress<f32>(c.stream);
    codec.decompressBlocks<f32>(c.stream, 1, 2);
    codec.decompressResilient<f32>(c.stream);
    codec.reconfigure(core::Config{.absErrorBound = 1e-3});
    codec.compress<f32>(std::span<const f32>(field));
    codec.reconfigure(v3cfg);
    v3 = codec.compress<f32>(std::span<const f32>(field));
    codec.decompress<f32>(v3.stream);
  }

  std::map<std::string, std::vector<f64>> bytes;
  for (const TraceEvent& e : trace.events()) {
    if (!e.name.starts_with("stream.")) continue;
    EXPECT_EQ(e.phase, 'X') << e.name;
    EXPECT_GE(e.durUs, 0.0) << e.name;
    ASSERT_EQ(e.args.size(), 1u) << e.name;
    EXPECT_EQ(e.args[0].key, "bytes");
    bytes[e.name].push_back(e.args[0].number);
  }
  EXPECT_EQ(bytes["stream.range_reduce"],
            std::vector<f64>{static_cast<f64>(fieldBytes)});
  const u64 blockL = core::Config{}.blockSize;
  EXPECT_EQ(bytes["stream.output_alloc"],
            (std::vector<f64>{static_cast<f64>(fieldBytes),
                              static_cast<f64>(2 * blockL * sizeof(f32)),
                              static_cast<f64>(fieldBytes),
                              static_cast<f64>(fieldBytes)}));

  const core::StreamHeader h = core::StreamHeader::parse(v3.stream);
  const u64 numBlocks = h.numBlocks();
  EXPECT_EQ(bytes["stream.v3.huffman_table"],
            std::vector<f64>{static_cast<f64>(numBlocks * blockL * 2)});
  EXPECT_EQ(bytes["stream.v3.select"],
            std::vector<f64>{static_cast<f64>(
                numBlocks * sizeof(core::BlockCandidates))});
  // Descriptors plus payload: everything between the dictionary and the
  // footer, one descriptor byte per block.
  EXPECT_EQ(bytes["stream.footer_digest"],
            std::vector<f64>{static_cast<f64>(
                numBlocks + v3.stream.size() - h.payloadBegin() -
                h.footerBytes())});
  const f64 crcBytes =
      static_cast<f64>(v3.stream.size() - core::StreamHeader::kBytes);
  EXPECT_EQ(bytes["stream.checksum"], (std::vector<f64>{crcBytes, crcBytes}));
  // Strict decode, block-range decode (salvage has its own structural
  // pass), then the v3 decode.
  EXPECT_EQ(bytes["stream.validate"],
            (std::vector<f64>{static_cast<f64>(legacyStreamBytes),
                              static_cast<f64>(legacyStreamBytes),
                              static_cast<f64>(v3.stream.size())}));
  EXPECT_EQ(bytes["stream.v3.dictionary"],
            std::vector<f64>{static_cast<f64>(h.dictBytes)});
}

// The global registry's per-kernel table aggregates the same launches.
TEST(GlobalRegistryTest, StreamRoundTripFillsKernelTable) {
  MetricsRegistry& reg = telemetry::registry();
  reg.setEnabled(true);
  reg.reset();

  const std::vector<f32> field = datagen::generateF32("hacc", 0, 4096);
  core::CompressorStream codec(core::Config{.absErrorBound = 1e-3});
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto d = codec.decompress<f32>(c.stream);

  EXPECT_EQ(reg.counter("stream.compress.calls").value(), 1u);
  EXPECT_EQ(reg.counter("stream.decompress.calls").value(), 1u);
  // Metrics-reported byte counts match the actual buffer sizes.
  EXPECT_EQ(reg.counter("stream.compress.bytes_in").value(),
            field.size() * sizeof(f32));
  EXPECT_EQ(reg.counter("stream.compress.bytes_out").value(),
            c.stream.size());
  EXPECT_EQ(reg.counter("stream.decompress.bytes_in").value(),
            c.stream.size());
  EXPECT_EQ(reg.counter("stream.decompress.bytes_out").value(),
            d.data.size() * sizeof(f32));

  bool sawCompress = false;
  bool sawDecompress = false;
  for (const auto& row : reg.snapshotKernels()) {
    if (row.name == "compress") {
      sawCompress = true;
      EXPECT_EQ(row.launches, 1u);
      EXPECT_GT(row.dramBytes, 0u);
      EXPECT_GT(row.modelledSeconds, 0.0);
    }
    if (row.name == "decompress") sawDecompress = true;
  }
  EXPECT_TRUE(sawCompress);
  EXPECT_TRUE(sawDecompress);

  // The decoupled-lookback depth histogram saw both kernels' tiles.
  EXPECT_GT(reg.histogram("scan.lookback.depth").count(), 0u);

  reg.reset();
  reg.setEnabled(false);
}

// An aborted run (exception or exit mid-span) closes its open spans
// synthetically so the exported JSON stays balanced and loadable.
TEST(TraceSessionTest, CloseOpenSpansBalancesAbortedSessions) {
  TraceSession trace;
  trace.begin("outer");
  trace.begin("inner");
  EXPECT_EQ(trace.openSpanCount(), 2u);
  trace.end("inner");
  EXPECT_EQ(trace.openSpanCount(), 1u);
  trace.begin("second");

  EXPECT_EQ(trace.closeOpenSpans(), 2u);
  EXPECT_EQ(trace.openSpanCount(), 0u);
  EXPECT_EQ(trace.closeOpenSpans(), 0u);  // idempotent

  const std::vector<TraceEvent> events = trace.events();
  int depth = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == 'B') ++depth;
    if (e.phase == 'E') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0) << "synthetic Es must balance every open B";

  // Innermost-first closure, each tagged as aborted.
  ASSERT_GE(events.size(), 2u);
  const TraceEvent& closeSecond = events[events.size() - 2];
  const TraceEvent& closeOuter = events[events.size() - 1];
  EXPECT_EQ(closeSecond.phase, 'E');
  EXPECT_EQ(closeSecond.name, "second");
  EXPECT_EQ(closeOuter.phase, 'E');
  EXPECT_EQ(closeOuter.name, "outer");
  for (const TraceEvent* e : {&closeSecond, &closeOuter}) {
    ASSERT_EQ(e->args.size(), 1u);
    EXPECT_EQ(e->args[0].key, "aborted");
    EXPECT_EQ(e->args[0].number, 1.0);
  }
}

}  // namespace
}  // namespace cuszp2
