// Golden-fixture lock on the serialized stream format.
//
// The fixtures are tiny checked-in streams (hex-embedded below) produced
// by compressing 40 f32 values {0, 0.25, 0.5, ...} at abs bound 0.01 with
// the default config — one version-1 stream and one version-2 stream
// (per-block checksum footer). They pin the byte layout documented in
// docs/FORMAT.md: any change to the writer or the header packing that
// alters the wire format fails here and must come with a format-version
// bump and a FORMAT.md update. The containers around the stream
// (archive, segmented, ND, CAS store file and journal, job journal
// records) are pinned the same way further down.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "cas/block_store.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "core/lorenzo_nd.hpp"
#include "core/pipeline.hpp"
#include "core/segmented.hpp"
#include "core/stream.hpp"
#include "io/archive.hpp"
#include "io/journal.hpp"
#include "io/raw.hpp"
#include "service/durability.hpp"

namespace cuszp2 {
namespace {

// cuszp2 compress gold.f32 out.czp2 --abs 0.01            (84 bytes)
constexpr const char* kGoldenV1 =
    "435a503253505a32010001002000000028000000000000007b14ae47e17a843f"
    "000000000000000004a400000000aaaaaaaa00000000fefffffffeffffff0000"
    "00009001aa00000000000000fe000000fe000000";

// cuszp2 compress gold.f32 out.czp2 --abs 0.01 --block-checksum (88 bytes)
constexpr const char* kGoldenV2 =
    "435a503253505a32020001002000000028000000000000007b14ae47e17a843f"
    "000000000000000004a400000000aaaaaaaa00000000fefffffffeffffff0000"
    "00009001aa00000000000000fe000000fe0000004d7cbc81";

// Format-v3 fixtures: the same 40-value input under each pinned pipeline
// (cuszp2 compress gold.f32 out.czp2 --abs 0.01 --pipeline <id>), plus a
// mixed-selection stream. They pin the v3 layout of docs/FORMAT.md: 1-byte
// descriptors (pipeline id folded into the 0x20-0x7F hole of the legacy
// offset byte), the u16 size prefix in front of entropy payloads, the
// dictionary section (8-byte header, Huffman table only when admitted) and
// the unconditional per-block digest footer.

// --pipeline fle (96 bytes)
constexpr const char* kGoldenV3Fle =
    "435a503253505a32030001002000000028000000000000007b14ae47e17a843f"
    "000000000800000004a4000000000000000000000000aaaaaaaa00000000feff"
    "fffffeffffff000000009001aa00000000000000fe000000fe0000004d7cbc81";

// --pipeline huffman (92 bytes; dictBytes = 22 carries the shared table)
constexpr const char* kGoldenV3Huffman =
    "435a503253505a32030001002000000028000000000000007b14ae47e17a843f"
    "000000001600000020200e000000f9ca088304000000011800031a0002200303"
    "0c004e005ad6b5ad6b5ad6b5ad6808002c00f6b5a00000006655b36d";

// --pipeline rle (185 bytes)
constexpr const char* kGoldenV3Rle =
    "435a503253505a32030001002000000028000000000000007b14ae47e17a843f"
    "000000000800000040400000000000000000620020000000001a00001800001a"
    "00001800001a00001800001a00001800001a00001800001a00001800001a0000"
    "1800001a00001800001a00001800001a00001800001a00001800001a00001800"
    "001a00001800001a00001800001a00001800001a00001d0009002003001a0000"
    "1800001a00001800001a00001800001a00000000178e5757d6";

// --pipeline lorenzo-fle (126 bytes)
constexpr const char* kGoldenV3Lorenzo =
    "435a503253505a32030001002000000028000000000000007b14ae47e17a843f"
    "00000000080000006769000000000000000000000000aa00000000000000fe01"
    "0101fe00000000000000000101010001010100fe0000aaaa000000000000fefe"
    "0000feff00000101000000000000000100000100000001000000476bbdf7";

// --pipeline auto on mixedInput() below: the selector picks FLE for the
// all-zero blocks and RLE for the constant-slope blocks (74 bytes).
constexpr const char* kGoldenV3Mixed =
    "435a503253505a32030001002000000080000000000000007b14ae47e17a843f"
    "00000000080000000040004000000000000000000500010004001f0500010001"
    "001f8defbabe8def517c";

std::vector<std::byte> fromHex(const std::string& hex) {
  std::vector<std::byte> out(hex.size() / 2);
  for (usize i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

std::vector<f32> goldenInput() {
  std::vector<f32> v(40);
  for (usize i = 0; i < v.size(); ++i) v[i] = static_cast<f32>(i) * 0.25f;
  return v;
}

/// 4 blocks of 32 shaped so Auto selection genuinely mixes pipelines:
/// all-zero blocks (FLE encodes them in 0 payload bytes) alternate with
/// constant-slope ramps (one RLE run beats any fixed-length encoding).
/// Values are exact multiples of the 0.02 quantization step, produced the
/// way the decoder dequantizes, so the round trip is bit-identical.
std::vector<f32> mixedInput() {
  std::vector<f32> v;
  for (usize blk = 0; blk < 4; ++blk) {
    i32 q = 0;
    for (usize i = 0; i < 32; ++i) {
      if (blk == 1) q += 2;
      if (blk == 3) q -= 1;
      v.push_back(static_cast<f32>(static_cast<f64>(q) * 0.02));
    }
  }
  return v;
}

/// Byte-level layout assertions straight from docs/FORMAT.md.
void checkHeaderLayout(const std::vector<std::byte>& s, u8 version) {
  ASSERT_GE(s.size(), core::StreamHeader::kBytes);
  // [0, 8): magic "CZP2SPZ2".
  EXPECT_EQ(std::memcmp(s.data(), "CZP2SPZ2", 8), 0);
  EXPECT_EQ(std::to_integer<u8>(s[8]), version);
  EXPECT_EQ(std::to_integer<u8>(s[9]), 0u);   // precision: f32
  EXPECT_EQ(std::to_integer<u8>(s[10]), 1u);  // mode: outlier
  EXPECT_EQ(std::to_integer<u8>(s[11]), 0u);  // predictor: first-order
  EXPECT_EQ(std::to_integer<u8>(s[12]), 32u); // block size
  EXPECT_EQ(loadLe<u64>(s.data() + 16), 40u);    // element count
  EXPECT_EQ(loadLe<u64>(s.data() + 24), bitCast<u64>(0.01));  // abs bound
  // [32, 36): stream CRC, 0 = absent under the default config.
  EXPECT_EQ(std::to_integer<u8>(s[32]) | std::to_integer<u8>(s[33]) |
                std::to_integer<u8>(s[34]) | std::to_integer<u8>(s[35]),
            0);
  // Offset bytes begin at 40, one per block.
  EXPECT_EQ(core::StreamHeader::offsetsBegin(), 40u);
}

void checkParsedHeader(const core::StreamHeader& h, bool v2) {
  EXPECT_EQ(h.version, v2 ? core::kFormatVersionV2 : core::kFormatVersion);
  EXPECT_EQ(h.precision, Precision::F32);
  EXPECT_EQ(h.mode, EncodingMode::Outlier);
  EXPECT_EQ(h.predictor, Predictor::FirstOrder);
  EXPECT_EQ(h.blockSize, 32u);
  EXPECT_EQ(h.numElements, 40u);
  EXPECT_EQ(h.absErrorBound, 0.01);
  EXPECT_EQ(h.checksum, 0u);
  EXPECT_EQ(h.numBlocks(), 2u);
  EXPECT_EQ(h.hasBlockChecksums(), v2);
  EXPECT_EQ(h.footerBytes(), v2 ? 4u : 0u);
}

// Dequantization rounds once in f32, so allow the bound plus half an ULP
// of the value (same slack ErrorStats::withinBoundFp uses).
void expectDecodesGoldenInput(const std::vector<f32>& decoded) {
  const auto input = goldenInput();
  ASSERT_EQ(decoded.size(), input.size());
  for (usize i = 0; i < input.size(); ++i) {
    const f64 slack = std::fabs(static_cast<f64>(input[i])) * 6.0e-8;
    EXPECT_NEAR(decoded[i], input[i], 0.01 + slack) << "at " << i;
  }
}

TEST(FormatGolden, V1FixtureParsesAndDecodes) {
  const auto fixture = fromHex(kGoldenV1);
  ASSERT_EQ(fixture.size(), 84u);
  checkHeaderLayout(fixture, 1);
  checkParsedHeader(core::StreamHeader::parse(fixture), /*v2=*/false);

  core::CompressorStream codec(core::Config{.absErrorBound = 0.01});
  expectDecodesGoldenInput(codec.decompress<f32>(fixture).data);
}

TEST(FormatGolden, V2FixtureParsesAndDecodes) {
  const auto fixture = fromHex(kGoldenV2);
  ASSERT_EQ(fixture.size(), 88u);
  checkHeaderLayout(fixture, 2);
  checkParsedHeader(core::StreamHeader::parse(fixture), /*v2=*/true);

  // The v2 payload region is byte-identical to v1 — the footer is purely
  // additive (FORMAT.md: "version 2 appends, never reshapes").
  const auto v1 = fromHex(kGoldenV1);
  EXPECT_EQ(std::memcmp(fixture.data() + core::StreamHeader::kBytes,
                        v1.data() + core::StreamHeader::kBytes,
                        v1.size() - core::StreamHeader::kBytes),
            0);

  core::CompressorStream codec(core::Config{.absErrorBound = 0.01});
  expectDecodesGoldenInput(codec.decompress<f32>(fixture).data);
}

/// Pipeline ids recorded in a v3 stream's descriptor array.
std::vector<core::PipelineId> fixturePipelines(
    const std::vector<std::byte>& s) {
  const auto header = core::StreamHeader::parse(s);
  std::vector<core::PipelineId> ids;
  for (u64 blk = 0; blk < header.numBlocks(); ++blk) {
    ids.push_back(core::V3BlockDesc::unpack(
                      s.data() + core::StreamHeader::offsetsBegin() +
                      blk * core::kV3DescBytes)
                      .pipeline);
  }
  return ids;
}

struct V3Fixture {
  const char* hex;
  core::PipelineMode mode;
  core::PipelineId id;
  u32 dictBytes;
};

const V3Fixture kV3Fixtures[] = {
    {kGoldenV3Fle, core::PipelineMode::Fle, core::PipelineId::Fle, 8},
    {kGoldenV3Huffman, core::PipelineMode::Huffman,
     core::PipelineId::Huffman, 22},
    {kGoldenV3Rle, core::PipelineMode::Rle, core::PipelineId::Rle, 8},
    {kGoldenV3Lorenzo, core::PipelineMode::LorenzoFle,
     core::PipelineId::LorenzoFle, 8},
};

TEST(FormatGolden, V3FixturesParseAndDecodePerPipeline) {
  for (const V3Fixture& fx : kV3Fixtures) {
    const auto fixture = fromHex(fx.hex);
    const auto header = core::StreamHeader::parse(fixture);
    EXPECT_EQ(header.version, core::kFormatVersionV3) << fx.hex;
    EXPECT_EQ(header.numElements, 40u);
    EXPECT_EQ(header.numBlocks(), 2u);
    EXPECT_EQ(header.dictBytes, fx.dictBytes);
    EXPECT_EQ(header.descriptorStride(), 1u);
    EXPECT_TRUE(header.hasBlockChecksums());  // v3 footer is unconditional
    EXPECT_EQ(header.footerBytes(), 4u);
    for (const core::PipelineId id : fixturePipelines(fixture)) {
      EXPECT_EQ(id, fx.id) << core::toString(fx.mode);
    }

    core::CompressorStream codec(core::Config{.absErrorBound = 0.01});
    expectDecodesGoldenInput(codec.decompress<f32>(fixture).data);
  }
}

TEST(FormatGolden, V3MixedFixtureRecordsTwoPipelines) {
  const auto fixture = fromHex(kGoldenV3Mixed);
  const auto header = core::StreamHeader::parse(fixture);
  EXPECT_EQ(header.version, core::kFormatVersionV3);
  EXPECT_EQ(header.numBlocks(), 4u);
  EXPECT_EQ(header.dictBytes, 8u);  // Huffman not admitted: empty table

  const auto ids = fixturePipelines(fixture);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], core::PipelineId::Fle);
  EXPECT_EQ(ids[1], core::PipelineId::Rle);
  EXPECT_EQ(ids[2], core::PipelineId::Fle);
  EXPECT_EQ(ids[3], core::PipelineId::Rle);

  // The input's values are exact quantization-grid points, so the decode
  // is bit-identical to the input.
  core::CompressorStream codec(core::Config{.absErrorBound = 0.01});
  const auto d = codec.decompress<f32>(fixture);
  const auto input = mixedInput();
  ASSERT_EQ(d.data.size(), input.size());
  EXPECT_EQ(std::memcmp(d.data.data(), input.data(),
                        input.size() * sizeof(f32)),
            0);
}

TEST(FormatGolden, V3WriterStillProducesTheFixtureBytes) {
  const auto input = goldenInput();
  core::CompressorStream codec(core::Config{.absErrorBound = 0.01});
  for (const V3Fixture& fx : kV3Fixtures) {
    core::Config cfg;
    cfg.absErrorBound = 0.01;
    cfg.pipeline = fx.mode;
    codec.reconfigure(cfg);
    const auto c = codec.compress<f32>(std::span<const f32>(input));
    EXPECT_EQ(c.stream, fromHex(fx.hex))
        << core::toString(fx.mode)
        << ": v3 wire format changed — bump the format version and update "
           "docs/FORMAT.md before touching this fixture";
  }

  core::Config cfg;
  cfg.absErrorBound = 0.01;
  cfg.pipeline = core::PipelineMode::Auto;
  codec.reconfigure(cfg);
  const auto mixed = mixedInput();
  const auto c = codec.compress<f32>(std::span<const f32>(mixed));
  EXPECT_EQ(c.stream, fromHex(kGoldenV3Mixed))
      << "v3 mixed-selection output changed — the selector or the wire "
         "format moved; update docs/FORMAT.md and this fixture together";
}

TEST(FormatGolden, WriterStillProducesTheFixtureBytes) {
  const auto input = goldenInput();

  core::Config v1cfg;
  v1cfg.absErrorBound = 0.01;
  core::CompressorStream codec(v1cfg);
  const auto c1 = codec.compress<f32>(std::span<const f32>(input));
  EXPECT_EQ(c1.stream, fromHex(kGoldenV1))
      << "v1 wire format changed — bump the format version and update "
         "docs/FORMAT.md before touching this fixture";

  core::Config v2cfg;
  v2cfg.absErrorBound = 0.01;
  v2cfg.blockChecksums = true;
  codec.reconfigure(v2cfg);
  const auto c2 = codec.compress<f32>(std::span<const f32>(input));
  EXPECT_EQ(c2.stream, fromHex(kGoldenV2))
      << "v2 wire format changed — bump the format version and update "
         "docs/FORMAT.md before touching this fixture";
}


// ---- container pins ------------------------------------------------------
//
// Every container around the stream stores its integers little-endian
// (docs/FORMAT.md, docs/CAS.md, docs/DURABILITY.md). A round-trip test
// passes even when a writer and its reader drift together, so each
// container is pinned byte for byte here: in full hex up to 128 bytes,
// otherwise as its length and CRC-32. The truncation sweep below then feeds
// every proper prefix of each pinned container to its parser.

std::string toHex(ConstByteSpan bytes) {
  std::string out;
  char buf[3];
  for (const std::byte b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", std::to_integer<unsigned>(b));
    out += buf;
  }
  return out;
}

void expectPinned(const std::vector<std::byte>& got, const char* hex,
                  const char* what) {
  EXPECT_EQ(toHex(got), hex)
      << what << ": on-disk bytes changed — update the format docs and "
                 "this pin together";
}

void expectPinned(const std::vector<std::byte>& got, usize bytes, u32 crc,
                  const char* what) {
  EXPECT_EQ(got.size(), bytes) << what;
  EXPECT_EQ(crc32(ConstByteSpan(got)), crc)
      << what << ": on-disk bytes changed — update the format docs and "
                 "this pin together";
}

/// Unique scratch directory; removed by the guard.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path((std::filesystem::temp_directory_path() /
              (stem + "-" + std::to_string(::getpid()) + "-" +
               std::to_string(counter++)))
                 .string()) {
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
  static inline int counter = 0;
};

std::vector<std::byte> bytePattern(usize n, u8 salt) {
  std::vector<std::byte> v(n);
  for (usize i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 37 + salt) & 0xFFu);
  }
  return v;
}

/// Two fields: the v1 and v2 golden streams.
io::ArchiveWriter pinnedArchiveWriter() {
  io::ArchiveWriter writer;
  writer.addField("v1", fromHex(kGoldenV1));
  writer.addField("v2", fromHex(kGoldenV2));
  return writer;
}

/// The two fields sealed with a parity trailer.
std::vector<std::byte> pinnedArchive() {
  return pinnedArchiveWriter().finalize(
      io::ParityOptions{.chunkBytes = 32, .groupSize = 3});
}

/// The 40 golden values in segments of 32: one full segment and one of 8.
std::vector<std::byte> pinnedSegmented() {
  core::SegmentedCompressor<f32> seg(core::Config{.absErrorBound = 0.01}, 32);
  const auto input = goldenInput();
  seg.append(std::span<const f32>(input));
  return seg.finish();
}

/// A 16 x 8 ramp through the 2-D Lorenzo compressor.
std::vector<std::byte> pinnedNd() {
  core::NdCompressor nd(core::NdConfig{.absErrorBound = 0.01,
                                       .dims = core::LorenzoDims::D2});
  std::vector<f32> field(16 * 8);
  for (usize y = 0; y < 8; ++y) {
    for (usize x = 0; x < 16; ++x) {
      field[y * 16 + x] = static_cast<f32>(x) * 0.25f + static_cast<f32>(y);
    }
  }
  return nd.compress<f32>(std::span<const f32>(field), core::Dims3{16, 8, 1})
      .stream;
}

cas::StoreConfig pinnedStoreConfig() {
  return cas::StoreConfig{.chunkBytes = 16};
}

/// Two objects sharing their first chunk, saved without parity.
std::vector<std::byte> pinnedStoreFile(const TempDir& dir) {
  cas::BlockStore store(pinnedStoreConfig());
  const auto a = bytePattern(40, 1);
  auto b = bytePattern(24, 1);
  b[20] = std::byte{0xEE};
  store.put("t", "a", ConstByteSpan(a));
  store.put("u", "b", ConstByteSpan(b));
  const std::string path = dir.file("store.czp2");
  store.save(path);
  return io::readBytes(path);
}

/// The journal after put, put, erase, gc and a compaction commit.
std::vector<std::byte> pinnedJournal(const TempDir& dir) {
  const std::string path = dir.file("store.jnl");
  cas::BlockStore store(pinnedStoreConfig());
  store.attachJournal(path);
  store.put("t", "a", ConstByteSpan(bytePattern(20, 2)));
  store.put("t", "b", ConstByteSpan(bytePattern(8, 3)));
  EXPECT_TRUE(store.erase("t", "b"));
  store.gc();
  const auto objects = store.objects("t");
  EXPECT_EQ(objects.size(), 1u);
  EXPECT_TRUE(store.commitCompaction("t", "a",
                                     ConstByteSpan(bytePattern(12, 4)),
                                     objects.at(0).generation));
  return io::readBytes(path);
}

service::JobAcceptRecord pinnedAcceptRecord() {
  service::JobAcceptRecord rec;
  rec.jobId = 0x0102030405060708ull;
  rec.supersedesId = 3;
  rec.tenant = "t0";
  rec.kind = service::JobKind::Decompress;
  rec.precision = Precision::F64;
  rec.priority = 2;
  rec.config.absErrorBound = 0.01;
  rec.config.blockSize = 64;
  rec.config.checksum = true;
  rec.config.faultRetries = 2;
  rec.config.pipeline = core::PipelineMode::Auto;
  rec.input = bytePattern(6, 5);
  return rec;
}

TEST(ContainerGolden, ArchiveWithParityTrailer) {
  expectPinned(pinnedArchive(), 408, 3513027844u, "io::ArchiveWriter + parity");
}

TEST(ContainerGolden, SegmentedContainer) {
  expectPinned(pinnedSegmented(), 172, 3211977940u, "SegmentedCompressor<f32>");
}

TEST(ContainerGolden, NdStream) {
  expectPinned(pinnedNd(), 179, 412880316u, "NdCompressor 2-D");
}

TEST(ContainerGolden, BlockStoreFile) {
  TempDir dir("golden-store");
  expectPinned(pinnedStoreFile(dir), 405, 2522225244u, "BlockStore::save");
}

TEST(ContainerGolden, BlockStoreJournal) {
  TempDir dir("golden-journal");
  expectPinned(pinnedJournal(dir), 256, 4233489165u, "BlockStore journal");
}

TEST(ContainerGolden, JobJournalRecords) {
  expectPinned(service::encodeJobAccept(pinnedAcceptRecord()),
               "08070605040302010300000000000000020000007430010102fca9f1d2"
               "4d62503f7b14ae47e17a843f0140000000800000000101010002000000"
               "0000010600000000000000052a4f7499be",
               "encodeJobAccept");
  expectPinned(service::encodeJobResolve(0x0102030405060708ull,
                                         service::Outcome::Degraded),
               "080706050403020104", "encodeJobResolve");
}

/// An exactly-sized heap copy of bytes [0, n): a parser that reads past
/// the prefix leaves the allocation, where the address sanitizer sees it.
std::vector<std::byte> prefix(const std::vector<std::byte>& full, usize n) {
  return std::vector<std::byte>(full.begin(),
                                full.begin() + static_cast<std::ptrdiff_t>(n));
}

TEST(ContainerTruncation, ArchivePrefixesThrowOrLoseTheTrailer) {
  const auto full = pinnedArchive();
  const usize body = pinnedArchiveWriter().finalize().size();
  ASSERT_LT(body, full.size());
  ASSERT_TRUE(io::verifyParity(full).trailerOk);
  for (usize n = 0; n < full.size(); ++n) {
    const auto cut = prefix(full, n);
    if (n < body) {
      // The table of contents promises bytes the prefix lacks.
      EXPECT_THROW(io::ArchiveReader{ConstByteSpan(cut)}, Error) << n;
    } else {
      // The fields are whole; only the parity trailer is cut short, and
      // it must not verify.
      EXPECT_EQ(io::ArchiveReader(cut).fieldNames().size(), 2u) << n;
      EXPECT_FALSE(io::verifyParity(cut).trailerOk) << n;
    }
  }
}

TEST(ContainerTruncation, SegmentedPrefixesThrow) {
  const auto full = pinnedSegmented();
  ASSERT_EQ(core::SegmentedReader<f32>(full).segmentCount(), 2u);
  for (usize n = 0; n < full.size(); ++n) {
    const auto cut = prefix(full, n);
    EXPECT_THROW(core::SegmentedReader<f32>{ConstByteSpan(cut)}, Error) << n;
  }
}

TEST(ContainerTruncation, NdPrefixesThrow) {
  const auto full = pinnedNd();
  core::NdCompressor nd(core::NdConfig{.absErrorBound = 0.01,
                                       .dims = core::LorenzoDims::D2});
  ASSERT_EQ(nd.decompress<f32>(full).size(), 16u * 8u);
  for (usize n = 0; n < full.size(); ++n) {
    const auto cut = prefix(full, n);
    EXPECT_THROW(nd.decompress<f32>(cut), Error) << n;
  }
}

TEST(ContainerTruncation, BlockStoreFilePrefixesThrow) {
  TempDir dir("trunc-store");
  const auto full = pinnedStoreFile(dir);
  const std::string path = dir.file("cut.czp2");
  for (usize n = 0; n < full.size(); ++n) {
    io::writeBytes(path, ConstByteSpan(full.data(), n));
    EXPECT_THROW(cas::BlockStore::load(path, pinnedStoreConfig()), Error)
        << n;
  }
}

TEST(ContainerTruncation, JournalPrefixesReplayToTheLastWholeRecord) {
  TempDir dir("trunc-journal");
  const auto full = pinnedJournal(dir);
  const std::string path = dir.file("cut.jnl");
  io::writeBytes(path, ConstByteSpan(full));
  const io::ReplayResult whole = io::replayJournal(path);
  ASSERT_EQ(whole.records.size(), 5u);
  ASSERT_FALSE(whole.torn);

  // Record boundaries: header end, then after each whole record.
  std::vector<usize> ends{io::kJournalHeaderBytes};
  for (const io::JournalRecord& rec : whole.records) {
    ends.push_back(ends.back() + io::kRecordFrameBytes + rec.payload.size());
  }
  ASSERT_EQ(ends.back(), full.size());

  for (usize n = 0; n < full.size(); ++n) {
    io::writeBytes(path, ConstByteSpan(full.data(), n));
    if (n < io::kJournalHeaderBytes) {
      EXPECT_THROW(io::replayJournal(path), Error) << n;
      continue;
    }
    const io::ReplayResult r = io::replayJournal(path);
    usize wholeRecords = 0;
    while (wholeRecords + 1 < ends.size() && ends[wholeRecords + 1] <= n) {
      ++wholeRecords;
    }
    EXPECT_EQ(r.records.size(), wholeRecords) << n;
    EXPECT_EQ(r.validBytes, ends[wholeRecords]) << n;
    EXPECT_EQ(r.torn, n != ends[wholeRecords]) << n;
    EXPECT_EQ(r.discardedBytes, n - ends[wholeRecords]) << n;
  }
}

TEST(ContainerTruncation, JobRecordPrefixesThrow) {
  const auto accept = service::encodeJobAccept(pinnedAcceptRecord());
  const auto decoded = service::decodeJobAccept(accept);
  EXPECT_EQ(decoded.jobId, pinnedAcceptRecord().jobId);
  EXPECT_EQ(decoded.input, pinnedAcceptRecord().input);
  for (usize n = 0; n < accept.size(); ++n) {
    const auto cut = prefix(accept, n);
    EXPECT_THROW(service::decodeJobAccept(cut), Error) << n;
  }
  const auto resolve =
      service::encodeJobResolve(9, service::Outcome::Completed);
  EXPECT_EQ(service::decodeJobResolve(resolve).jobId, 9u);
  for (usize n = 0; n < resolve.size(); ++n) {
    const auto cut = prefix(resolve, n);
    EXPECT_THROW(service::decodeJobResolve(cut), Error) << n;
  }
}

}  // namespace
}  // namespace cuszp2
