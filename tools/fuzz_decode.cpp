// fuzz_decode — seeded structured fuzzer for the decode surface.
//
// Builds a pool of valid streams (every format version, both precisions,
// both v1/v2 predictors, with and without checksums, tails, zero runs),
// then applies structured mutations — truncations at region boundaries,
// bit/byte flips aimed at the header / offset array / payload / footer,
// garbage extension — and drives every decode entry point on each mutant:
//
//   strict  decompress()           must throw core::Error or succeed —
//                                  never crash, hang, or read out of
//                                  bounds (run under ASan/UBSan in CI);
//   range   decompressBlocks()     the same, on a seeded block range;
//   salvage decompressResilient()  must never throw and must return a
//                                  self-consistent DecodeReport;
//   replace replaceBlocks()        must throw core::Error or succeed.
//
// Every outcome — an error text or a hash of the decoded bytes, the whole
// salvage report, the spliced stream — feeds a 64-bit behaviour
// fingerprint, printed as `fingerprint=<hex>`. A decoder change that keeps
// every outcome keeps the fingerprint; ctest pins its value. Replace
// outcomes count only for mutants whose stream CRC (if any) still
// matches: a damaged CRC-stamped stream is refused before the splice.
//
//   usage: fuzz_decode [iterations=500] [seed=1]
//
// Exit 0 when every mutant held the invariants; 1 otherwise, printing the
// (seed, iteration) needed to replay the failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"

#include "drill.hpp"

using namespace cuszp2;

namespace {

struct BaseStream {
  std::vector<std::byte> bytes;
  Precision precision;
};

template <FloatingPoint T>
std::vector<T> makeField(Rng& rng, usize n) {
  std::vector<T> data(n);
  f64 v = 0.0;
  for (usize i = 0; i < n; ++i) {
    // Smooth walk with occasional jumps and a zero run: exercises outlier
    // selection, dense blocks, and the zero-block memset path.
    if (i % 97 == 0) v = rng.uniform(-100.0, 100.0);
    v += rng.normal(0.0, 0.3);
    data[i] = (i > n / 2 && i < n / 2 + 200) ? T{} : static_cast<T>(v);
  }
  return data;
}

std::vector<BaseStream> makeBasePool(core::CompressorStream& codec) {
  Rng rng(0xF00DF00Dull);
  std::vector<BaseStream> pool;
  const usize sizes[] = {1, 31, 1024, 4096 + 17};
  for (const usize n : sizes) {
    for (const bool v2 : {false, true}) {
      for (const bool checksum : {false, true}) {
        core::Config cfg;
        cfg.absErrorBound = 1e-2;
        cfg.checksum = checksum;
        cfg.blockChecksums = v2;
        codec.reconfigure(cfg);
        const auto f32Field = makeField<f32>(rng, n);
        pool.push_back({codec.compress<f32>(f32Field).stream,
                        Precision::F32});
        const auto f64Field = makeField<f64>(rng, n);
        pool.push_back({codec.compress<f64>(f64Field).stream,
                        Precision::F64});
      }
      // The second-order predictor, which every v1/v2 decode entry point
      // must honour.
      core::Config cfg;
      cfg.absErrorBound = 1e-2;
      cfg.checksum = v2;
      cfg.blockChecksums = v2;
      cfg.predictor = Predictor::SecondOrder;
      codec.reconfigure(cfg);
      const auto f32Field = makeField<f32>(rng, n);
      pool.push_back({codec.compress<f32>(f32Field).stream, Precision::F32});
      const auto f64Field = makeField<f64>(rng, n);
      pool.push_back({codec.compress<f64>(f64Field).stream, Precision::F64});
    }
    // Format-v3 bases: mixed per-block selection (Auto) and a pinned
    // Huffman stream, so mutants cover pipeline descriptors, the shared
    // dictionary section and every pipeline's payload structure.
    for (const core::PipelineMode mode :
         {core::PipelineMode::Auto, core::PipelineMode::Huffman}) {
      core::Config cfg;
      cfg.absErrorBound = 1e-2;
      cfg.pipeline = mode;
      codec.reconfigure(cfg);
      const auto f32Field = makeField<f32>(rng, n);
      pool.push_back({codec.compress<f32>(f32Field).stream,
                      Precision::F32});
      const auto f64Field = makeField<f64>(rng, n);
      pool.push_back({codec.compress<f64>(f64Field).stream,
                      Precision::F64});
    }
  }
  return pool;
}

/// Structured mutation: pick a region-aware corruption. Returns a
/// human-readable description for failure replay.
std::string mutate(Rng& rng, std::vector<std::byte>& s) {
  const auto flipIn = [&](usize begin, usize end, const char* name) {
    if (begin >= end || end > s.size()) {
      begin = 0;
      end = s.size();
    }
    const usize pos = begin + rng.uniformInt(end - begin);
    s[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    return std::string("bit flip in ") + name + " at byte " +
           std::to_string(pos);
  };

  // Region boundaries from the (still valid) header; fall back to whole-
  // stream positions if it no longer parses.
  usize offsetsBegin = 0;
  usize payloadBegin = 0;
  usize footerBegin = s.size();
  usize dictBegin = 0;
  u64 numBlocks = 0;
  bool isV3 = false;
  if (const auto h = core::StreamHeader::tryParse(s)) {
    offsetsBegin = core::StreamHeader::offsetsBegin();
    payloadBegin = h->payloadBegin();
    footerBegin = s.size() - h->footerBytes();
    dictBegin = h->dictBegin();
    numBlocks = h->numBlocks();
    isV3 = h->version >= core::kFormatVersionV3;
  }

  switch (rng.uniformInt(11)) {
    case 0: {  // truncate at a uniformly random point
      const usize keep = rng.uniformInt(s.size() + 1);
      s.resize(keep);
      return "truncate to " + std::to_string(keep);
    }
    case 1: {  // truncate at/around a region boundary
      const usize anchors[] = {offsetsBegin, payloadBegin, footerBegin};
      usize at = anchors[rng.uniformInt(3)];
      if (rng.uniformInt(2) == 0 && at > 0) at -= 1;
      s.resize(std::min(at, s.size()));
      return "truncate at boundary " + std::to_string(s.size());
    }
    case 2:
      return flipIn(0, offsetsBegin, "header");
    case 3:
      return flipIn(offsetsBegin, payloadBegin, "offset array");
    case 4:
      return flipIn(payloadBegin, footerBegin, "payload");
    case 5:
      return flipIn(footerBegin, s.size(), "footer");
    case 6: {  // burst: several byte rewrites in one area
      const usize pos = rng.uniformInt(s.size());
      const usize len = std::min<usize>(s.size() - pos,
                                        1 + rng.uniformInt(16));
      for (usize i = 0; i < len; ++i) {
        s[pos + i] = static_cast<std::byte>(rng.uniformInt(256));
      }
      return "burst rewrite at " + std::to_string(pos);
    }
    case 7: {  // append garbage (framing damage for v2/v3)
      const usize extra = 1 + rng.uniformInt(64);
      for (usize i = 0; i < extra; ++i) {
        s.push_back(static_cast<std::byte>(rng.uniformInt(256)));
      }
      return "append " + std::to_string(extra) + " bytes";
    }
    case 8: {  // v3: corrupt one descriptor's pipeline-id byte
      if (!isV3 || numBlocks == 0) {
        return flipIn(offsetsBegin, payloadBegin, "offset array");
      }
      const usize blk = rng.uniformInt(static_cast<usize>(numBlocks));
      const usize pos = offsetsBegin + blk * core::kV3DescBytes;
      s[pos] = static_cast<std::byte>(rng.uniformInt(256));
      return "pipeline id rewrite in descriptor " + std::to_string(blk);
    }
    case 9: {  // v3: damage or truncate the dictionary section
      if (!isV3 || dictBegin >= payloadBegin) {
        return flipIn(0, offsetsBegin, "header");
      }
      if (rng.uniformInt(2) == 0) {
        const usize keep =
            dictBegin + rng.uniformInt(payloadBegin - dictBegin);
        s.resize(keep);
        return "truncate inside dictionary to " + std::to_string(keep);
      }
      return flipIn(dictBegin, payloadBegin, "dictionary");
    }
    default: {  // v3: cross-pipeline splice — copy one descriptor over
                // another, so its payload bytes are parsed as the wrong
                // pipeline at the wrong size
      if (!isV3 || numBlocks < 2) {
        return flipIn(payloadBegin, footerBegin, "payload");
      }
      const usize src = rng.uniformInt(static_cast<usize>(numBlocks));
      const usize dst = rng.uniformInt(static_cast<usize>(numBlocks));
      for (usize b = 0; b < core::kV3DescBytes; ++b) {
        s[offsetsBegin + dst * core::kV3DescBytes + b] =
            s[offsetsBegin + src * core::kV3DescBytes + b];
      }
      return "descriptor splice " + std::to_string(src) + " -> " +
             std::to_string(dst);
    }
  }
}

using drill::Fingerprint;

struct Tally {
  u64 strictRejected = 0;
  u64 salvageFlagged = 0;
};

/// True when the stream carries no CRC stamp or its stamp still matches.
bool stampHolds(ConstByteSpan s, const std::optional<core::StreamHeader>& h) {
  if (!h || h->checksum == 0) return true;
  u32 crc = crc32(s.subspan(core::StreamHeader::kBytes));
  if (crc == 0) crc = 1;  // the stamp reserves 0 for "absent"
  return crc == h->checksum;
}

/// Checks a salvage report's self-consistency; empty when it holds.
std::string reportViolation(const core::DecodeReport& rep, bool dataEmpty) {
  if (!rep.headerOk) {
    if (rep.headerError.empty()) return "headerOk=false without an error";
    if (!dataEmpty) return "data not empty on header failure";
    return "";
  }
  if (rep.goodBlocks + rep.badBlocks != rep.totalBlocks) {
    return "block counts do not add up";
  }
  if (rep.verdicts.size() != rep.totalBlocks) return "verdict count wrong";
  u64 bad = 0;
  for (const auto v : rep.verdicts) {
    if (v != core::BlockVerdict::Good) ++bad;
  }
  if (bad != rep.badBlocks) return "verdicts disagree with badBlocks";
  if (rep.badBlocks == 0 &&
      rep.firstCorruptOffset != core::DecodeReport::kNoCorruption) {
    return "firstCorruptOffset set with no bad blocks";
  }
  if (rep.badBlocks > 0 &&
      rep.firstCorruptOffset == core::DecodeReport::kNoCorruption) {
    return "firstCorruptOffset missing with bad blocks";
  }
  return "";
}

/// Runs every decode entry point over one mutant, folding each outcome
/// into `fp` and `tally`; returns an empty string when all invariants
/// held, else a description of the violation.
template <FloatingPoint T>
std::string driveTyped(core::CompressorStream& codec, ConstByteSpan s,
                       Rng& rng, Fingerprint& fp, Tally& tally) {
  try {
    const auto d = codec.decompress<T>(s);
    fp.num(1);
    fp.values(d.data);
  } catch (const Error& e) {
    ++tally.strictRejected;
    fp.num(2);
    fp.text(e.what());
  }

  // Ranges come from the (possibly damaged) header when it parses.
  const auto header = core::StreamHeader::tryParse(s);
  const u64 numBlocks = header ? header->numBlocks() : 1;
  const u64 blockSize = header ? header->blockSize : 32;
  const u64 numElements = header ? header->numElements : 32;

  const u64 first = rng.uniformInt(std::max<u64>(numBlocks, 1));
  const u64 count = 1 + rng.uniformInt(4);
  try {
    const auto r = codec.decompressBlocks<T>(s, first, count);
    fp.num(3);
    fp.num(r.firstElement);
    fp.values(r.values);
  } catch (const Error& e) {
    fp.num(4);
    fp.text(e.what());
  }

  const auto salvaged = codec.decompressResilient<T>(s, T{-1});
  const auto& rep = salvaged.report;
  fp.num(rep.headerOk);
  fp.text(rep.headerError);
  fp.num(rep.streamChecksumOk);
  fp.num(rep.blockChecksums);
  fp.num(rep.dictionaryOk);
  fp.num(rep.framingDamaged);
  fp.num(rep.totalBlocks);
  fp.num(rep.goodBlocks);
  fp.num(rep.badBlocks);
  fp.num(rep.firstCorruptOffset);
  fp.values(rep.verdicts);
  fp.values(salvaged.data);
  if (!rep.clean()) ++tally.salvageFlagged;
  const std::string violation =
      reportViolation(rep, salvaged.data.empty());
  if (!violation.empty()) return violation;

  // Replace up to three whole blocks with seeded values.
  const u64 replaceFirst = rng.uniformInt(std::max<u64>(numBlocks, 1));
  const u64 eFirst = replaceFirst * blockSize;
  const u64 eLast = std::min<u64>(
      numElements, (replaceFirst + 1 + rng.uniformInt(3)) * blockSize);
  std::vector<T> values(eLast > eFirst ? eLast - eFirst : blockSize);
  for (T& v : values) v = static_cast<T>(rng.uniform(-50.0, 50.0));
  const bool recordReplace = stampHolds(s, header);
  try {
    const auto c = codec.replaceBlocks<T>(s, replaceFirst, values);
    if (recordReplace) {
      fp.num(5);
      fp.values(c.stream);
    }
  } catch (const Error& e) {
    if (recordReplace) {
      fp.num(6);
      fp.text(e.what());
    }
  }
  return "";
}

std::string drive(core::CompressorStream& codec, const BaseStream& base,
                  ConstByteSpan mutant, Rng& rng, Fingerprint& fp,
                  Tally& tally) {
  return base.precision == Precision::F32
             ? driveTyped<f32>(codec, mutant, rng, fp, tally)
             : driveTyped<f64>(codec, mutant, rng, fp, tally);
}

}  // namespace

int main(int argc, char** argv) {
  const u64 iterations =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500;
  const u64 seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  core::CompressorStream codec(core::Config{.absErrorBound = 1e-2});
  const auto pool = makeBasePool(codec);
  codec.reconfigure(core::Config{.absErrorBound = 1e-2});

  Fingerprint fp;
  Tally tally;
  for (u64 i = 0; i < iterations; ++i) {
    Rng rng(keyedStream(seed, i).next());
    const BaseStream& base = pool[rng.uniformInt(pool.size())];
    std::vector<std::byte> mutant = base.bytes;
    const std::string what = mutate(rng, mutant);

    const std::string violation = drive(codec, base, mutant, rng, fp, tally);
    if (!violation.empty()) {
      std::fprintf(stderr,
                   "fuzz_decode FAILED: %s (mutation: %s, seed %llu, "
                   "iteration %llu)\n",
                   violation.c_str(), what.c_str(),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }
  }

  std::printf("fuzz_decode: %llu mutants ok (%llu strict-rejected, %llu "
              "salvage-flagged, seed %llu)\nfingerprint=%016llx\n",
              static_cast<unsigned long long>(iterations),
              static_cast<unsigned long long>(tally.strictRejected),
              static_cast<unsigned long long>(tally.salvageFlagged),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(fp.value()));
  return 0;
}
