#include "io/archive.hpp"

#include <algorithm>
#include <cstring>

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace cuszp2::io {

namespace {

constexpr u64 kArchiveMagic = 0x32505A43'48435241ull;  // "ARCHCZP2"
constexpr u64 kParityMagic = 0x32505A43'52415001ull;   // parity trailer
constexpr u32 kParityVersion = 1;

/// Fixed trailer byte counts: the header fields after the leading magic,
/// and the self-locating tail [trailer CRC u32][trailer bytes u64][magic
/// u64] at the very end of the archive.
constexpr usize kParityHeadBytes = 48;
constexpr usize kParityTailBytes = 20;

/// Resolved parity-trailer geometry (absolute positions in the archive).
struct TrailerView {
  usize trailerStart = 0;
  u64 protectedBytes = 0;
  u64 chunkBytes = 0;
  u64 groupSize = 0;
  u64 chunkCount = 0;
  u64 groupCount = 0;
  usize crcTable = 0;
  usize parity = 0;
};

enum class TrailerStatus { Absent, Damaged, Ok };

/// Locates and validates the parity trailer from the end of the archive:
/// tail magic -> framing -> trailer CRC -> geometry consistency. Any
/// inconsistency after the tail magic matched reports Damaged rather than
/// Absent, so a corrupted trailer is never silently treated as "no
/// parity".
TrailerStatus locateTrailer(ConstByteSpan archive, TrailerView& t) {
  const usize minTrailer = kParityHeadBytes + kParityTailBytes;
  const std::byte* end = archive.data() + archive.size();
  if (archive.size() < minTrailer || loadLe<u64>(end - 8) != kParityMagic) {
    return TrailerStatus::Absent;
  }
  const u64 trailerBytes = loadLe<u64>(end - 16);
  if (trailerBytes < minTrailer || trailerBytes > archive.size()) {
    return TrailerStatus::Damaged;
  }
  t.trailerStart = archive.size() - static_cast<usize>(trailerBytes);
  const std::byte* head = archive.data() + t.trailerStart;
  if (loadLe<u64>(head) != kParityMagic) return TrailerStatus::Damaged;
  const u32 storedCrc = loadLe<u32>(end - kParityTailBytes);
  const u32 actualCrc = crc32(archive.subspan(
      t.trailerStart, archive.size() - kParityTailBytes - t.trailerStart));
  if (storedCrc != actualCrc) return TrailerStatus::Damaged;
  if ((loadLe<u64>(head + 8) & 0xFFFFFFFFu) != kParityVersion) {
    return TrailerStatus::Damaged;
  }
  t.protectedBytes = loadLe<u64>(head + 16);
  t.chunkBytes = loadLe<u64>(head + 24);
  t.groupSize = loadLe<u64>(head + 32);
  t.chunkCount = loadLe<u64>(head + 40);
  if (t.chunkBytes == 0 || t.groupSize < 2 ||
      t.protectedBytes != t.trailerStart ||
      t.chunkCount !=
          (t.protectedBytes + t.chunkBytes - 1) / t.chunkBytes) {
    return TrailerStatus::Damaged;
  }
  t.groupCount = (t.chunkCount + t.groupSize - 1) / t.groupSize;
  t.crcTable = t.trailerStart + kParityHeadBytes;
  t.parity = t.crcTable + static_cast<usize>(t.chunkCount) * 4;
  const usize expectEnd = t.parity +
                          static_cast<usize>(t.groupCount * t.chunkBytes) +
                          kParityTailBytes;
  if (expectEnd != archive.size()) return TrailerStatus::Damaged;
  return TrailerStatus::Ok;
}

/// Shared verify/repair walk. `mut` is null for verify (reconstructions
/// are attempted into scratch and counted as repairable) and the
/// archive's mutable base for repair (verified reconstructions are
/// written back).
RepairReport scanParity(ConstByteSpan archive, std::byte* mut) {
  RepairReport rep;
  TrailerView t;
  const TrailerStatus status = locateTrailer(archive, t);
  if (status == TrailerStatus::Absent) return rep;
  rep.parityPresent = true;
  if (status == TrailerStatus::Damaged) return rep;
  rep.trailerOk = true;
  rep.protectedBytes = t.protectedBytes;
  rep.totalChunks = t.chunkCount;

  const auto chunkLen = [&](u64 c) {
    return static_cast<usize>(std::min<u64>(
        t.chunkBytes, t.protectedBytes - c * t.chunkBytes));
  };

  const std::byte* crcs = archive.data() + t.crcTable;
  std::vector<std::byte> acc(static_cast<usize>(t.chunkBytes));
  std::vector<u64> bad;
  for (u64 g = 0; g < t.groupCount; ++g) {
    const u64 first = g * t.groupSize;
    const u64 last = std::min(t.chunkCount, first + t.groupSize);
    bad.clear();
    for (u64 c = first; c < last; ++c) {
      const u32 crc = crc32(archive.subspan(
          static_cast<usize>(c * t.chunkBytes), chunkLen(c)));
      if (crc != loadLe<u32>(crcs + static_cast<usize>(c) * 4)) {
        bad.push_back(c);
      }
    }
    if (bad.empty()) continue;
    rep.badChunks += bad.size();
    if (bad.size() > 1) {
      rep.unrepairableChunks += bad.size();
      continue;
    }

    // XOR of the parity chunk with every intact chunk of the group
    // reconstructs the damaged one (short final chunk zero-padded).
    const u64 target = bad[0];
    std::memcpy(acc.data(),
                archive.data() + t.parity +
                    static_cast<usize>(g * t.chunkBytes),
                static_cast<usize>(t.chunkBytes));
    for (u64 c = first; c < last; ++c) {
      if (c == target) continue;
      const std::byte* src =
          archive.data() + static_cast<usize>(c * t.chunkBytes);
      const usize len = chunkLen(c);
      for (usize i = 0; i < len; ++i) acc[i] ^= src[i];
    }
    const usize targetLen = chunkLen(target);
    const u32 rebuiltCrc = crc32(ConstByteSpan(acc.data(), targetLen));
    if (rebuiltCrc != loadLe<u32>(crcs + static_cast<usize>(target) * 4)) {
      ++rep.unrepairableChunks;
      continue;
    }
    if (mut != nullptr) {
      std::memcpy(mut + static_cast<usize>(target * t.chunkBytes),
                  acc.data(), targetLen);
      ++rep.repairedChunks;
    } else {
      ++rep.repairableChunks;
    }
  }
  return rep;
}

}  // namespace

bool isArchive(ConstByteSpan bytes) {
  return bytes.size() >= 8 && loadLe<u64>(bytes.data()) == kArchiveMagic;
}

RepairReport verifyParity(ConstByteSpan archive) {
  return scanParity(archive, nullptr);
}

RepairReport repairParity(std::span<std::byte> archive) {
  return scanParity(ConstByteSpan(archive.data(), archive.size()),
                    archive.data());
}

void ArchiveWriter::addField(const std::string& name, ConstByteSpan stream) {
  require(!name.empty(), "ArchiveWriter: field name must be non-empty");
  require(name.size() <= 4096, "ArchiveWriter: field name too long");
  require(!hasField(name), "ArchiveWriter: duplicate field " + name);
  fields_.push_back(
      {name, std::vector<std::byte>(stream.begin(), stream.end())});
}

template <FloatingPoint T>
std::vector<core::Compressed> ArchiveWriter::addFieldsCompressed(
    core::CompressorStream& stream, std::span<const std::string> names,
    std::span<const std::span<const T>> fields) {
  require(names.size() == fields.size(),
          "ArchiveWriter: one name per field required");
  // Validate every name up front so a mid-batch failure cannot leave a
  // partially-added batch behind.
  for (usize i = 0; i < names.size(); ++i) {
    require(!names[i].empty(), "ArchiveWriter: field name must be non-empty");
    require(names[i].size() <= 4096, "ArchiveWriter: field name too long");
    require(!hasField(names[i]), "ArchiveWriter: duplicate field " + names[i]);
    for (usize j = i + 1; j < names.size(); ++j) {
      require(names[i] != names[j],
              "ArchiveWriter: duplicate field " + names[i]);
    }
  }
  std::vector<core::Compressed> results = stream.compressBatch(fields);
  for (usize i = 0; i < names.size(); ++i) {
    fields_.push_back({names[i], results[i].stream});
  }
  return results;
}

template std::vector<core::Compressed> ArchiveWriter::addFieldsCompressed<f32>(
    core::CompressorStream&, std::span<const std::string>,
    std::span<const std::span<const f32>>);
template std::vector<core::Compressed> ArchiveWriter::addFieldsCompressed<f64>(
    core::CompressorStream&, std::span<const std::string>,
    std::span<const std::span<const f64>>);

bool ArchiveWriter::hasField(const std::string& name) const {
  return std::any_of(fields_.begin(), fields_.end(),
                     [&](const Field& f) { return f.name == name; });
}

std::vector<std::byte> ArchiveWriter::finalize() const {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.putU64(kArchiveMagic);
  w.putU64(fields_.size());
  for (const auto& f : fields_) {
    w.putString(f.name);
    w.putU64(f.stream.size());
  }
  for (const auto& f : fields_) w.putBytes(f.stream);
  return out;
}

std::vector<std::byte> ArchiveWriter::finalize(
    const ParityOptions& parity) const {
  return withParityTrailer(finalize(), parity);
}

std::vector<std::byte> withParityTrailer(std::vector<std::byte> out,
                                         const ParityOptions& parity) {
  require(parity.chunkBytes >= 16,
          "withParityTrailer: parity chunkBytes must be at least 16");
  require(parity.groupSize >= 2,
          "withParityTrailer: parity groupSize must be at least 2");

  const u64 protectedBytes = out.size();
  const u64 chunkCount =
      (protectedBytes + parity.chunkBytes - 1) / parity.chunkBytes;
  const u64 groupCount =
      (chunkCount + parity.groupSize - 1) / parity.groupSize;
  const usize trailerStart = out.size();
  out.reserve(out.size() + kParityHeadBytes +
              static_cast<usize>(chunkCount) * 4 +
              static_cast<usize>(groupCount) * parity.chunkBytes +
              kParityTailBytes);

  ByteWriter w(out);
  w.putU64(kParityMagic);
  w.putU64(kParityVersion);  // version u32 + reserved u32
  w.putU64(protectedBytes);
  w.putU64(parity.chunkBytes);
  w.putU64(parity.groupSize);
  w.putU64(chunkCount);

  const auto chunkLen = [&](u64 c) {
    return std::min<usize>(parity.chunkBytes,
                           static_cast<usize>(protectedBytes) -
                               c * parity.chunkBytes);
  };
  for (u64 c = 0; c < chunkCount; ++c) {
    w.putU32(crc32(ConstByteSpan(out.data() + c * parity.chunkBytes,
                                 chunkLen(c))));
  }
  std::vector<std::byte> acc(parity.chunkBytes);
  for (u64 g = 0; g < groupCount; ++g) {
    std::fill(acc.begin(), acc.end(), std::byte{0});
    const u64 first = g * parity.groupSize;
    const u64 last = std::min(chunkCount, first + parity.groupSize);
    for (u64 c = first; c < last; ++c) {
      const std::byte* src = out.data() + c * parity.chunkBytes;
      const usize len = chunkLen(c);
      for (usize i = 0; i < len; ++i) acc[i] ^= src[i];
    }
    w.putBytes(acc);
  }

  const usize bodyBytes = out.size() - trailerStart;
  w.putU32(crc32(ConstByteSpan(out.data() + trailerStart, bodyBytes)));
  w.putU64(bodyBytes + kParityTailBytes);
  w.putU64(kParityMagic);
  return out;
}

ArchiveReader::ArchiveReader(ConstByteSpan archive) : archive_(archive) {
  ByteReader toc(archive, "Archive: truncated header");
  require(toc.takeU64() == kArchiveMagic,
          "ArchiveReader: bad magic (not a cuSZp2 archive)");
  const u64 count = toc.takeU64();
  require(count <= 1'000'000, "ArchiveReader: implausible field count");

  entries_.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    Entry e;
    const u32 nameLen = toc.takeU32();
    require(nameLen > 0 && nameLen <= 4096,
            "ArchiveReader: invalid field-name length");
    require(toc.remaining() >= nameLen, "Archive: truncated field name");
    const ConstByteSpan name = toc.takeBytes(nameLen);
    e.name.assign(reinterpret_cast<const char*>(name.data()), name.size());
    e.length = toc.takeU64();
    entries_.push_back(std::move(e));
  }
  usize offset = toc.offset();
  for (auto& e : entries_) {
    e.offset = offset;
    require(offset + e.length >= offset, "ArchiveReader: length overflow");
    offset += e.length;
  }
  require(offset <= archive.size(),
          "ArchiveReader: archive shorter than its table of contents");
}

std::vector<std::string> ArchiveReader::fieldNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& e : entries_) names.push_back(e.name);
  return names;
}

bool ArchiveReader::hasField(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

ConstByteSpan ArchiveReader::field(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return archive_.subspan(e.offset, e.length);
  }
  throw Error("ArchiveReader: no field named " + name);
}

}  // namespace cuszp2::io
