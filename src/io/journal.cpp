#include "io/journal.hpp"

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "io/crash.hpp"
#include "io/raw.hpp"
#include "telemetry/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CUSZP2_IO_HAS_POSIX_SYNC 1
#include <unistd.h>
#endif

namespace cuszp2::io {

namespace {

std::vector<std::byte> buildHeader(u64 ownerTag, u64 baseTick) {
  std::vector<std::byte> h;
  h.reserve(kJournalHeaderBytes);
  ByteWriter w(h);
  w.putU32(kJournalMagic);
  w.putU32(kJournalVersion);
  w.putU64(ownerTag);
  w.putU64(baseTick);
  w.putU32(0);  // reserved
  w.putU32(crc32(h));
  return h;
}

void syncFile(std::FILE* f, const std::string& path) {
#if defined(CUSZP2_IO_HAS_POSIX_SYNC)
  require(::fsync(::fileno(f)) == 0, "journal: fsync failed for " + path);
#else
  (void)f;
  (void)path;
#endif
}

void truncateFile(const std::string& path, usize bytes) {
#if defined(CUSZP2_IO_HAS_POSIX_SYNC)
  require(::truncate(path.c_str(), static_cast<off_t>(bytes)) == 0,
          "journal: cannot truncate " + path);
#else
  std::vector<std::byte> keep = readBytes(path);
  require(bytes <= keep.size(), "journal: truncate beyond end of " + path);
  keep.resize(bytes);
  writeBytes(path, keep);
#endif
}

}  // namespace

ReplayResult replayJournal(const std::string& path) {
  const std::vector<std::byte> bytes = readBytes(path);
  require(bytes.size() >= kJournalHeaderBytes,
          "journal: header truncated in " + path);
  require(loadLe<u32>(bytes.data()) == kJournalMagic,
          "journal: bad magic in " + path);
  require(loadLe<u32>(bytes.data() + 4) == kJournalVersion,
          "journal: unsupported version in " + path);
  const u32 headerCrc = loadLe<u32>(bytes.data() + kJournalHeaderBytes - 4);
  require(crc32(ConstByteSpan(bytes.data(), kJournalHeaderBytes - 4)) ==
              headerCrc,
          "journal: header checksum mismatch in " + path);

  ReplayResult out;
  out.ownerTag = loadLe<u64>(bytes.data() + 8);
  out.baseTick = loadLe<u64>(bytes.data() + 16);

  usize off = kJournalHeaderBytes;
  while (true) {
    if (bytes.size() - off < kRecordFrameBytes) break;
    const std::byte* frame = bytes.data() + off;
    if (loadLe<u32>(frame) != kRecordMagic) break;
    const u32 type = loadLe<u32>(frame + 4);
    const u32 payloadBytes = loadLe<u32>(frame + 8);
    const u32 payloadCrc = loadLe<u32>(frame + 12);
    if (payloadBytes > bytes.size() - off - kRecordFrameBytes) break;
    const ConstByteSpan payload(frame + kRecordFrameBytes, payloadBytes);
    if (crc32(payload) != payloadCrc) break;
    JournalRecord rec;
    rec.type = type;
    rec.payload.assign(payload.begin(), payload.end());
    out.records.push_back(std::move(rec));
    off += kRecordFrameBytes + payloadBytes;
  }

  out.validBytes = off;
  out.discardedBytes = bytes.size() - off;
  out.torn = out.discardedBytes > 0;

  auto& reg = telemetry::registry();
  reg.counter("journal.replays").add(1);
  reg.counter("journal.replayed_records").add(out.records.size());
  if (out.torn) {
    reg.counter("journal.torn_tails").add(1);
    reg.counter("journal.discarded_bytes").add(out.discardedBytes);
  }
  return out;
}

JournalWriter::JournalWriter(const std::string& path, u64 ownerTag,
                             u64 baseTick)
    : JournalWriter(path, ownerTag, baseTick, /*fresh=*/true, 0) {}

std::unique_ptr<JournalWriter> JournalWriter::resume(const std::string& path,
                                                     u64 ownerTag,
                                                     u64 baseTick,
                                                     usize validBytes) {
  require(validBytes >= kJournalHeaderBytes,
          "journal: resume offset inside the header of " + path);
  return std::unique_ptr<JournalWriter>(
      new JournalWriter(path, ownerTag, baseTick, /*fresh=*/false, validBytes));
}

JournalWriter::JournalWriter(std::string path, u64 ownerTag, u64 baseTick,
                             bool fresh, usize resumeValidBytes)
    : path_(std::move(path)), ownerTag_(ownerTag), baseTick_(baseTick) {
  if (fresh) {
    const std::vector<std::byte> header = buildHeader(ownerTag_, baseTick_);
    writeBytesAtomic(path_, ConstByteSpan(header.data(), header.size()));
    openForAppend(0);
  } else {
    openForAppend(resumeValidBytes);
  }
}

JournalWriter::~JournalWriter() {
  // Unsynced records are intentionally dropped: they were never
  // acknowledged as durable.
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::openForAppend(usize truncateTo) {
  if (truncateTo > 0) truncateFile(path_, truncateTo);
  file_ = std::fopen(path_.c_str(), "ab");
  require(file_ != nullptr, "journal: cannot open " + path_ + " for append");
}

void JournalWriter::append(u32 type, ConstByteSpan payload) {
  require(payload.size() <= static_cast<usize>(UINT32_MAX),
          "journal: record payload too large");
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter w(pending_);
  w.putU32(kRecordMagic);
  w.putU32(type);
  w.putU32(static_cast<u32>(payload.size()));
  w.putU32(crc32(payload));
  w.putBytes(payload);
  ++appended_;
  telemetry::registry().counter("journal.appends").add(1);
}

void JournalWriter::flushLocked() {
  if (pending_.empty()) return;
  const CrashAction act =
      crashCheckpoint(CrashSite::Write, path_, pending_.size());
  if (act.fire) {
    // Persist the torn prefix (plus any seeded garbage tail) exactly as a
    // dying kernel would have, then die.
    if (act.keepBytes > 0) {
      std::fwrite(pending_.data(), 1, act.keepBytes, file_);
    }
    if (!act.garbage.empty()) {
      std::fwrite(act.garbage.data(), 1, act.garbage.size(), file_);
    }
    std::fflush(file_);
    throwCrash(CrashSite::Write, path_);
  }
  require(std::fwrite(pending_.data(), 1, pending_.size(), file_) ==
              pending_.size(),
          "journal: short write to " + path_);
  require(std::fflush(file_) == 0, "journal: flush failed for " + path_);
  telemetry::registry().counter("journal.bytes_appended").add(pending_.size());
  pending_.clear();
}

void JournalWriter::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  flushLocked();
  const CrashAction act = crashCheckpoint(CrashSite::Sync, path_, 0);
  if (act.fire) throwCrash(CrashSite::Sync, path_);
  syncFile(file_, path_);
  synced_ = appended_;
  telemetry::registry().counter("journal.syncs").add(1);
}

void JournalWriter::reset(u64 newBaseTick) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  // Pending (unsynced) records are superseded by the snapshot the caller
  // just wrote; drop them. The atomic header replacement means a crash
  // here leaves either the old journal or the fresh one — both replayable.
  pending_.clear();
  baseTick_ = newBaseTick;
  const std::vector<std::byte> header = buildHeader(ownerTag_, baseTick_);
  writeBytesAtomic(path_, ConstByteSpan(header.data(), header.size()));
  openForAppend(0);
  appended_ = 0;
  synced_ = 0;
  telemetry::registry().counter("journal.resets").add(1);
}

u64 JournalWriter::recordsAppended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

u64 JournalWriter::recordsSynced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_;
}

}  // namespace cuszp2::io
