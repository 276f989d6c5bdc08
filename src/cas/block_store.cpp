#include "cas/block_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "core/format.hpp"

namespace cuszp2::cas {

namespace {

constexpr u32 kIndexMagic = 0x31534143u;  // "CAS1"
constexpr u32 kIndexVersion = 1;
constexpr const char* kIndexField = "cas.index";
constexpr const char* kDataField = "cas.data";

// WAL record kinds (docs/DURABILITY.md). Every payload starts with the
// u64 store tick the mutator ran at, so recovery can tell which records
// a snapshot already covers.
constexpr u32 kRecPut = 1;      // tick, tenant, name, size, bytes
constexpr u32 kRecErase = 2;    // tick, tenant, name
constexpr u32 kRecGc = 3;       // tick
constexpr u32 kRecCompact = 4;  // tick, tenant, name, size, bytes
constexpr u32 kRecCorrupt = 5;  // tick, tenant, name, size, bytes

// A short read in the index section or in a journal record payload.
constexpr const char* kTruncated = "cas: truncated index section";

}  // namespace

std::string BlockStore::keyOf(const std::string& tenant,
                              const std::string& name) {
  return tenant + "/" + name;
}

BlockStore::BlockStore(StoreConfig config) : config_(config) {
  require(config_.chunkBytes > 0, "cas: chunkBytes must be positive");
  auto& reg = telemetry::registry();
  instruments_.puts = &reg.counter("cas.puts");
  instruments_.gets = &reg.counter("cas.gets");
  instruments_.erases = &reg.counter("cas.erases");
  instruments_.chunkHits = &reg.counter("cas.chunk_hits");
  instruments_.chunkMisses = &reg.counter("cas.chunk_misses");
  instruments_.refIncs = &reg.counter("cas.ref_incs");
  instruments_.refDecs = &reg.counter("cas.ref_decs");
  instruments_.gcChunks = &reg.counter("cas.gc_chunks");
  instruments_.resurrections = &reg.counter("cas.resurrections");
  instruments_.compactionMigrations = &reg.counter("cas.compaction.migrations");
  instruments_.compactionBytes =
      &reg.counter("cas.compaction.bytes_reclaimed");
  instruments_.objects = &reg.gauge("cas.objects");
  instruments_.uniqueChunks = &reg.gauge("cas.chunks_unique");
  instruments_.bytesLogical = &reg.gauge("cas.bytes_logical");
  instruments_.bytesPhysical = &reg.gauge("cas.bytes_physical");
  instruments_.bytesSaved = &reg.gauge("cas.bytes_saved");
  instruments_.dedupRatio = &reg.gauge("cas.dedup_ratio");
}

u32 BlockStore::parseFormatVersion(ConstByteSpan bytes) {
  const auto header = core::StreamHeader::tryParse(bytes);
  return header ? header->version : 0;
}

std::vector<Hash128> BlockStore::referenceChunksLocked(ConstByteSpan bytes,
                                                       PutResult& result) {
  std::vector<Hash128> refs;
  refs.reserve((bytes.size() + config_.chunkBytes - 1) / config_.chunkBytes);
  for (usize off = 0; off < bytes.size(); off += config_.chunkBytes) {
    const usize len = std::min(config_.chunkBytes, bytes.size() - off);
    const ConstByteSpan slice = bytes.subspan(off, len);
    const Hash128 h = hash128(slice, config_.hashSeed);
    auto [it, inserted] = chunks_.try_emplace(h);
    Chunk& chunk = it->second;
    if (inserted) {
      chunk.refs = 1;
      chunk.bytes = len;
      chunk.owned.assign(slice.begin(), slice.end());
      ++result.newChunks;
      result.physicalBytesAdded += len;
      ++stats_.chunkMisses;
      ++stats_.uniqueChunks;
      stats_.physicalBytes += len;
      instruments_.chunkMisses->add();
    } else if (chunk.refs == 0) {
      // Parked zero-refcount entry (deferGc): resurrect instead of
      // re-storing — the bytes are already here.
      chunk.refs = 1;
      ++result.dedupChunks;
      ++stats_.chunkHits;
      ++stats_.resurrections;
      --stats_.parkedChunks;
      ++stats_.uniqueChunks;
      stats_.physicalBytes += chunk.bytes;
      instruments_.chunkHits->add();
      instruments_.resurrections->add();
    } else {
      ++chunk.refs;
      ++result.dedupChunks;
      ++stats_.chunkHits;
      instruments_.chunkHits->add();
    }
    ++stats_.refIncs;
    instruments_.refIncs->add();
    ++stats_.logicalChunks;
    refs.push_back(h);
  }
  return refs;
}

void BlockStore::releaseChunksLocked(const std::vector<Hash128>& chunks) {
  for (const Hash128& h : chunks) {
    auto it = chunks_.find(h);
    require(it != chunks_.end() && it->second.refs > 0,
            "cas: internal error — releasing an unreferenced chunk");
    Chunk& chunk = it->second;
    --chunk.refs;
    ++stats_.refDecs;
    instruments_.refDecs->add();
    --stats_.logicalChunks;
    if (chunk.refs == 0) {
      --stats_.uniqueChunks;
      stats_.physicalBytes -= chunk.bytes;
      if (config_.deferGc) {
        ++stats_.parkedChunks;  // payload retained until gc()
      } else {
        ++stats_.gcFreedChunks;
        stats_.gcFreedBytes += chunk.bytes;
        instruments_.gcChunks->add();
        chunks_.erase(it);
      }
    }
  }
}

PutResult BlockStore::rewriteLocked(Object& obj, ConstByteSpan bytes) {
  PutResult result;
  result.logicalBytes = bytes.size();
  result.replaced = true;
  // Reference the new content before releasing the old so shared chunks
  // never dip to refcount zero mid-rewrite (no free/re-store churn when
  // the two versions overlap).
  std::vector<Hash128> fresh = referenceChunksLocked(bytes, result);
  releaseChunksLocked(obj.chunks);
  obj.chunks = std::move(fresh);
  stats_.logicalBytes -= obj.bytes;
  stats_.logicalBytes += bytes.size();
  obj.bytes = bytes.size();
  obj.formatVersion = parseFormatVersion(bytes);
  // Generations come from the store-global tick clock, not a per-object
  // counter: every mutator advances tick_ (under mutex_) before rewriting,
  // so a deleted-and-recreated key can never replay a generation a
  // compaction scan captured earlier (ABA on stale commits).
  obj.generation = tick_;
  obj.lastTouch = tick_;
  return result;
}

PutResult BlockStore::put(const std::string& tenant, const std::string& name,
                          ConstByteSpan bytes) {
  require(!tenant.empty() && tenant.find('/') == std::string::npos,
          "cas: tenant must be non-empty and free of '/'");
  require(!name.empty(), "cas: object name must be non-empty");
  std::lock_guard lock(mutex_);
  ++tick_;
  PutResult result;
  const std::string key = keyOf(tenant, name);
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    result = rewriteLocked(it->second, bytes);
  } else {
    Object obj;
    obj.tenant = tenant;
    obj.name = name;
    result.logicalBytes = bytes.size();
    obj.chunks = referenceChunksLocked(bytes, result);
    obj.bytes = bytes.size();
    obj.formatVersion = parseFormatVersion(bytes);
    obj.generation = tick_;  // globally unique (see rewriteLocked)
    obj.lastTouch = tick_;
    objects_.emplace(key, std::move(obj));
    ++stats_.objects;
    stats_.logicalBytes += bytes.size();
  }
  ++stats_.puts;
  instruments_.puts->add();
  refreshGaugesLocked();
  journalOpLocked(kRecPut, tenant, name, bytes);
  return result;
}

std::vector<std::byte> BlockStore::assembleLocked(const Object& obj,
                                                  bool verifyHashes) const {
  std::vector<std::byte> out;
  out.reserve(obj.bytes);
  for (const Hash128& h : obj.chunks) {
    auto it = chunks_.find(h);
    require(it != chunks_.end(),
            "cas: object references a missing chunk (store damaged)");
    const ConstByteSpan payload = it->second.payload();
    if (verifyHashes) {
      require(hash128(payload, config_.hashSeed) == h,
              "cas: chunk failed content-hash verification (corrupt chunk " +
                  h.hex() + ")");
    }
    out.insert(out.end(), payload.begin(), payload.end());
  }
  require(out.size() == obj.bytes,
          "cas: assembled size disagrees with the object's byte count");
  return out;
}

std::vector<std::byte> BlockStore::get(const std::string& tenant,
                                       const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = objects_.find(keyOf(tenant, name));
  require(it != objects_.end(), "cas: unknown object " + keyOf(tenant, name));
  ++tick_;
  it->second.lastTouch = tick_;
  ++stats_.gets;
  instruments_.gets->add();
  return assembleLocked(it->second, /*verifyHashes=*/true);
}

bool BlockStore::contains(const std::string& tenant,
                          const std::string& name) const {
  std::lock_guard lock(mutex_);
  return objects_.find(keyOf(tenant, name)) != objects_.end();
}

bool BlockStore::erase(const std::string& tenant, const std::string& name) {
  std::lock_guard lock(mutex_);
  auto it = objects_.find(keyOf(tenant, name));
  if (it == objects_.end()) return false;
  ++tick_;
  releaseChunksLocked(it->second.chunks);
  stats_.logicalBytes -= it->second.bytes;
  --stats_.objects;
  objects_.erase(it);
  ++stats_.erases;
  instruments_.erases->add();
  refreshGaugesLocked();
  journalOpLocked(kRecErase, tenant, name, {});
  return true;
}

u64 BlockStore::gc() {
  std::lock_guard lock(mutex_);
  u64 freed = 0;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs == 0) {
      ++freed;
      --stats_.parkedChunks;
      ++stats_.gcFreedChunks;
      stats_.gcFreedBytes += it->second.bytes;
      instruments_.gcChunks->add();
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
  refreshGaugesLocked();
  journalOpLocked(kRecGc, {}, {}, {});
  return freed;
}

u32 BlockStore::crcOf(const std::string& tenant,
                      const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = objects_.find(keyOf(tenant, name));
  require(it != objects_.end(), "cas: unknown object " + keyOf(tenant, name));
  u32 crc = 0;
  for (const Hash128& h : it->second.chunks) {
    auto cit = chunks_.find(h);
    require(cit != chunks_.end(),
            "cas: object references a missing chunk (store damaged)");
    crc = crc32(cit->second.payload(), crc);
  }
  return crc;
}

bool BlockStore::verifyAll(std::string* error) const {
  std::lock_guard lock(mutex_);
  for (const auto& [hash, chunk] : chunks_) {
    if (hash128(chunk.payload(), config_.hashSeed) != hash) {
      if (error) *error = "chunk " + hash.hex() + " fails its content hash";
      return false;
    }
  }
  for (const auto& [key, obj] : objects_) {
    u64 total = 0;
    for (const Hash128& h : obj.chunks) {
      auto it = chunks_.find(h);
      if (it == chunks_.end()) {
        if (error) *error = "object " + key + " references a missing chunk";
        return false;
      }
      total += it->second.bytes;
    }
    if (total != obj.bytes) {
      if (error) {
        *error = "object " + key + " chunk sizes disagree with its byte count";
      }
      return false;
    }
  }
  return true;
}

void BlockStore::checkInvariants() const {
  std::lock_guard lock(mutex_);
  std::map<Hash128, u32> expected;
  u64 objects = 0;
  u64 logicalChunks = 0;
  u64 logicalBytes = 0;
  for (const auto& [key, obj] : objects_) {
    ++objects;
    logicalBytes += obj.bytes;
    logicalChunks += obj.chunks.size();
    for (const Hash128& h : obj.chunks) ++expected[h];
  }
  u64 uniqueChunks = 0;
  u64 parkedChunks = 0;
  u64 physicalBytes = 0;
  for (const auto& [hash, chunk] : chunks_) {
    auto it = expected.find(hash);
    const u32 want = it == expected.end() ? 0 : it->second;
    require(chunk.refs == want,
            "cas invariant: chunk " + hash.hex() + " refcount disagrees with "
            "its referencing objects");
    if (chunk.refs == 0) {
      ++parkedChunks;
    } else {
      ++uniqueChunks;
      physicalBytes += chunk.bytes;
    }
  }
  for (const auto& [hash, want] : expected) {
    require(chunks_.count(hash) != 0,
            "cas invariant: referenced chunk " + hash.hex() + " is missing");
    (void)want;
  }
  require(parkedChunks == 0 || config_.deferGc,
          "cas invariant: parked chunks present without deferGc");
  require(stats_.objects == objects, "cas invariant: object tally drifted");
  require(stats_.logicalChunks == logicalChunks,
          "cas invariant: logical chunk tally drifted");
  require(stats_.logicalBytes == logicalBytes,
          "cas invariant: logical byte tally drifted");
  require(stats_.uniqueChunks == uniqueChunks,
          "cas invariant: unique chunk tally drifted");
  require(stats_.parkedChunks == parkedChunks,
          "cas invariant: parked chunk tally drifted");
  require(stats_.physicalBytes == physicalBytes,
          "cas invariant: physical byte tally drifted");
}

StoreStats BlockStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::vector<ObjectInfo> BlockStore::objects(const std::string& tenant) const {
  std::lock_guard lock(mutex_);
  std::vector<ObjectInfo> out;
  for (const auto& [key, obj] : objects_) {
    if (!tenant.empty() && obj.tenant != tenant) continue;
    ObjectInfo info;
    info.tenant = obj.tenant;
    info.name = obj.name;
    info.bytes = obj.bytes;
    info.formatVersion = obj.formatVersion;
    info.idleTicks = tick_ - obj.lastTouch;
    info.generation = obj.generation;
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<std::string> BlockStore::names(const std::string& tenant) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [key, obj] : objects_) {
    if (obj.tenant == tenant) out.push_back(obj.name);
  }
  return out;
}

std::vector<BlockStore::Candidate> BlockStore::compactionCandidates(
    u64 coldTicks, usize limit) const {
  std::lock_guard lock(mutex_);
  std::vector<Candidate> out;
  for (const auto& [key, obj] : objects_) {
    if (out.size() >= limit) break;
    const bool hotEncoded = obj.formatVersion == core::kFormatVersion ||
                            obj.formatVersion == core::kFormatVersionV2;
    if (!hotEncoded) continue;
    if (tick_ - obj.lastTouch < coldTicks) continue;
    Candidate c;
    c.tenant = obj.tenant;
    c.name = obj.name;
    c.bytes = assembleLocked(obj, /*verifyHashes=*/true);
    c.generation = obj.generation;
    out.push_back(std::move(c));
  }
  return out;
}

bool BlockStore::commitCompaction(const std::string& tenant,
                                  const std::string& name,
                                  ConstByteSpan newBytes,
                                  u64 scannedGeneration) {
  std::lock_guard lock(mutex_);
  auto it = objects_.find(keyOf(tenant, name));
  if (it == objects_.end()) return false;  // deleted while compacting
  Object& obj = it->second;
  if (obj.generation != scannedGeneration) {
    return false;  // rewritten while compacting — the scan is stale
  }
  ++tick_;
  const u64 oldBytes = obj.bytes;
  rewriteLocked(obj, newBytes);
  ++stats_.compactionMigrations;
  instruments_.compactionMigrations->add();
  if (oldBytes > obj.bytes) {
    stats_.compactionBytesReclaimed += oldBytes - obj.bytes;
    instruments_.compactionBytes->add(oldBytes - obj.bytes);
  }
  refreshGaugesLocked();
  // The commit window is the trickiest crash point: the record makes the
  // rewrite durable the instant the commit is acknowledged.
  journalOpLocked(kRecCompact, tenant, name, newBytes);
  return true;
}

void BlockStore::corruptForDrill(const std::string& tenant,
                                 const std::string& name, usize byteOffset) {
  std::lock_guard lock(mutex_);
  auto it = objects_.find(keyOf(tenant, name));
  require(it != objects_.end(), "cas: unknown object " + keyOf(tenant, name));
  Object& obj = it->second;
  require(obj.bytes > 0, "cas: cannot corrupt an empty object");
  std::vector<std::byte> bytes =
      assembleLocked(obj, /*verifyHashes=*/false);
  bytes[byteOffset % bytes.size()] ^= std::byte{0x40};
  ++tick_;
  rewriteLocked(obj, bytes);
  refreshGaugesLocked();
  journalOpLocked(kRecCorrupt, tenant, name, bytes);
}

void BlockStore::refreshGaugesLocked() const {
  instruments_.objects->set(static_cast<f64>(stats_.objects));
  instruments_.uniqueChunks->set(static_cast<f64>(stats_.uniqueChunks));
  instruments_.bytesLogical->set(static_cast<f64>(stats_.logicalBytes));
  instruments_.bytesPhysical->set(static_cast<f64>(stats_.physicalBytes));
  instruments_.bytesSaved->set(static_cast<f64>(stats_.bytesSaved()));
  instruments_.dedupRatio->set(stats_.dedupRatio());
}

// ---- persistence ------------------------------------------------------

void BlockStore::save(const std::string& path,
                      const io::ParityOptions* parity) const {
  std::lock_guard lock(mutex_);

  // Chunk table in map (= hash-ascending) order: deterministic bytes for
  // identical store content.
  std::vector<std::byte> index;
  std::vector<std::byte> data;
  ByteWriter idx(index);
  idx.putU32(kIndexMagic);
  idx.putU32(kIndexVersion);
  idx.putU64(config_.hashSeed);
  idx.putU64(static_cast<u64>(config_.chunkBytes));
  idx.putU64(tick_);
  idx.putU64(static_cast<u64>(chunks_.size()));
  idx.putU64(static_cast<u64>(objects_.size()));

  std::map<Hash128, u64> tableIndex;
  u64 next = 0;
  for (const auto& [hash, chunk] : chunks_) {
    idx.putU64(hash.hi);
    idx.putU64(hash.lo);
    idx.putU64(chunk.bytes);
    idx.putU32(chunk.refs);
    const ConstByteSpan payload = chunk.payload();
    data.insert(data.end(), payload.begin(), payload.end());
    tableIndex.emplace(hash, next++);
  }

  for (const auto& [key, obj] : objects_) {
    idx.putString(obj.tenant);
    idx.putString(obj.name);
    idx.putU32(obj.formatVersion);
    idx.putU64(obj.bytes);
    idx.putU64(obj.generation);
    idx.putU64(obj.lastTouch);
    idx.putU64(static_cast<u64>(obj.chunks.size()));
    for (const Hash128& h : obj.chunks) {
      idx.putU64(tableIndex.at(h));
    }
  }
  idx.putU32(crc32(index));
  ByteWriter(data).putU32(crc32(data));

  io::ArchiveWriter writer;
  writer.addField(kIndexField, index);
  writer.addField(kDataField, data);
  // Atomic temp+rename: a crash mid-save never destroys the previous
  // file, and saving over the very path this store was load()ed from is
  // safe — backing_ keeps mapping the old inode, so view-backed chunks
  // stay valid after the rename.
  io::writeBytesAtomic(path,
                       parity ? writer.finalize(*parity) : writer.finalize());
  // The snapshot supersedes every journaled record: reset the journal so
  // replay work stays proportional to activity since the last save. A
  // crash between the rename above and this reset leaves a snapshot
  // *newer* than the journal — recover() skips the covered records by
  // tick, so the window is safe.
  if (journal_) journal_->reset(tick_);
}

std::unique_ptr<BlockStore> BlockStore::load(const std::string& path,
                                             StoreConfig config) {
  auto store = std::unique_ptr<BlockStore>(new BlockStore(config));
  store->backing_ = io::MappedBytes(path);
  const ConstByteSpan file = store->backing_.bytes();
  require(io::isArchive(file), "cas: not an archive file: " + path);
  io::ArchiveReader reader(file);
  require(reader.hasField(kIndexField) && reader.hasField(kDataField),
          "cas: archive has no CAS index: " + path);

  const ConstByteSpan index = reader.field(kIndexField);
  require(index.size() >= 4, kTruncated);
  const ConstByteSpan body = index.subspan(0, index.size() - 4);
  require(loadLe<u32>(index.data() + body.size()) == crc32(body),
          "cas: index section fails its CRC guard");

  ByteReader cur(body, kTruncated);
  require(cur.takeU32() == kIndexMagic, "cas: bad index magic");
  require(cur.takeU32() == kIndexVersion, "cas: unsupported index version");
  // The hash seed and chunk size are properties of the serialized chunks;
  // adopt them (the caller's config supplies policy: deferGc).
  store->config_.hashSeed = cur.takeU64();
  const u64 chunkBytes = cur.takeU64();
  require(chunkBytes > 0, "cas: serialized chunkBytes must be positive");
  store->config_.chunkBytes = static_cast<usize>(chunkBytes);
  store->tick_ = cur.takeU64();
  const u64 chunkCount = cur.takeU64();
  const u64 objectCount = cur.takeU64();

  const ConstByteSpan data = reader.field(kDataField);
  require(data.size() >= 4, "cas: truncated data section");
  const ConstByteSpan payloads = data.subspan(0, data.size() - 4);
  // Eager whole-section guard: hash-bypassing reads (crcOf, re-save)
  // must never see corrupt payloads. get() still re-hashes each chunk,
  // which also covers damage that postdates this pass.
  require(loadLe<u32>(data.data() + payloads.size()) == crc32(payloads),
          "cas: data section fails its CRC trailer");

  std::vector<Hash128> table;
  table.reserve(static_cast<usize>(chunkCount));
  u64 offset = 0;
  for (u64 i = 0; i < chunkCount; ++i) {
    Hash128 h;
    h.hi = cur.takeU64();
    h.lo = cur.takeU64();
    const u64 bytes = cur.takeU64();
    const u32 refs = cur.takeU32();
    require(offset + bytes <= payloads.size(),
            "cas: chunk table overruns the data section");
    Chunk chunk;
    chunk.refs = refs;
    chunk.bytes = bytes;
    chunk.view = payloads.subspan(static_cast<usize>(offset),
                                  static_cast<usize>(bytes));
    offset += bytes;
    const bool inserted = store->chunks_.emplace(h, std::move(chunk)).second;
    require(inserted, "cas: duplicate chunk hash in index");
    table.push_back(h);
  }
  require(offset == payloads.size(),
          "cas: data section size disagrees with the chunk table");

  for (u64 i = 0; i < objectCount; ++i) {
    Object obj;
    obj.tenant = cur.takeString();
    obj.name = cur.takeString();
    obj.formatVersion = cur.takeU32();
    obj.bytes = cur.takeU64();
    obj.generation = cur.takeU64();
    obj.lastTouch = cur.takeU64();
    const u64 refs = cur.takeU64();
    obj.chunks.reserve(static_cast<usize>(refs));
    for (u64 j = 0; j < refs; ++j) {
      const u64 idx = cur.takeU64();
      require(idx < table.size(), "cas: object references an out-of-range "
                                  "chunk table slot");
      obj.chunks.push_back(table[static_cast<usize>(idx)]);
    }
    require(!obj.tenant.empty() && !obj.name.empty(),
            "cas: serialized object with an empty key");
    const std::string key = keyOf(obj.tenant, obj.name);
    const bool inserted =
        store->objects_.emplace(key, std::move(obj)).second;
    require(inserted, "cas: duplicate object key in index");
  }
  require(cur.remaining() == 0, "cas: trailing bytes in index section");

  // Rebuild occupancy from the loaded maps; monotonic activity counters
  // start fresh (they describe this process's activity, not history).
  for (const auto& [key, obj] : store->objects_) {
    ++store->stats_.objects;
    store->stats_.logicalBytes += obj.bytes;
    store->stats_.logicalChunks += obj.chunks.size();
  }
  for (const auto& [hash, chunk] : store->chunks_) {
    if (chunk.refs == 0) {
      ++store->stats_.parkedChunks;
    } else {
      ++store->stats_.uniqueChunks;
      store->stats_.physicalBytes += chunk.bytes;
    }
  }
  require(store->stats_.parkedChunks == 0 || store->config_.deferGc,
          "cas: store was saved with parked chunks; load it with deferGc "
          "(or gc() before saving)");
  store->checkInvariants();
  store->refreshGaugesLocked();
  return store;
}

bool BlockStore::isStoreFile(ConstByteSpan bytes) {
  if (!io::isArchive(bytes)) return false;
  try {
    return io::ArchiveReader(bytes).hasField(kIndexField);
  } catch (const Error&) {
    return false;
  }
}

// ---- incremental durability -------------------------------------------

void BlockStore::journalOpLocked(u32 type, const std::string& tenant,
                                 const std::string& name,
                                 ConstByteSpan bytes) const {
  if (!journal_) return;
  std::vector<std::byte> payload;
  ByteWriter w(payload);
  w.putU64(tick_);
  if (type != kRecGc) {
    w.putString(tenant);
    w.putString(name);
  }
  if (type == kRecPut || type == kRecCompact || type == kRecCorrupt) {
    w.putU64(static_cast<u64>(bytes.size()));
    w.putBytes(bytes);
  }
  journal_->append(type, payload);
  // The durability barrier: the mutator only returns — only *acks* —
  // once the record is synced. A crash here (injected or real) leaves
  // the op un-acknowledged, which recovery is allowed to lose.
  journal_->sync();
}

void BlockStore::attachJournal(const std::string& path) {
  std::lock_guard lock(mutex_);
  journal_ =
      std::make_unique<io::JournalWriter>(path, config_.hashSeed, tick_);
}

JournalStatus BlockStore::journalStatus() const {
  std::lock_guard lock(mutex_);
  JournalStatus st;
  if (!journal_) return st;
  st.attached = true;
  st.path = journal_->path();
  st.baseTick = journal_->baseTick();
  st.recordsAppended = journal_->recordsAppended();
  st.recordsSynced = journal_->recordsSynced();
  return st;
}

void BlockStore::applyJournalRecord(const io::JournalRecord& rec) {
  ByteReader cur(rec.payload, kTruncated);
  const u64 tick = cur.takeU64();
  switch (rec.type) {
    case kRecPut: {
      const std::string tenant = cur.takeString();
      const std::string name = cur.takeString();
      const u64 size = cur.takeU64();
      require(cur.remaining() == size, "cas: malformed put record payload");
      const ConstByteSpan bytes = cur.takeBytes(static_cast<usize>(size));
      // Re-run the public mutator with the recorded tick so generations
      // and stats come out exactly as they did live.
      tick_ = tick - 1;
      put(tenant, name, bytes);
      break;
    }
    case kRecErase: {
      const std::string tenant = cur.takeString();
      const std::string name = cur.takeString();
      tick_ = tick - 1;
      require(erase(tenant, name),
              "cas: erase record names an object the snapshot+replay state "
              "does not hold");
      break;
    }
    case kRecGc: {
      // gc() does not advance the store clock; replay at the recorded one.
      tick_ = tick;
      gc();
      break;
    }
    case kRecCompact:
    case kRecCorrupt: {
      const std::string tenant = cur.takeString();
      const std::string name = cur.takeString();
      const u64 size = cur.takeU64();
      require(cur.remaining() == size,
              "cas: malformed rewrite record payload");
      const ConstByteSpan bytes = cur.takeBytes(static_cast<usize>(size));
      std::lock_guard lock(mutex_);
      auto it = objects_.find(keyOf(tenant, name));
      require(it != objects_.end(),
              "cas: rewrite record names an object the snapshot+replay "
              "state does not hold");
      tick_ = tick - 1;
      ++tick_;
      const u64 oldBytes = it->second.bytes;
      rewriteLocked(it->second, bytes);
      if (rec.type == kRecCompact) {
        // The commit succeeded live (it was journaled), so replay applies
        // it unconditionally and restores the compaction accounting.
        ++stats_.compactionMigrations;
        instruments_.compactionMigrations->add();
        if (oldBytes > it->second.bytes) {
          stats_.compactionBytesReclaimed += oldBytes - it->second.bytes;
          instruments_.compactionBytes->add(oldBytes - it->second.bytes);
        }
      }
      refreshGaugesLocked();
      break;
    }
    default:
      require(false, "cas: unknown journal record type " +
                         std::to_string(rec.type));
  }
}

std::unique_ptr<BlockStore> BlockStore::recover(const std::string& indexPath,
                                                const std::string& journalPath,
                                                StoreConfig config,
                                                RecoveryReport* report) {
  // A damaged journal header throws here — the unrecoverable case.
  const io::ReplayResult replay = io::replayJournal(journalPath);

  std::unique_ptr<BlockStore> store;
  RecoveryReport rep;
  if (std::FILE* probe = std::fopen(indexPath.c_str(), "rb")) {
    std::fclose(probe);
    store = load(indexPath, config);
    rep.snapshotLoaded = true;
  } else {
    // The store crashed before its first completed save(): every durable
    // op lives in the journal alone.
    store = std::unique_ptr<BlockStore>(new BlockStore(config));
  }
  rep.snapshotTick = store->tick_;
  rep.journalRecords = replay.records.size();
  rep.tornTail = replay.torn;
  rep.discardedBytes = replay.discardedBytes;

  require(replay.ownerTag == store->config_.hashSeed,
          "cas: journal " + journalPath + " belongs to a different store "
          "(ownerTag mismatch)");

  // baseTick >= snapshotTick means the journal was reset at (or after)
  // the snapshot — everything in it postdates the snapshot. An older
  // baseTick means the process died between the snapshot rename and the
  // journal reset: skip the records the snapshot already covers.
  const bool replayAll = replay.baseTick >= rep.snapshotTick;
  for (const io::JournalRecord& rec : replay.records) {
    require(rec.payload.size() >= 8, "cas: journal record missing its tick");
    const u64 tick = loadLe<u64>(rec.payload.data());
    if (!replayAll && tick <= rep.snapshotTick) {
      ++rep.skippedRecords;
      continue;
    }
    store->applyJournalRecord(rec);
    ++rep.replayedRecords;
  }

  store->checkInvariants();
  // Resume the journal in place (truncating any torn tail) so the
  // recovered store keeps journaling where the dead process stopped.
  store->journal_ = io::JournalWriter::resume(
      journalPath, store->config_.hashSeed, replay.baseTick,
      replay.validBytes);
  if (report) *report = rep;
  return store;
}

}  // namespace cuszp2::cas
