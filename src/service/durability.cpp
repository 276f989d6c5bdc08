#include "service/durability.hpp"

#include <map>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace cuszp2::service {

constexpr const char* kTruncated = "service: truncated job journal record";

std::vector<std::byte> encodeJobAccept(const JobAcceptRecord& rec) {
  std::vector<std::byte> out;
  out.reserve(64 + rec.tenant.size() + rec.input.size());
  ByteWriter w(out);
  w.putU64(rec.jobId);
  w.putU64(rec.supersedesId);
  w.putString(rec.tenant);
  w.putU8(static_cast<u8>(rec.kind));
  w.putU8(static_cast<u8>(rec.precision));
  w.putU8(rec.priority);
  // core::Config, field by field (f64s bit-cast so the replayed Config
  // compares == to the submitted one).
  w.putF64(rec.config.relErrorBound);
  w.putF64(rec.config.absErrorBound);
  w.putU8(static_cast<u8>(rec.config.mode));
  w.putU32(rec.config.blockSize);
  w.putU32(rec.config.blocksPerTile);
  w.putU8(static_cast<u8>(rec.config.syncAlgorithm));
  w.putU8(rec.config.vectorizedAccess ? 1 : 0);
  w.putU8(rec.config.checksum ? 1 : 0);
  w.putU8(rec.config.blockChecksums ? 1 : 0);
  w.putU32(rec.config.faultRetries);
  w.putU8(static_cast<u8>(rec.config.roundingMode));
  w.putU8(static_cast<u8>(rec.config.predictor));
  w.putU8(static_cast<u8>(rec.config.pipeline));
  w.putU64(static_cast<u64>(rec.input.size()));
  w.putBytes(rec.input);
  return out;
}

JobAcceptRecord decodeJobAccept(ConstByteSpan payload) {
  ByteReader cur(payload, kTruncated);
  JobAcceptRecord rec;
  rec.jobId = cur.takeU64();
  rec.supersedesId = cur.takeU64();
  rec.tenant = cur.takeString();
  rec.kind = static_cast<JobKind>(cur.takeU8());
  rec.precision = static_cast<Precision>(cur.takeU8());
  rec.priority = cur.takeU8();
  rec.config.relErrorBound = cur.takeF64();
  rec.config.absErrorBound = cur.takeF64();
  rec.config.mode = static_cast<EncodingMode>(cur.takeU8());
  rec.config.blockSize = cur.takeU32();
  rec.config.blocksPerTile = cur.takeU32();
  rec.config.syncAlgorithm = static_cast<scan::Algorithm>(cur.takeU8());
  rec.config.vectorizedAccess = cur.takeU8() != 0;
  rec.config.checksum = cur.takeU8() != 0;
  rec.config.blockChecksums = cur.takeU8() != 0;
  rec.config.faultRetries = cur.takeU32();
  rec.config.roundingMode = static_cast<core::RoundingMode>(cur.takeU8());
  rec.config.predictor = static_cast<Predictor>(cur.takeU8());
  rec.config.pipeline = static_cast<core::PipelineMode>(cur.takeU8());
  const u64 inputBytes = cur.takeU64();
  require(cur.remaining() == inputBytes,
          "service: accept record input length disagrees with its payload");
  const ConstByteSpan input = cur.takeBytes(static_cast<usize>(inputBytes));
  rec.input.assign(input.begin(), input.end());
  return rec;
}

std::vector<std::byte> encodeJobResolve(u64 jobId, Outcome outcome) {
  std::vector<std::byte> out;
  out.reserve(9);
  ByteWriter w(out);
  w.putU64(jobId);
  w.putU8(static_cast<u8>(outcome));
  return out;
}

JobResolveRecord decodeJobResolve(ConstByteSpan payload) {
  ByteReader cur(payload, kTruncated);
  JobResolveRecord rec;
  rec.jobId = cur.takeU64();
  rec.outcome = static_cast<Outcome>(cur.takeU8());
  require(static_cast<u8>(rec.outcome) <= static_cast<u8>(Outcome::Degraded),
          "service: resolve record carries an unknown outcome");
  return rec;
}

JobJournalSummary summarizeJobJournal(const io::ReplayResult& replay) {
  JobJournalSummary out;
  // std::map: pending jobs come out in original id order, and a
  // duplicate accept of the same id (impossible from one process life,
  // conceivable from a crafted journal) dedups to one entry.
  std::map<u64, JobAcceptRecord> pending;
  for (const io::JournalRecord& rec : replay.records) {
    if (rec.type == kJobRecordAccept) {
      JobAcceptRecord acc = decodeJobAccept(ConstByteSpan(rec.payload));
      ++out.accepts;
      if (acc.supersedesId != 0) pending.erase(acc.supersedesId);
      pending.insert_or_assign(acc.jobId, std::move(acc));
    } else if (rec.type == kJobRecordResolve) {
      const JobResolveRecord res =
          decodeJobResolve(ConstByteSpan(rec.payload));
      ++out.resolves;
      ++out.outcomes[static_cast<usize>(res.outcome)];
      pending.erase(res.jobId);
    } else {
      require(false, "service: unknown job journal record type " +
                         std::to_string(rec.type));
    }
  }
  out.pending.reserve(pending.size());
  for (auto& [id, acc] : pending) out.pending.push_back(std::move(acc));
  return out;
}

}  // namespace cuszp2::service
