#include "core/format.hpp"

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace cuszp2::core {

u16 blockDigest(std::byte offsetByte, ConstByteSpan payload) {
  const u32 seeded = crc32(ConstByteSpan(&offsetByte, 1));
  return static_cast<u16>(crc32(payload, seeded) & 0xFFFFu);
}

void StreamHeader::serialize(std::byte* out) const {
  storeLe<u64>(out + 0, kMagic);
  u64 meta = 0;
  meta |= static_cast<u64>(version);
  meta |= static_cast<u64>(static_cast<u8>(precision)) << 8;
  meta |= static_cast<u64>(static_cast<u8>(mode)) << 16;
  meta |= static_cast<u64>(static_cast<u8>(predictor)) << 24;
  meta |= static_cast<u64>(blockSize) << 32;
  storeLe<u64>(out + 8, meta);
  storeLe<u64>(out + 16, numElements);
  storeLe<u64>(out + 24, bitCast<u64>(absErrorBound));
  // Bytes [36, 40) carry the version-3 dictionary size; versions 1/2 keep
  // dictBytes == 0, so their serialized bytes are exactly the historical
  // reserved zeros.
  storeLe<u64>(out + 32, static_cast<u64>(checksum) |
                             (static_cast<u64>(dictBytes) << 32));
}

StreamHeader StreamHeader::parse(ConstByteSpan stream) {
  require(stream.size() >= kBytes, "StreamHeader: truncated stream");
  require(loadLe<u64>(stream.data()) == kMagic,
          "StreamHeader: bad magic (not a cuSZp2 stream)");
  const u64 meta = loadLe<u64>(stream.data() + 8);
  const u32 version = static_cast<u32>(meta & 0xFFu);
  require(version == kFormatVersion || version == kFormatVersionV2 ||
              version == kFormatVersionV3,
          "StreamHeader: unsupported format version");

  StreamHeader h;
  h.version = version;
  const u8 prec = static_cast<u8>((meta >> 8) & 0xFFu);
  require(prec <= 1, "StreamHeader: invalid precision tag");
  h.precision = static_cast<Precision>(prec);
  const u8 mode = static_cast<u8>((meta >> 16) & 0xFFu);
  require(mode <= 1, "StreamHeader: invalid mode tag");
  h.mode = static_cast<EncodingMode>(mode);
  const u8 predictor = static_cast<u8>((meta >> 24) & 0xFFu);
  require(predictor <= 1, "StreamHeader: invalid predictor tag");
  h.predictor = static_cast<Predictor>(predictor);
  h.blockSize = static_cast<u32>(meta >> 32);
  require(h.blockSize >= 8 && h.blockSize <= 256 && h.blockSize % 8 == 0,
          "StreamHeader: invalid block size");
  h.numElements = loadLe<u64>(stream.data() + 16);
  h.absErrorBound = bitCast<f64>(loadLe<u64>(stream.data() + 24));
  require(h.absErrorBound > 0.0, "StreamHeader: invalid error bound");
  const u64 tail = loadLe<u64>(stream.data() + 32);
  h.checksum = static_cast<u32>(tail);
  h.dictBytes = static_cast<u32>(tail >> 32);
  if (version < kFormatVersionV3) {
    require(h.dictBytes == 0,
            "StreamHeader: reserved bytes are nonzero in a pre-v3 stream");
  } else {
    // A v3 block costs at least 1 descriptor + 2 footer bytes; bounding
    // the block count by the stream size (division, no multiply) keeps
    // the size arithmetic below overflow-free on hostile headers.
    require(h.numBlocks() <= (stream.size() - kBytes) / 3,
            "StreamHeader: block count exceeds the stream size");
    require(h.numBlocks() == 0 ? h.dictBytes == 0 : h.dictBytes >= 8,
            "StreamHeader: invalid dictionary section size");
  }
  require(stream.size() >= h.payloadBegin() + h.footerBytes(),
          "StreamHeader: stream shorter than its offset array and footer");
  // v3 blocks predict first order (a LorenzoFle block carries its own
  // predictor) and the writer records no other value. Checked last, so a
  // header that fails another check keeps that check's message.
  require(version < kFormatVersionV3 || h.predictor == Predictor::FirstOrder,
          "StreamHeader: a version-3 stream must record the first-order "
          "predictor");
  return h;
}

std::optional<StreamHeader> StreamHeader::tryParse(ConstByteSpan stream,
                                                   std::string* error) {
  try {
    return parse(stream);
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace cuszp2::core
