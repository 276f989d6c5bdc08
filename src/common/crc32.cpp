#include "common/crc32.hpp"

#include <array>

namespace cuszp2 {

namespace {

constexpr u32 kPoly = 0xEDB88320u;  // reflected IEEE 802.3

using Tables = std::array<std::array<u32, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups fold eight input bytes into the register in one step.
constexpr Tables makeTables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (usize k = 1; k < 8; ++k) {
    for (u32 i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = makeTables();

/// Little-endian u32 load; compilers fold it into one load on LE hosts.
u32 loadLe32(const std::byte* p) {
  return std::to_integer<u32>(p[0]) | (std::to_integer<u32>(p[1]) << 8) |
         (std::to_integer<u32>(p[2]) << 16) |
         (std::to_integer<u32>(p[3]) << 24);
}

}  // namespace

u32 crc32(ConstByteSpan data, u32 seed) {
  u32 c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  usize n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const u32 lo = loadLe32(p) ^ c;
    const u32 hi = loadLe32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ std::to_integer<u32>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace cuszp2
