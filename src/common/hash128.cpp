#include "common/hash128.hpp"

#include <cstdio>

#include "common/bits.hpp"

namespace cuszp2 {

namespace {

inline u64 rotl64(u64 x, int r) { return (x << r) | (x >> (64 - r)); }

inline u64 fmix64(u64 k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

std::string Hash128::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

Hash128 hash128(ConstByteSpan data, u64 seed) {
  const std::byte* p = data.data();
  const usize len = data.size();
  const usize nblocks = len / 16;

  u64 h1 = seed;
  u64 h2 = seed;
  constexpr u64 c1 = 0x87C37B91114253D5ull;
  constexpr u64 c2 = 0x4CF5AD432745937Full;

  // Little-endian block loads: identical digests on every host,
  // whatever its byte order or the span's alignment.
  for (usize i = 0; i < nblocks; ++i) {
    u64 k1 = loadLe<u64>(p + i * 16);
    u64 k2 = loadLe<u64>(p + i * 16 + 8);

    k1 *= c1;
    k1 = rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52DCE729;

    k2 *= c2;
    k2 = rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495AB5;
  }

  const std::byte* tail = p + nblocks * 16;
  const usize rem = len & 15;
  u64 k1 = 0;
  u64 k2 = 0;
  for (usize i = rem; i > 8; --i) {
    k2 = (k2 << 8) | std::to_integer<u64>(tail[i - 1]);
  }
  for (usize i = rem < 8 ? rem : 8; i > 0; --i) {
    k1 = (k1 << 8) | std::to_integer<u64>(tail[i - 1]);
  }
  if (rem > 8) {
    k2 *= c2;
    k2 = rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
  }
  if (rem > 0) {
    k1 *= c1;
    k1 = rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
  }

  h1 ^= static_cast<u64>(len);
  h2 ^= static_cast<u64>(len);
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

}  // namespace cuszp2
