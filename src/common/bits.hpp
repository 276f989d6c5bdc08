// Bit-manipulation utilities used by the fixed-length encoders and the
// bitstream layer, and the little-endian byte codec every on-disk format
// reads and writes through.
#pragma once

#include <bit>
#include <concepts>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cuszp2 {

/// Number of bits needed to represent `v` (0 for v == 0). This is the
/// "fixed length" of the paper's FLE: effective-bit count of the largest
/// absolute quantization difference in a block.
constexpr u32 effectiveBits(u32 v) {
  return static_cast<u32>(std::bit_width(v));
}

/// Number of whole bytes needed to represent `v` without loss (1..4 for
/// nonzero v, 0 for v == 0). Used for adaptive outlier sizing (paper Fig. 8).
constexpr u32 bytesFor(u32 v) {
  if (v == 0) return 0;
  if (v <= 0xFFu) return 1;
  if (v <= 0xFFFFu) return 2;
  if (v <= 0xFFFFFFu) return 3;
  return 4;
}

/// Rounds `n` up to the next multiple of `m` (m > 0).
constexpr usize roundUp(usize n, usize m) { return (n + m - 1) / m * m; }

/// Ceil division.
constexpr usize ceilDiv(usize n, usize d) { return (n + d - 1) / d; }

/// Absolute value of a 32-bit integer as unsigned, defined for INT32_MIN.
constexpr u32 absU32(i32 v) {
  return v < 0 ? static_cast<u32>(0u) - static_cast<u32>(v)
               : static_cast<u32>(v);
}

/// Load/store little-endian unsigned integers of runtime byte width (1..4)
/// from raw byte buffers (the outlier magnitudes of a block). The
/// fixed-width words go through loadLe/storeLe below.
inline u32 loadLE(const std::byte* p, u32 nbytes) {
  u32 v = 0;
  for (u32 i = 0; i < nbytes; ++i) {
    v |= static_cast<u32>(std::to_integer<u32>(p[i])) << (8 * i);
  }
  return v;
}

inline void storeLE(std::byte* p, u32 v, u32 nbytes) {
  for (u32 i = 0; i < nbytes; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }
}

/// Type-punning helpers (defined behaviour via memcpy).
template <typename To, typename From>
inline To bitCast(const From& from) {
  static_assert(sizeof(To) == sizeof(From));
  To to;
  std::memcpy(&to, &from, sizeof(To));
  return to;
}

// ---- the little-endian byte codec -----------------------------------------
//
// Every on-disk format of the library (stream header and digests, archive
// and parity trailer, segmented container, ND stream, CAS index and WAL,
// job journal) stores its integers little-endian, so files are portable
// across hosts. This is the one place that byte order is decided; formats
// read and write their fields through the calls below.

/// The fixed-width words the formats store.
template <typename T>
concept LeWord =
    std::same_as<T, u16> || std::same_as<T, u32> || std::same_as<T, u64>;

/// Loads a little-endian word from unaligned bytes: one load on a
/// little-endian host.
template <LeWord T>
inline T loadLe(const std::byte* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (usize i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(std::to_integer<T>(p[i]) << (8 * i));
    }
  }
  return v;
}

/// Stores `v` little-endian to unaligned bytes: one store on a
/// little-endian host. T is named at the call (storeLe<u64>(p, v)), so the
/// width on disk never follows an argument's type by accident.
template <LeWord T>
inline void storeLe(std::byte* p, std::type_identity_t<T> v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (usize i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    }
  }
}

/// Appends little-endian fields to a byte vector it does not own.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::byte>& out) : out_(out) {}

  void putU8(u8 v) { out_.push_back(static_cast<std::byte>(v)); }
  void putU32(u32 v) { put<u32>(v); }
  void putU64(u64 v) { put<u64>(v); }
  void putF64(f64 v) { put<u64>(bitCast<u64>(v)); }

  /// u32 byte length, then the bytes.
  void putString(std::string_view s) {
    putU32(static_cast<u32>(s.size()));
    putBytes(ConstByteSpan(reinterpret_cast<const std::byte*>(s.data()),
                           s.size()));
  }

  void putBytes(ConstByteSpan bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

 private:
  template <LeWord T>
  void put(T v) {
    std::byte word[sizeof(T)]{};
    storeLe<T>(word, v);
    out_.insert(out_.end(), word, word + sizeof(T));
  }

  std::vector<std::byte>& out_;
};

/// Bounds-checked little-endian cursor over a byte span. A take* that runs
/// past the end throws cuszp2::Error with the message the owner passed in
/// (static text: the reader keeps the pointer), so each format keeps its
/// own diagnostic.
class ByteReader {
 public:
  ByteReader(ConstByteSpan bytes, const char* truncatedError)
      : bytes_(bytes), truncatedError_(truncatedError) {}

  u8 takeU8() { return std::to_integer<u8>(take(1)[0]); }
  u32 takeU32() { return loadLe<u32>(take(4).data()); }
  u64 takeU64() { return loadLe<u64>(take(8).data()); }
  f64 takeF64() { return bitCast<f64>(takeU64()); }

  /// u32 byte length, then the bytes (ByteWriter::putString's layout).
  std::string takeString() {
    const ConstByteSpan s = take(takeU32());
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }

  ConstByteSpan takeBytes(usize n) { return take(n); }

  usize offset() const { return off_; }
  usize remaining() const { return bytes_.size() - off_; }

 private:
  ConstByteSpan take(usize n) {
    require(remaining() >= n, truncatedError_);
    const ConstByteSpan s = bytes_.subspan(off_, n);
    off_ += n;
    return s;
  }

  ConstByteSpan bytes_;
  const char* truncatedError_;
  usize off_ = 0;
};

}  // namespace cuszp2
