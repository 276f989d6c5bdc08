// Host SIMD dispatch for the hot codec kernels (quantize+diff, bit-plane
// pack/unpack, prefix sums, dequantize), the REL bound's min/max range
// reduction, the v3 analysis pass (symbol runs, Lorenzo-2D residuals,
// Huffman block sizes) and the v3 Lorenzo-2D reconstruction.
// The compressed format is defined by the scalar kernels; every vector
// path here must be byte-identical to its scalar counterpart —
// integer kernels trivially, the float kernels by doing all arithmetic in
// the same IEEE f64 operations the scalar code performs (multiply,
// truncate, compare, convert are all exactly rounded, so lane order cannot
// change a result).
//
// Dispatch contract: each simd:: entry point returns `true` (or an element
// count) when the active vector path handled the call, and `false` (or 0)
// when the caller must run its scalar reference loop — so the scalar code
// stays where it is documented (fle.hpp, block_codec.cpp, stream.cpp,
// pipeline.cpp, metrics/error_stats.cpp) and `CUSZP2_SIMD=scalar`
// exercises exactly the pre-SIMD byte path.
//
// Backends: AVX2 on x86-64 (compiled via the `target` function attribute so
// the TU itself needs no -mavx2; entered only after a runtime
// __builtin_cpu_supports check), NEON on AArch64 for the integer kernels,
// scalar everywhere else. Runtime-selectable: CUSZP2_SIMD=scalar|native
// (default native when supported), overridable in-process via setMode() so
// tests can compare both modes against each other.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>

#include "common/types.hpp"

#if defined(__x86_64__) || defined(__amd64__) || defined(_M_X64)
#define CUSZP2_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define CUSZP2_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cuszp2::simd {

enum class Mode : u8 { Scalar = 0, Native = 1 };

namespace detail {

inline bool nativeSupported() {
#if defined(CUSZP2_SIMD_X86)
  return __builtin_cpu_supports("avx2");
#elif defined(CUSZP2_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

inline Mode initialMode() {
  const char* env = std::getenv("CUSZP2_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return Mode::Scalar;
  // "native" or unset: widest supported path.
  return nativeSupported() ? Mode::Native : Mode::Scalar;
}

inline std::atomic<Mode>& modeCell() {
  static std::atomic<Mode> mode{initialMode()};
  return mode;
}

}  // namespace detail

inline Mode activeMode() {
  return detail::modeCell().load(std::memory_order_relaxed);
}

/// Test/tooling override; Native silently degrades to Scalar when the CPU
/// lacks the vector ISA so a sweep over both modes is always valid.
inline void setMode(Mode m) {
  if (m == Mode::Native && !detail::nativeSupported()) m = Mode::Scalar;
  detail::modeCell().store(m, std::memory_order_relaxed);
}

inline bool nativeActive() { return activeMode() == Mode::Native; }

inline const char* modeName() {
  if (!nativeActive()) return "scalar";
#if defined(CUSZP2_SIMD_X86)
  return "avx2";
#elif defined(CUSZP2_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// i32 lanes per vector op of the active backend (diagnostic only).
inline u32 laneCount() {
#if defined(CUSZP2_SIMD_X86)
  return nativeActive() ? 8 : 1;
#elif defined(CUSZP2_SIMD_NEON)
  return nativeActive() ? 4 : 1;
#else
  return 1;
#endif
}

/// quantizeDiffPrefix return value: a lane failed validation (non-finite or
/// out of quantization range); the caller re-runs its scalar loop from the
/// start for the exact diagnostic the format contract promises.
inline constexpr usize kLaneFault = ~usize{0};

// ---- AVX2 backend ------------------------------------------------------
#if defined(CUSZP2_SIMD_X86)

namespace detail {

/// Round-half-away-from-zero of 4 f64 lanes, matching
/// Quantizer::roundHalfAway bit-for-bit on every lane that passes the
/// range check: t = trunc(scaled) and frac = scaled - t are exact, and
/// t + (frac >= 0.5) - (frac <= -0.5) stays within f64's exact-integer
/// range for any |q| <= 2^30.
__attribute__((target("avx2"))) inline __m256d roundHalfAwayPd(__m256d s) {
  const __m256d t =
      _mm256_round_pd(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(s, t);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d up =
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ),
                    one);
  const __m256d dn =
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(-0.5), _CMP_LE_OQ),
                    one);
  return _mm256_sub_pd(_mm256_add_pd(t, up), dn);
}

/// Any of the 8 converted lanes out of the [-maxQuant, maxQuant]
/// quantization range? Checked in the integer domain after cvtpd_epi32:
/// every in-range rounded value is integral and converts exactly, and any
/// lane cvt could not represent (NaN, inf, |x| >= 2^31) becomes the
/// indefinite value 0x80000000, whose unsigned magnitude also exceeds
/// maxQuant — so one unsigned-magnitude compare rejects all bad lanes.
__attribute__((target("avx2"))) inline bool anyLaneOutOfRange(__m256i q,
                                                              u32 maxQuant) {
  const __m256i mag = _mm256_abs_epi32(q);
  const __m256i maxV = _mm256_set1_epi32(static_cast<i32>(maxQuant));
  const __m256i clamped = _mm256_max_epu32(mag, maxV);
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(clamped, maxV)) != -1;
}

__attribute__((target("avx2"))) inline usize quantizeDiffPrefixF32Avx2(
    f64 recip, const f32* values, usize n, i32* residuals, i32* prev) {
  const usize vecN = n & ~usize{7};
  const __m256d recipV = _mm256_set1_pd(recip);
  const u32 maxQuant = (1u << 30) - 1;
  const __m256i rotate =
      _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  i32 p = *prev;
  for (usize i = 0; i < vecN; i += 8) {
    const __m256 f = _mm256_loadu_ps(values + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(f));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1));
    const __m256d qlo = roundHalfAwayPd(_mm256_mul_pd(lo, recipV));
    const __m256d qhi = roundHalfAwayPd(_mm256_mul_pd(hi, recipV));
    const __m256i q = _mm256_set_m128i(_mm256_cvtpd_epi32(qhi),
                                       _mm256_cvtpd_epi32(qlo));
    if (anyLaneOutOfRange(q, maxQuant)) {
      *prev = p;
      return kLaneFault;
    }
    const __m256i rotated = _mm256_permutevar8x32_epi32(q, rotate);
    const __m256i shifted =
        _mm256_blend_epi32(rotated, _mm256_set1_epi32(p), 0x01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(residuals + i),
                        _mm256_sub_epi32(q, shifted));
    p = _mm256_extract_epi32(q, 7);
  }
  *prev = p;
  return vecN;
}

__attribute__((target("avx2"))) inline usize quantizeDiffPrefixF64Avx2(
    f64 recip, const f64* values, usize n, i32* residuals, i32* prev) {
  const usize vecN = n & ~usize{7};
  const __m256d recipV = _mm256_set1_pd(recip);
  const u32 maxQuant = (1u << 30) - 1;
  const __m256i rotate =
      _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  i32 p = *prev;
  for (usize i = 0; i < vecN; i += 8) {
    const __m256d vlo = _mm256_loadu_pd(values + i);
    const __m256d vhi = _mm256_loadu_pd(values + i + 4);
    const __m256d qlo = roundHalfAwayPd(_mm256_mul_pd(vlo, recipV));
    const __m256d qhi = roundHalfAwayPd(_mm256_mul_pd(vhi, recipV));
    const __m256i q = _mm256_set_m128i(_mm256_cvtpd_epi32(qhi),
                                       _mm256_cvtpd_epi32(qlo));
    if (anyLaneOutOfRange(q, maxQuant)) {
      *prev = p;
      return kLaneFault;
    }
    const __m256i rotated = _mm256_permutevar8x32_epi32(q, rotate);
    const __m256i shifted =
        _mm256_blend_epi32(rotated, _mm256_set1_epi32(p), 0x01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(residuals + i),
                        _mm256_sub_epi32(q, shifted));
    p = _mm256_extract_epi32(q, 7);
  }
  *prev = p;
  return vecN;
}

__attribute__((target("avx2"))) inline u32 maxAbsU32Avx2(const i32* v,
                                                         usize n) {
  __m256i acc = _mm256_setzero_si256();
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    // abs(INT32_MIN) wraps to 0x80000000, exactly absU32's u32 magnitude.
    acc = _mm256_max_epu32(acc, _mm256_abs_epi32(x));
  }
  alignas(32) u32 lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u32 m = 0;
  for (const u32 l : lanes) m = m < l ? l : m;
  for (; i < n; ++i) {
    const i32 x = v[i];
    const u32 a = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
    m = m < a ? a : m;
  }
  return m;
}

/// Max of absU32 over v[1..n) for n a multiple of 8: lane 0 of the first
/// vector is zeroed (abs values are non-negative, so zero is the identity)
/// and every vector participates — no scalar tail on the hot plan path.
__attribute__((target("avx2"))) inline u32 maxAbsTailU32Avx2(const i32* v,
                                                             usize n) {
  __m256i first =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  first = _mm256_blend_epi32(first, _mm256_setzero_si256(), 0x01);
  __m256i acc = _mm256_abs_epi32(first);
  for (usize i = 8; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_max_epu32(acc, _mm256_abs_epi32(x));
  }
  alignas(32) u32 lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u32 m = 0;
  for (const u32 l : lanes) m = m < l ? l : m;
  return m;
}

__attribute__((target("avx2"))) inline void absI32Avx2(const i32* v, usize n,
                                                       u32* out) {
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_abs_epi32(x));
  }
  for (; i < n; ++i) {
    const i32 x = v[i];
    out[i] = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
  }
}

__attribute__((target("avx2"))) inline void diffI32Avx2(const i32* v,
                                                        usize n, i32* out) {
  const __m256i rotate = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  i32 p = 0;
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i rotated = _mm256_permutevar8x32_epi32(q, rotate);
    const __m256i shifted =
        _mm256_blend_epi32(rotated, _mm256_set1_epi32(p), 0x01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi32(q, shifted));
    p = _mm256_extract_epi32(q, 7);
  }
  for (; i < n; ++i) {
    // u32 arithmetic: the difference wraps exactly like the vector lanes.
    out[i] = static_cast<i32>(static_cast<u32>(v[i]) - static_cast<u32>(p));
    p = v[i];
  }
}

__attribute__((target("avx2"))) inline void packSignsAvx2(const i32* diffs,
                                                          usize n,
                                                          std::byte* out) {
  for (usize j = 0; j * 8 < n; ++j) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(diffs + j * 8));
    out[j] = static_cast<std::byte>(
        _mm256_movemask_ps(_mm256_castsi256_ps(v)));
  }
}

/// Fused single pass over one block: absolute values out plus the packed
/// sign bitmap, loading each group of 8 residuals once. `n` must be a
/// multiple of 8 (BlockCodec guarantees blockSize % 8 == 0).
__attribute__((target("avx2"))) inline void absAndPackSignsAvx2(
    const i32* residuals, usize n, u32* absOut, std::byte* signs) {
  for (usize j = 0; j * 8 < n; ++j) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(residuals + j * 8));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(absOut + j * 8),
                        _mm256_abs_epi32(v));
    signs[j] = static_cast<std::byte>(
        _mm256_movemask_ps(_mm256_castsi256_ps(v)));
  }
}

/// Transposes the 8x8 bit matrix held in each u64 lane (byte r, bit c ->
/// byte c, bit r) by three masked xor-shift swaps: of single bits across
/// the diagonal, then of 2x2 and 4x4 sub-blocks.
__attribute__((target("avx2"))) inline __m256i transpose8x8Bits(__m256i x) {
  __m256i t = _mm256_and_si256(_mm256_xor_si256(x, _mm256_srli_epi64(x, 7)),
                               _mm256_set1_epi64x(0x00AA00AA00AA00AALL));
  x = _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 7)));
  t = _mm256_and_si256(_mm256_xor_si256(x, _mm256_srli_epi64(x, 14)),
                       _mm256_set1_epi64x(0x0000CCCC0000CCCCLL));
  x = _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 14)));
  t = _mm256_and_si256(_mm256_xor_si256(x, _mm256_srli_epi64(x, 28)),
                       _mm256_set1_epi64x(0x00000000F0F0F0F0LL));
  return _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 28)));
}

// Bit planes of a 32-value block: each plane is 4 bytes, so plane p is
// dword p and byte j of it holds bit p of values 8j..8j+7. Eight planes
// (one 256-bit chunk) and eight values form an 8x8 bit matrix per byte
// column j, so a chunk converts between plane order and value order with
// one byte shuffle, one dword permute and one bit transpose per u64. Only
// the first min(8, fl - 8c) plane dwords of chunk c are loaded or stored
// (masked), so nothing outside the block's fl * 4 plane bytes is touched.

/// Lane mask selecting the plane dwords of chunk `c` below `fl`.
__attribute__((target("avx2"))) inline __m256i planeChunkMask(u32 fl, u32 c) {
  const i32 planes = static_cast<i32>(fl - 8 * c);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(planes),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Within each 128-bit lane, byte 4a + b <-> byte 4b + a (self-inverse):
/// plane dwords <-> per-byte-column groups of four planes.
__attribute__((target("avx2"))) inline __m256i planeByteTranspose(__m256i x) {
  return _mm256_shuffle_epi8(
      x, _mm256_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11,
                          15, 0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7,
                          11, 15));
}

__attribute__((target("avx2"))) inline void packPlanes32Avx2(const u32* vals,
                                                             u32 fl,
                                                             std::byte* out) {
  const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals));
  const __m256i v1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + 8));
  const __m256i v2 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + 16));
  const __m256i v3 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + 24));
  const __m256i byteMask = _mm256_set1_epi32(0xFF);
  for (u32 c = 0; 8 * c < fl; ++c) {
    // Byte c of every value, in value order: the two saturating packs are
    // exact on 0..255 and leave the dword groups as (0, 8, 16, 24 | 4, 12,
    // 20, 28), which the permute puts back in order.
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * c));
    __m256i x = _mm256_packus_epi16(
        _mm256_packus_epi32(
            _mm256_and_si256(_mm256_srl_epi32(v0, shift), byteMask),
            _mm256_and_si256(_mm256_srl_epi32(v1, shift), byteMask)),
        _mm256_packus_epi32(
            _mm256_and_si256(_mm256_srl_epi32(v2, shift), byteMask),
            _mm256_and_si256(_mm256_srl_epi32(v3, shift), byteMask)));
    x = _mm256_permutevar8x32_epi32(x,
                                    _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    // u64 j now holds values 8j..8j+7 (rows) x 8 planes (columns).
    x = transpose8x8Bits(x);
    x = planeByteTranspose(_mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7)));
    _mm256_maskstore_epi32(reinterpret_cast<int*>(out + 32 * c),
                           planeChunkMask(fl, c), x);
  }
}

__attribute__((target("avx2"))) inline void unpackPlanes32Avx2(
    const std::byte* in, u32 fl, u32* vals) {
  __m256i v0 = _mm256_setzero_si256();
  __m256i v1 = v0;
  __m256i v2 = v0;
  __m256i v3 = v0;
  for (u32 c = 0; 8 * c < fl; ++c) {
    __m256i x = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(in + 32 * c), planeChunkMask(fl, c));
    // u64 j = byte j of planes 0..7 (rows) x values 8j..8j+7 (columns).
    x = _mm256_permutevar8x32_epi32(planeByteTranspose(x),
                                    _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    // Byte i now holds value i's bits of planes 8c..8c+7.
    x = transpose8x8Bits(x);
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * c));
    const __m128i lo = _mm256_castsi256_si128(x);
    const __m128i hi = _mm256_extracti128_si256(x, 1);
    v0 = _mm256_or_si256(v0, _mm256_sll_epi32(_mm256_cvtepu8_epi32(lo), shift));
    v1 = _mm256_or_si256(
        v1, _mm256_sll_epi32(_mm256_cvtepu8_epi32(_mm_srli_si128(lo, 8)),
                             shift));
    v2 = _mm256_or_si256(v2, _mm256_sll_epi32(_mm256_cvtepu8_epi32(hi), shift));
    v3 = _mm256_or_si256(
        v3, _mm256_sll_epi32(_mm256_cvtepu8_epi32(_mm_srli_si128(hi, 8)),
                             shift));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals), v0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + 8), v1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + 16), v2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + 24), v3);
}

__attribute__((target("avx2"))) inline void packPlanesAvx2(const u32* vals,
                                                           usize n, u32 fl,
                                                           std::byte* out) {
  // A single plane is one movemask per byte column, cheaper than the
  // transpose's fixed cost; from two planes up the transpose ties or wins
  // (BM_PackPlanes).
  if (n == 32 && fl > 1) {
    packPlanes32Avx2(vals, fl, out);
    return;
  }
  const usize pb = n / 8;
  for (usize j = 0; j < pb; ++j) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vals + j * 8));
    std::byte* dst = out + j;
    for (u32 plane = 0; plane < fl; ++plane) {
      // Move bit `plane` of every lane into the lane's sign position; one
      // movemask then emits the whole plane byte.
      const __m256i sh =
          _mm256_sll_epi32(v, _mm_cvtsi32_si128(static_cast<int>(31 - plane)));
      dst[static_cast<usize>(plane) * pb] = static_cast<std::byte>(
          _mm256_movemask_ps(_mm256_castsi256_ps(sh)));
    }
  }
}

__attribute__((target("avx2"))) inline void unpackPlanesAvx2(
    const std::byte* in, usize n, u32 fl, u32* vals) {
  if (n == 32) {
    unpackPlanes32Avx2(in, fl, vals);
    return;
  }
  const usize pb = n / 8;
  const __m256i laneBits =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (usize j = 0; j < pb; ++j) {
    const std::byte* src = in + j;
    __m256i acc = _mm256_setzero_si256();
    for (u32 plane = 0; plane < fl; ++plane) {
      const int b = std::to_integer<int>(src[static_cast<usize>(plane) * pb]);
      const __m256i isSet = _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(b), laneBits), laneBits);
      acc = _mm256_or_si256(
          acc, _mm256_and_si256(
                   isSet, _mm256_set1_epi32(static_cast<i32>(1u << plane))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j * 8), acc);
  }
}

__attribute__((target("avx2"))) inline void applySignsAvx2(
    const std::byte* signs, const u32* absVals, usize n, i32* out) {
  const __m256i laneBits =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (usize j = 0; j * 8 < n; ++j) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(absVals + j * 8));
    const int b = std::to_integer<int>(signs[j]);
    const __m256i neg = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(b), laneBits), laneBits);
    const __m256i negated = _mm256_sub_epi32(_mm256_setzero_si256(), a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j * 8),
                        _mm256_blendv_epi8(a, negated, neg));
  }
}

/// Inclusive 8-lane i32 scan within one register (log-step shifts inside
/// the 128-bit lanes, then the low lane's total is added to the high lane).
__attribute__((target("avx2"))) inline __m256i scan8Epi32(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  const __m256i lowTotal = _mm256_permutevar8x32_epi32(
      x, _mm256_setr_epi32(3, 3, 3, 3, 3, 3, 3, 3));
  return _mm256_add_epi32(
      x, _mm256_blend_epi32(_mm256_setzero_si256(), lowTotal, 0xF0));
}

/// The running total stays in a vector register: lane 7 of each scanned
/// group is broadcast into the next group's carry, with no trip through a
/// general-purpose register.
__attribute__((target("avx2"))) inline void prefixSumI32Avx2(const i32* in,
                                                             usize n,
                                                             i32* out) {
  const __m256i lastLane = _mm256_set1_epi32(7);
  __m256i carry = _mm256_setzero_si256();
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i withCarry = _mm256_add_epi32(
        scan8Epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i))),
        carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), withCarry);
    carry = _mm256_permutevar8x32_epi32(withCarry, lastLane);
  }
  u32 acc = static_cast<u32>(_mm256_cvtsi256_si32(carry));
  for (; i < n; ++i) {
    acc += static_cast<u32>(in[i]);
    out[i] = static_cast<i32>(acc);
  }
}

/// Inverse of the 2-D Lorenzo predictor over an (n/8) x 8 tile. Row r's
/// column differences d_r = q_r - q_{r-1} are the inclusive scan of its
/// residuals, so q_r = q_{r-1} + scan(res_r). Everything wraps in i32,
/// which equals the scalar "sum in i64, then truncate" modulo 2^32 for
/// every input. `n` is a nonzero multiple of 8.
__attribute__((target("avx2"))) inline void lorenzo2dReconstructAvx2(
    const i32* res, usize n, i32* q) {
  __m256i row = _mm256_setzero_si256();
  for (usize i = 0; i < n; i += 8) {
    row = _mm256_add_epi32(
        row, scan8Epi32(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(res + i))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), row);
  }
}

__attribute__((target("avx2"))) inline void dequantizeF32Avx2(
    const i32* q, usize n, f64 twoEb, f32* out) {
  const __m256d scale = _mm256_set1_pd(twoEb);
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i qi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(qi));
    const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(qi, 1));
    // cvtpd_ps rounds to nearest-even exactly like static_cast<f32>(f64).
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(lo, scale)));
    _mm_storeu_ps(out + i + 4, _mm256_cvtpd_ps(_mm256_mul_pd(hi, scale)));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<f32>(static_cast<f64>(q[i]) * twoEb);
  }
}

__attribute__((target("avx2"))) inline void dequantizeF64Avx2(
    const i32* q, usize n, f64 twoEb, f64* out) {
  const __m256d scale = _mm256_set1_pd(twoEb);
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i qi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_cvtepi32_pd(qi), scale));
  }
  for (; i < n; ++i) out[i] = static_cast<f64>(q[i]) * twoEb;
}

/// Min and max of v[0..n), n >= 1, equal to the scalar fold
/// `lo = std::min(lo, v[i]); hi = std::max(hi, v[i])` seeded with v[0].
/// min_ps(x, acc) returns its second operand unless x < acc, i.e. exactly
/// std::min(acc, x) per lane, NaN included: every accumulator starts at
/// v[0], so a NaN head poisons all lanes as it poisons the scalar fold,
/// and an interior NaN is skipped by both. Four accumulators per bound
/// keep the loop load-bound. The one visible reordering is which of two
/// equal zeros wins a -0/+0 tie.
__attribute__((target("avx2"))) inline void minMaxF32Avx2(const f32* v,
                                                          usize n, f32* lo,
                                                          f32* hi) {
  __m256 lo0 = _mm256_set1_ps(v[0]);
  __m256 lo1 = lo0, lo2 = lo0, lo3 = lo0;
  __m256 hi0 = lo0, hi1 = lo0, hi2 = lo0, hi3 = lo0;
  usize i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 a = _mm256_loadu_ps(v + i);
    const __m256 b = _mm256_loadu_ps(v + i + 8);
    const __m256 c = _mm256_loadu_ps(v + i + 16);
    const __m256 d = _mm256_loadu_ps(v + i + 24);
    lo0 = _mm256_min_ps(a, lo0);
    lo1 = _mm256_min_ps(b, lo1);
    lo2 = _mm256_min_ps(c, lo2);
    lo3 = _mm256_min_ps(d, lo3);
    hi0 = _mm256_max_ps(a, hi0);
    hi1 = _mm256_max_ps(b, hi1);
    hi2 = _mm256_max_ps(c, hi2);
    hi3 = _mm256_max_ps(d, hi3);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(v + i);
    lo0 = _mm256_min_ps(a, lo0);
    hi0 = _mm256_max_ps(a, hi0);
  }
  lo0 = _mm256_min_ps(_mm256_min_ps(lo1, lo0), _mm256_min_ps(lo3, lo2));
  hi0 = _mm256_max_ps(_mm256_max_ps(hi1, hi0), _mm256_max_ps(hi3, hi2));
  alignas(32) f32 los[8];
  alignas(32) f32 his[8];
  _mm256_store_ps(los, lo0);
  _mm256_store_ps(his, hi0);
  f32 l = v[0];
  f32 h = v[0];
  for (usize k = 0; k < 8; ++k) {
    l = los[k] < l ? los[k] : l;
    h = h < his[k] ? his[k] : h;
  }
  for (; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = h < v[i] ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

__attribute__((target("avx2"))) inline void minMaxF64Avx2(const f64* v,
                                                          usize n, f64* lo,
                                                          f64* hi) {
  __m256d lo0 = _mm256_set1_pd(v[0]);
  __m256d lo1 = lo0, lo2 = lo0, lo3 = lo0;
  __m256d hi0 = lo0, hi1 = lo0, hi2 = lo0, hi3 = lo0;
  usize i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d a = _mm256_loadu_pd(v + i);
    const __m256d b = _mm256_loadu_pd(v + i + 4);
    const __m256d c = _mm256_loadu_pd(v + i + 8);
    const __m256d d = _mm256_loadu_pd(v + i + 12);
    lo0 = _mm256_min_pd(a, lo0);
    lo1 = _mm256_min_pd(b, lo1);
    lo2 = _mm256_min_pd(c, lo2);
    lo3 = _mm256_min_pd(d, lo3);
    hi0 = _mm256_max_pd(a, hi0);
    hi1 = _mm256_max_pd(b, hi1);
    hi2 = _mm256_max_pd(c, hi2);
    hi3 = _mm256_max_pd(d, hi3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(v + i);
    lo0 = _mm256_min_pd(a, lo0);
    hi0 = _mm256_max_pd(a, hi0);
  }
  lo0 = _mm256_min_pd(_mm256_min_pd(lo1, lo0), _mm256_min_pd(lo3, lo2));
  hi0 = _mm256_max_pd(_mm256_max_pd(hi1, hi0), _mm256_max_pd(hi3, hi2));
  alignas(32) f64 los[4];
  alignas(32) f64 his[4];
  _mm256_store_pd(los, lo0);
  _mm256_store_pd(his, hi0);
  f64 l = v[0];
  f64 h = v[0];
  for (usize k = 0; k < 4; ++k) {
    l = los[k] < l ? los[k] : l;
    h = h < his[k] ? his[k] : h;
  }
  for (; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = h < v[i] ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

/// Entropy symbols of one block plus its run and escape counts, one pass:
/// sym = min(zigzag(r), escape), changes = #{i >= 1 : sym[i] != sym[i-1]},
/// escapes = #{i : sym[i] == escape}. `n` is a nonzero multiple of 8.
/// Each lane's predecessor comes from rotating the symbol vector up one
/// lane and blending in lane 7 of the previous vector. Symbols are at most
/// `escape` < 2^15, so the signed-saturating u16 pack is exact.
__attribute__((target("avx2"))) inline void symbolRunsAvx2(
    const i32* r, usize n, u16 escape, u16* sym, u32* changes,
    u32* escapes) {
  const __m256i escV = _mm256_set1_epi32(escape);
  const __m256i rotate = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const __m256i lastLane = _mm256_set1_epi32(7);
  u32 ch = 0;
  u32 esc = 0;
  // Seeded with sym[0], so lane 0 of the first vector sees no change.
  const u32 z0 = (static_cast<u32>(r[0]) << 1) ^ static_cast<u32>(r[0] >> 31);
  __m256i prev = _mm256_set1_epi32(static_cast<i32>(z0 < escape ? z0 : escape));
  for (usize i = 0; i < n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + i));
    const __m256i z =
        _mm256_xor_si256(_mm256_slli_epi32(v, 1), _mm256_srai_epi32(v, 31));
    const __m256i s = _mm256_min_epu32(z, escV);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sym + i),
                     _mm_packus_epi32(_mm256_castsi256_si128(s),
                                      _mm256_extracti128_si256(s, 1)));
    const __m256i before = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(s, rotate),
        _mm256_permutevar8x32_epi32(prev, lastLane), 0x01);
    const u32 same = static_cast<u32>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(s, before))));
    ch += static_cast<u32>(__builtin_popcount(~same & 0xFFu));
    esc += static_cast<u32>(__builtin_popcount(static_cast<u32>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(s, escV))))));
    prev = s;
  }
  *changes = ch;
  *escapes = esc;
}

/// 2-D Lorenzo residuals over an (n/8) x 8 row-major tile in i32, one
/// register per row: res = (q - west) - (north - northWest). Returns false
/// (output unspecified) when some |q| >= 2^29; below that bound every partial
/// sum and residual stays inside i32, so the wrapping lane arithmetic is
/// exact. `n` is a nonzero multiple of 8.
__attribute__((target("avx2"))) inline bool lorenzo2dI32Avx2(const i32* q,
                                                             usize n,
                                                             i32* out) {
  const __m256i rotate = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const __m256i zero = _mm256_setzero_si256();
  __m256i maxAbs = zero;
  __m256i northDiff = zero;
  for (usize i = 0; i < n; i += 8) {
    const __m256i row =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    // abs(INT32_MIN) stays 0x80000000, which the unsigned max also rejects.
    maxAbs = _mm256_max_epu32(maxAbs, _mm256_abs_epi32(row));
    const __m256i west = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(row, rotate), zero, 0x01);
    const __m256i rowDiff = _mm256_sub_epi32(row, west);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi32(rowDiff, northDiff));
    northDiff = rowDiff;
  }
  const __m256i limit = _mm256_set1_epi32((1 << 29) - 1);
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(
             _mm256_max_epu32(maxAbs, limit), limit)) == -1;
}

/// Total code length of n symbols (n a nonzero multiple of 8) and their
/// escape count; false when some symbol has length 0. The gather reads the
/// whole dword holding lengths[s] (index s / 4) and shifts the byte out,
/// so `lengths` must hold a multiple of 4 entries and every symbol must
/// index inside it.
__attribute__((target("avx2"))) inline bool huffmanBitsAvx2(
    const u16* sym, usize n, const u8* lengths, u16 escape, u64* bits,
    u32* escapes) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i escV = _mm256_set1_epi32(escape);
  __m256i sum = zero;
  __m256i esc = zero;
  __m256i missing = zero;
  for (usize i = 0; i < n; i += 8) {
    const __m256i s = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sym + i)));
    const __m256i words = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(lengths), _mm256_srli_epi32(s, 2), 4);
    const __m256i len = _mm256_and_si256(
        _mm256_srlv_epi32(
            words, _mm256_slli_epi32(
                       _mm256_and_si256(s, _mm256_set1_epi32(3)), 3)),
        _mm256_set1_epi32(0xFF));
    sum = _mm256_add_epi32(sum, len);
    missing = _mm256_or_si256(missing, _mm256_cmpeq_epi32(len, zero));
    esc = _mm256_sub_epi32(esc, _mm256_cmpeq_epi32(s, escV));
  }
  if (!_mm256_testz_si256(missing, missing)) return false;
  alignas(32) u32 sums[8];
  alignas(32) u32 escs[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(sums), sum);
  _mm256_store_si256(reinterpret_cast<__m256i*>(escs), esc);
  u64 b = 0;
  u32 e = 0;
  for (usize k = 0; k < 8; ++k) {
    b += sums[k];
    e += escs[k];
  }
  *bits = b;
  *escapes = e;
  return true;
}

__attribute__((target("avx2"))) inline u64 sumMaskedU64Avx2(const u64* words,
                                                            usize n,
                                                            u64 mask) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i maskV = _mm256_set1_epi64x(static_cast<long long>(mask));
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    acc = _mm256_add_epi64(acc, _mm256_and_si256(w, maskV));
  }
  alignas(32) u64 lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u64 total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += words[i] & mask;
  return total;
}

}  // namespace detail

#endif  // CUSZP2_SIMD_X86

// ---- NEON backend (integer kernels only) -------------------------------
// The float quantize path stays scalar on AArch64 until it can be
// hardware-validated against the golden streams; the integer kernels below
// are bit-exact by construction.
#if defined(CUSZP2_SIMD_NEON)

namespace detail {

inline u32 maxAbsU32Neon(const i32* v, usize n) {
  uint32x4_t acc = vdupq_n_u32(0);
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    const int32x4_t x = vld1q_s32(v + i);
    acc = vmaxq_u32(acc, vreinterpretq_u32_s32(vqabsq_s32(x)));
  }
  u32 m = vmaxvq_u32(acc);
  for (; i < n; ++i) {
    const i32 x = v[i];
    const u32 a = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
    m = m < a ? a : m;
  }
  return m;
}

inline void absI32Neon(const i32* v, usize n, u32* out) {
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_u32(out + i, vreinterpretq_u32_s32(vabsq_s32(vld1q_s32(v + i))));
  }
  for (; i < n; ++i) {
    const i32 x = v[i];
    out[i] = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
  }
}

inline void dequantizeF64Neon(const i32* q, usize n, f64 twoEb, f64* out) {
  const float64x2_t scale = vdupq_n_f64(twoEb);
  usize i = 0;
  for (; i + 2 <= n; i += 2) {
    const int32x2_t qi = vld1_s32(q + i);
    vst1q_f64(out + i,
              vmulq_f64(vcvtq_f64_s64(vmovl_s32(qi)), scale));
  }
  for (; i < n; ++i) out[i] = static_cast<f64>(q[i]) * twoEb;
}

}  // namespace detail

#endif  // CUSZP2_SIMD_NEON

// ---- Dispatching entry points ------------------------------------------

/// Fused quantize (round-half-away) + first-order diff over a vectorizable
/// prefix of `values`. Returns the element count consumed (0 when the
/// caller must run its scalar loop for everything), or kLaneFault when a
/// lane is non-finite/out-of-range (caller restarts scalar from element 0
/// with *prev reset, reproducing the exact scalar diagnostic). `*prev`
/// carries the last quantization integer into the caller's tail loop.
inline usize quantizeDiffPrefix(f64 recip, std::span<const f32> values,
                                i32* residuals, i32* prev) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    return detail::quantizeDiffPrefixF32Avx2(recip, values.data(),
                                             values.size(), residuals, prev);
  }
#endif
  (void)recip;
  (void)values;
  (void)residuals;
  (void)prev;
  return 0;
}

inline usize quantizeDiffPrefix(f64 recip, std::span<const f64> values,
                                i32* residuals, i32* prev) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    return detail::quantizeDiffPrefixF64Avx2(recip, values.data(),
                                             values.size(), residuals, prev);
  }
#endif
  (void)recip;
  (void)values;
  (void)residuals;
  (void)prev;
  return 0;
}

/// Max of absU32 over `v`; false = caller runs its scalar loop.
inline bool maxAbsU32(std::span<const i32> v, u32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    *out = detail::maxAbsU32Avx2(v.data(), v.size());
    return true;
  }
#elif defined(CUSZP2_SIMD_NEON)
  if (nativeActive()) {
    *out = detail::maxAbsU32Neon(v.data(), v.size());
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// Max of absU32 over v[1..) for a block whose size is a multiple of 8
/// (the plan scan's "tail" max — the head element is the outlier
/// candidate); false = caller runs its scalar loop.
inline bool maxAbsTailU32(std::span<const i32> v, u32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && v.size() % 8 == 0 && !v.empty()) {
    *out = detail::maxAbsTailU32Avx2(v.data(), v.size());
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// out[i] = absU32(v[i]); false = caller runs its scalar loop.
inline bool absI32(std::span<const i32> v, u32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::absI32Avx2(v.data(), v.size(), out);
    return true;
  }
#elif defined(CUSZP2_SIMD_NEON)
  if (nativeActive()) {
    detail::absI32Neon(v.data(), v.size(), out);
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// out[i] = v[i] - v[i-1] (v[-1] = 0); false = caller's scalar loop.
inline bool diffI32(std::span<const i32> v, i32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::diffI32Avx2(v.data(), v.size(), out);
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// Sign-bit bitmap of `diffs` (size a multiple of 8).
/// Fused |residuals| + packed sign bitmap in one pass (size a multiple
/// of 8); false = caller runs packSigns + its scalar abs loop.
inline bool absAndPackSigns(std::span<const i32> residuals, u32* absOut,
                            std::byte* signs) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::absAndPackSignsAvx2(residuals.data(), residuals.size(), absOut,
                                signs);
    return true;
  }
#endif
  (void)residuals;
  (void)absOut;
  (void)signs;
  return false;
}

inline bool packSigns(std::span<const i32> diffs, std::byte* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::packSignsAvx2(diffs.data(), diffs.size(), out);
    return true;
  }
#endif
  (void)diffs;
  (void)out;
  return false;
}

/// Bit-plane pack of `vals` (size a multiple of 8) into fl planes.
inline bool packPlanes(std::span<const u32> vals, u32 fl, std::byte* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::packPlanesAvx2(vals.data(), vals.size(), fl, out);
    return true;
  }
#endif
  (void)vals;
  (void)fl;
  (void)out;
  return false;
}

/// Bit-plane unpack into `vals` (size a multiple of 8).
inline bool unpackPlanes(const std::byte* in, u32 fl, std::span<u32> vals) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::unpackPlanesAvx2(in, vals.size(), fl, vals.data());
    return true;
  }
#endif
  (void)in;
  (void)fl;
  (void)vals;
  return false;
}

/// out[i] = signBit(signs, i) ? -absVals[i] : absVals[i] (size multiple
/// of 8).
inline bool applySigns(const std::byte* signs, std::span<const u32> absVals,
                       i32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::applySignsAvx2(signs, absVals.data(), absVals.size(), out);
    return true;
  }
#endif
  (void)signs;
  (void)absVals;
  (void)out;
  return false;
}

/// Inclusive prefix sum (first-order prediction inverse); in-place allowed.
inline bool prefixSumI32(std::span<const i32> in, i32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::prefixSumI32Avx2(in.data(), in.size(), out);
    return true;
  }
#endif
  (void)in;
  (void)out;
  return false;
}

/// out[i] = (f32)(q[i] * twoEb), arithmetic in f64 like
/// Quantizer::dequantize.
inline bool dequantize(std::span<const i32> q, f64 twoEb, f32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::dequantizeF32Avx2(q.data(), q.size(), twoEb, out);
    return true;
  }
#endif
  (void)q;
  (void)twoEb;
  (void)out;
  return false;
}

inline bool dequantize(std::span<const i32> q, f64 twoEb, f64* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::dequantizeF64Avx2(q.data(), q.size(), twoEb, out);
    return true;
  }
#elif defined(CUSZP2_SIMD_NEON)
  if (nativeActive()) {
    detail::dequantizeF64Neon(q.data(), q.size(), twoEb, out);
    return true;
  }
#endif
  (void)q;
  (void)twoEb;
  (void)out;
  return false;
}

/// Min and max of a non-empty field, as std::min/std::max folded from
/// values[0] (the REL error bound's range reduction); false = caller runs
/// its scalar loop. NEON stays scalar: vminq/vmaxq propagate NaN, which
/// the scalar fold does not for an interior NaN.
inline bool minMax(std::span<const f32> values, f32* lo, f32* hi) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && !values.empty()) {
    detail::minMaxF32Avx2(values.data(), values.size(), lo, hi);
    return true;
  }
#endif
  (void)values;
  (void)lo;
  (void)hi;
  return false;
}

inline bool minMax(std::span<const f64> values, f64* lo, f64* hi) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && !values.empty()) {
    detail::minMaxF64Avx2(values.data(), values.size(), lo, hi);
    return true;
  }
#endif
  (void)values;
  (void)lo;
  (void)hi;
  return false;
}

/// One block's entropy symbols min(zigzag(r[i]), escape) into `symbols`,
/// with the number of adjacent symbol changes and of escape symbols (the
/// v3 RLE candidate size); false = caller runs its scalar loop.
inline bool symbolRuns(std::span<const i32> residuals, u16 escape,
                       u16* symbols, u32* changes, u32* escapes) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && !residuals.empty() && residuals.size() % 8 == 0) {
    detail::symbolRunsAvx2(residuals.data(), residuals.size(), escape,
                           symbols, changes, escapes);
    return true;
  }
#endif
  (void)residuals;
  (void)escape;
  (void)symbols;
  (void)changes;
  (void)escapes;
  return false;
}

/// i32 2-D Lorenzo residuals of an (n/8) x 8 tile when every |q| < 2^29;
/// false (output unspecified) = caller runs its i64 reference walk.
inline bool lorenzo2dI32(std::span<const i32> quants, i32* residuals) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && !quants.empty() && quants.size() % 8 == 0) {
    return detail::lorenzo2dI32Avx2(quants.data(), quants.size(), residuals);
  }
#endif
  (void)quants;
  (void)residuals;
  return false;
}

/// 2-D Lorenzo reconstruction of an (n/8) x 8 tile in wrapping i32 (the
/// scalar i64 walk truncated, for every input); false = caller runs it.
inline bool lorenzo2dReconstructI32(std::span<const i32> residuals,
                                    i32* quants) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && !residuals.empty() && residuals.size() % 8 == 0) {
    detail::lorenzo2dReconstructAvx2(residuals.data(), residuals.size(),
                                     quants);
    return true;
  }
#endif
  (void)residuals;
  (void)quants;
  return false;
}

/// Huffman block sizing gather: the summed code lengths of `symbols` and
/// their escape count. Returns false when the caller must run its scalar
/// loop, which it also does to report a symbol missing from the table.
/// Every symbol must index inside `lengths`.
inline bool huffmanBits(std::span<const u16> symbols,
                        std::span<const u8> lengths, u16 escape, u64* bits,
                        u32* escapes) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && !symbols.empty() && symbols.size() % 8 == 0 &&
      lengths.size() % 4 == 0) {
    return detail::huffmanBitsAvx2(symbols.data(), symbols.size(),
                                   lengths.data(), escape, bits, escapes);
  }
#endif
  (void)symbols;
  (void)lengths;
  (void)escape;
  (void)bits;
  (void)escapes;
  return false;
}

/// sum(words[i] & mask) — the decoupled-lookback window combine. Exact in
/// u64 in any order; false = caller's scalar loop.
inline bool sumMaskedU64(std::span<const u64> words, u64 mask, u64* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    *out = detail::sumMaskedU64Avx2(words.data(), words.size(), mask);
    return true;
  }
#endif
  (void)words;
  (void)mask;
  (void)out;
  return false;
}

}  // namespace cuszp2::simd
