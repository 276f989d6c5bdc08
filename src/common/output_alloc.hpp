// Fresh decode outputs. A decoder's result vector is new memory that the
// fill touches in full before the kernel writes it, so for a large output
// most of its host cost is first-touch page faults: one per 4 KiB page,
// 16 Ki for a 64 MiB field. allocOutput() marks the buffer's 2 MiB-aligned
// interior MADV_HUGEPAGE before anything touches it, so under the OS's
// "madvise" or "always" transparent-huge-page policy that interior faults
// in 2 MiB at a time. The OS policy stays the only control: with THP off,
// on non-Linux hosts, or for outputs too small to hold an aligned 2 MiB
// page, only the fill remains. Contents are identical either way.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cuszp2 {

inline constexpr usize kHugePageBytes = usize{2} << 20;

/// Sets the empty vector `out` to `n` copies of `fill`, advising huge
/// pages for its aligned interior first. T is trivially copyable.
template <typename T>
void allocOutput(std::vector<T>& out, usize n, const T& fill) {
  out.reserve(n);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto begin = reinterpret_cast<std::uintptr_t>(out.data());
  const std::uintptr_t first =
      (begin + kHugePageBytes - 1) & ~std::uintptr_t{kHugePageBytes - 1};
  const std::uintptr_t last =
      (begin + n * sizeof(T)) & ~std::uintptr_t{kHugePageBytes - 1};
  if (first < last) {
    // Advisory only: a refusal leaves the range on 4 KiB pages.
    (void)madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_HUGEPAGE);
  }
#endif
  // A zero bit pattern (every strict decoder's fill) value-initialises,
  // which compiles to memset; any other fill (salvage) stores element by
  // element. -0.0 is not a zero bit pattern, so it takes the second path.
  const T zero{};
  if (std::memcmp(&fill, &zero, sizeof(T)) == 0) {
    out.resize(n);
  } else {
    out.assign(n, fill);
  }
}

}  // namespace cuszp2
