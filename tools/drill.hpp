// drill.hpp — the skeleton every seeded drill shares (chaos_soak's
// service, --cluster and --cas modes and crash_drill), plus the
// fingerprint fold that fuzz_decode pins.
//
// A drill run is a pure function of its seed. runTwice() executes it
// twice, checks that both runs report the same run line and fingerprint,
// and ends the drill. It prints `run: <name=value ...>` and
// `fingerprint=<hex>`, then `<drill>: OK` only when every check held;
// otherwise the failure count and the flags that replay the run. The
// ctest pins match the fingerprint line followed by the OK line.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace cuszp2::drill {

/// Checks that have failed so far in this process.
inline int failures = 0;

inline void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++failures;
}

template <typename T>
std::vector<std::byte> toBytes(const std::vector<T>& v) {
  std::vector<std::byte> bytes(v.size() * sizeof(T));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// FNV-1a over everything fed to it. word() is one FNV step over a whole
/// 64-bit value rather than its bytes: crash_drill's pinned fingerprint
/// is folded that way.
class Fingerprint {
 public:
  void bytes(const void* data, usize n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (usize i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * kPrime;
    }
  }
  void num(u64 v) { bytes(&v, sizeof(v)); }
  void word(u64 v) { h_ = (h_ ^ v) * kPrime; }
  void text(const std::string& s) {
    num(s.size());
    bytes(s.data(), s.size());
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    num(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  u64 value() const { return h_; }

 private:
  static constexpr u64 kPrime = 0x100000001B3ull;
  u64 h_ = 0xCBF29CE484222325ull;
};

/// What one run reports: its run line and the fingerprint of everything
/// two same-seed runs must agree on.
struct Run {
  std::string line;
  Fingerprint fp;

  /// Adds `name=v` to the run line and folds v into the fingerprint.
  void count(std::string_view name, u64 v) {
    show(name, v);
    fp.num(v);
  }
  /// Adds `name=v` to the run line only.
  void show(std::string_view name, u64 v) {
    if (!line.empty()) line += ' ';
    line.append(name).append("=").append(std::to_string(v));
  }
};

/// Runs `once()` (which returns a Run) twice and ends the drill `name`
/// as the file comment says. `replay` holds the flags that reproduce the
/// run, e.g. "--seed 7".
template <typename Once>
int runTwice(const char* name, const std::string& replay, Once&& once) {
  const Run first = once();
  const Run second = once();
  const bool same = first.line == second.line &&
                    first.fp.value() == second.fp.value();
  check(same, "two runs of the same seed agree on every counter and the "
              "fingerprint");
  if (!same) {
    for (const Run* r : {&first, &second}) {
      std::fprintf(stderr, "  run: %s fingerprint=%016llx\n", r->line.c_str(),
                   static_cast<unsigned long long>(r->fp.value()));
    }
  }
  std::printf("run: %s\nfingerprint=%016llx\n", first.line.c_str(),
              static_cast<unsigned long long>(first.fp.value()));
  if (failures == 0) {
    std::printf("%s: OK\n", name);
    return 0;
  }
  std::fprintf(stderr, "%s: %d failure(s); replay with %s\n", name, failures,
               replay.c_str());
  return 1;
}

}  // namespace cuszp2::drill
