#include "metrics/error_stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace cuszp2::metrics {

template <FloatingPoint T>
f64 valueRange(std::span<const T> data) {
  if (data.empty()) return 0.0;
  T lo = data[0];
  T hi = data[0];
  if (!simd::minMax(data, &lo, &hi)) {
    for (T v : data) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  return static_cast<f64>(hi) - static_cast<f64>(lo);
}

template <FloatingPoint T>
ErrorStats computeErrorStats(std::span<const T> original,
                             std::span<const T> reconstructed) {
  require(original.size() == reconstructed.size(),
          "computeErrorStats: size mismatch");
  ErrorStats s;
  s.count = original.size();
  if (original.empty()) return s;

  f64 sumSq = 0.0;
  for (usize i = 0; i < original.size(); ++i) {
    const f64 err = static_cast<f64>(original[i]) -
                    static_cast<f64>(reconstructed[i]);
    s.maxAbsError = std::max(s.maxAbsError, std::abs(err));
    s.maxAbsValue =
        std::max(s.maxAbsValue, std::abs(static_cast<f64>(original[i])));
    sumSq += err * err;
  }
  s.mse = sumSq / static_cast<f64>(original.size());
  s.valueRange = valueRange(original);
  if (s.mse > 0.0 && s.valueRange > 0.0) {
    s.psnrDb = 20.0 * std::log10(s.valueRange) - 10.0 * std::log10(s.mse);
    s.nrmse = std::sqrt(s.mse) / s.valueRange;
  } else if (s.mse == 0.0) {
    s.psnrDb = std::numeric_limits<f64>::infinity();
    s.nrmse = 0.0;
  }
  return s;
}

template ErrorStats computeErrorStats<f32>(std::span<const f32>,
                                           std::span<const f32>);
template ErrorStats computeErrorStats<f64>(std::span<const f64>,
                                           std::span<const f64>);
template f64 valueRange<f32>(std::span<const f32>);
template f64 valueRange<f64>(std::span<const f64>);

}  // namespace cuszp2::metrics
