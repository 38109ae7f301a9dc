#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace aebench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t tail_count(const std::vector<double>& values, double p) {
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

double highest_supported_percentile(const std::vector<double>& values,
                                    std::size_t min_tail) {
  for (const double p : {99.9, 99.0, 95.0, 90.0})
    if (tail_count(values, p) >= min_tail) return p;
  return 50.0;
}

}  // namespace aebench
