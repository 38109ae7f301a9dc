// Order statistics used by every workload, kept apart so the benchmark's
// own tests can pin them.
#pragma once

#include <cstddef>
#include <vector>

namespace aebench {

/// Percentile `p` in [0, 100] of `values` with linear interpolation between
/// closest ranks (the definition numpy.percentile uses by default).
/// Returns 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Median (the 50th percentile).
double median(std::vector<double> values);

/// Samples strictly above percentile `p`: how many observations the tail
/// estimate rests on.
std::size_t tail_count(const std::vector<double>& values, double p);

/// The highest of the candidate percentiles (99.9, 99, 95, 90, 50) that
/// keeps at least `min_tail` samples strictly above it; 50 when none does.
double highest_supported_percentile(const std::vector<double>& values,
                                    std::size_t min_tail = 10);

}  // namespace aebench
