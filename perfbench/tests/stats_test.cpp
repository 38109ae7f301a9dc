// Tests of the benchmark's order statistics.  The percentile cases were
// computed with numpy.percentile's default (linear) method.  The quartile
// spread is Python's statistics.quantiles in spread.py, tested by
// tests/spread_test.py.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "test_main.hpp"

using aebench::highest_supported_percentile;
using aebench::median;
using aebench::percentile;
using aebench::tail_count;

namespace {

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

AEBENCH_TEST(percentile_interpolates_between_ranks) {
  const std::vector<double> v{15, 20, 35, 40, 50};
  CHECK(near(percentile(v, 0), 15));
  CHECK(near(percentile(v, 100), 50));
  CHECK(near(percentile(v, 50), 35));
  CHECK(near(percentile(v, 40), 29));   // rank 1.6 -> 20 + 0.6 * 15
  CHECK(near(percentile(v, 99), 49.6));
  CHECK(near(percentile({}, 50), 0));
  CHECK(near(percentile({7}, 99), 7));
}

AEBENCH_TEST(percentile_ignores_input_order) {
  CHECK(near(percentile({5, 1, 4, 2, 3}, 25), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
}

AEBENCH_TEST(tail_count_counts_samples_strictly_above) {
  const std::vector<double> v = one_to(1000);
  // p99 of 1..1000 is 990.01: 10 samples (991..1000) lie above it.
  CHECK(tail_count(v, 99) == 10);
  CHECK(tail_count(v, 50) == 500);
  CHECK(tail_count(std::vector<double>(50, 1.0), 99) == 0);
}

AEBENCH_TEST(highest_supported_percentile_needs_ten_beyond) {
  CHECK(near(highest_supported_percentile(one_to(1000)), 99));
  CHECK(near(highest_supported_percentile(one_to(20000)), 99.9));
  CHECK(near(highest_supported_percentile(one_to(200)), 95));
  CHECK(near(highest_supported_percentile(one_to(100)), 90));
  CHECK(near(highest_supported_percentile(one_to(30)), 50));
}
