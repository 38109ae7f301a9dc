// The benchmark's metric catalog: every end-to-end and per-layer metric
// with its unit and clock, in the order the result line prints them.
// BENCHMARK.json lists the same names; run.py refuses a mismatch.
//
// Every workload reports every metric of the run's mode.  A per-layer
// metric of a layer the workload never enters reads 0.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace aebench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* clock;  ///< "host", "modeled" or "count"
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Values by name; `emit` appends them to a result in catalog order.
class MetricTable {
 public:
  explicit MetricTable(bool per_layer);
  /// Sets a catalog metric; throws std::logic_error for unknown names.
  void set(const std::string& name, double value);
  /// Appends every catalog metric; an end-to-end metric left unset throws
  /// std::logic_error, a per-layer one reads 0.
  void emit(RunResult& result) const;

 private:
  const std::vector<MetricSpec>* specs_;
  bool per_layer_;
  std::map<std::string, double> values_;
};

}  // namespace aebench
