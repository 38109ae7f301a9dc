// Shared types of the repository benchmark: the run configuration, the
// metric table every workload fills, and the result main() prints.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace.hpp"

namespace aebench {

using ae::i64;
using ae::u64;

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON ("" = none).
  std::string trace_path;
};

/// One named value.  `clock` says which clock a timing or rate was read
/// from: "host" (steady_clock wall time), "modeled" (engine cost model) or
/// "count" for plain tallies.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;
};

struct RunResult {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  /// Free-form key/value facts printed before the result line (sample
  /// counts, paper figures, spreads, environment).
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit,
           std::string clock) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(clock)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Records a failed check: the run is no longer correct.
  void fail(const std::string& why, i64 count = 1) {
    failed += count;
    correct = false;
    note("failure", why);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Records the build and host environment into `result.info`.
void record_environment(const RunConfig& config, RunResult& result);

// One entry point per workload.  Each generates its inputs from
// `config.seed`, computes references outside the timed region, measures
// for `config.seconds`, checks every output, and fills the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
RunResult run_gme_mosaic(const RunConfig& config);
RunResult run_segment_frames(const RunConfig& config);
RunResult run_farm_calls(const RunConfig& config);
RunResult run_program_serve(const RunConfig& config);

}  // namespace aebench
