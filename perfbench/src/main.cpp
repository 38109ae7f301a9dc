// aebench — the repository benchmark.
//
//   aebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file.json>]
//
// Runs one workload, checks its outputs, and prints one "info" line per
// fact (environment, sample counts, paper figures) followed by the result
// as a single JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
// per-layer metrics of the traced run.  Exits 2 on bad arguments and 1 when
// the workload cannot run at all.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "metrics.hpp"

namespace {

using namespace aebench;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload gme_mosaic|segment_frames|farm_calls|"
               "program_serve --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0 && config.seconds <= 3600;
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);

  RunResult result;
  try {
    if (config.workload == "gme_mosaic") {
      result = run_gme_mosaic(config);
    } else if (config.workload == "segment_frames") {
      result = run_segment_frames(config);
    } else if (config.workload == "farm_calls") {
      result = run_farm_calls(config);
    } else if (config.workload == "program_serve") {
      result = run_program_serve(config);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::cerr << "aebench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  record_environment(config, result);

  for (const Metric& m : result.metrics) {
    result.note("clock." + m.name, m.clock);
    if (!std::isfinite(m.value))
      result.fail("metric " + m.name + " is not finite");
  }
  if (result.attempted < 1) result.fail("no operation was attempted");
  for (const auto& [key, value] : result.info)
    std::cout << "info " << key << " = " << value << "\n";

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += json_string(m.name) + ": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
