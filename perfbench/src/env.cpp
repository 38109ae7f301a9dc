#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/parallel.hpp"

#ifndef AEBENCH_KERNEL_ISA
#define AEBENCH_KERNEL_ISA "unknown"
#endif
#ifndef AEBENCH_BUILD_TYPE
#define AEBENCH_BUILD_TYPE "unknown"
#endif

namespace aebench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void record_environment(const RunConfig& config, RunResult& result) {
  const char* threads_env = std::getenv("AE_THREADS");
  result.note("env.kernel_isa", AEBENCH_KERNEL_ISA);
  result.note("env.build_type", AEBENCH_BUILD_TYPE);
#if defined(__clang__)
  result.note("env.compiler", std::string("clang ") + __VERSION__);
#else
  result.note("env.compiler", std::string("gcc ") + __VERSION__);
#endif
  result.note("env.nproc",
              std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  result.note("env.hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  result.note("env.shared_pool_threads",
              std::to_string(ae::par::ThreadPool::shared().thread_count()));
  result.note("env.AE_THREADS", threads_env != nullptr ? threads_env : "unset");
  result.note("env.workload", config.workload);
  result.note("env.seed", std::to_string(config.seed));
  result.note("env.seconds", std::to_string(config.seconds));
  result.note("env.trace", config.trace ? "1" : "0");
}

}  // namespace aebench
