#include "test_main.hpp"

#include <cstdio>

namespace aebench::test {

namespace {
int g_failures = 0;
}

std::vector<Case>& registry() {
  static std::vector<Case> cases;
  return cases;
}

void record_failure(const char* file, int line, const char* expr) {
  ++g_failures;
  std::printf("  FAILED %s:%d: %s\n", file, line, expr);
}

int run_all() {
  int failed_cases = 0;
  for (const Case& c : registry()) {
    const int before = g_failures;
    c.body();
    const bool ok = g_failures == before;
    if (!ok) ++failed_cases;
    std::printf("[%s] %s\n", ok ? "  OK  " : "FAILED", c.name);
  }
  std::printf("%zu tests, %d failed\n", registry().size(), failed_cases);
  return failed_cases == 0 ? 0 : 1;
}

}  // namespace aebench::test

int main() { return aebench::test::run_all(); }
