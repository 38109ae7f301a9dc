// A minimal test registry for the benchmark's own tests, so they build with
// nothing beyond the standard library.  Each AEBENCH_TEST registers a
// function; CHECK records a failure with its location and keeps going.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace aebench::test {

struct Case {
  const char* name;
  std::function<void()> body;
};

std::vector<Case>& registry();
void record_failure(const char* file, int line, const char* expr);
int run_all();

struct Registrar {
  Registrar(const char* name, std::function<void()> body) {
    registry().push_back({name, std::move(body)});
  }
};

}  // namespace aebench::test

#define AEBENCH_TEST(name)                                          \
  static void name();                                               \
  static const ::aebench::test::Registrar name##_registrar(#name,   \
                                                           &name);  \
  static void name()

#define CHECK(expr)                                                 \
  do {                                                              \
    if (!(expr))                                                    \
      ::aebench::test::record_failure(__FILE__, __LINE__, #expr);   \
  } while (false)
