// Tests of the span recorder: parent assignment, self time, detached
// spans, and the Chrome trace-event export.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "test_main.hpp"
#include "trace.hpp"

using aebench::ScopedSpan;
using aebench::Tracer;

namespace {

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

AEBENCH_TEST(self_time_subtracts_direct_children) {
  Tracer tracer(true);
  {
    ScopedSpan root(tracer, "root", 1);
    spin_for(std::chrono::microseconds(500));
    {
      ScopedSpan child(tracer, "child", 1);
      spin_for(std::chrono::microseconds(1000));
      ScopedSpan grandchild(tracer, "grandchild", 1);
      spin_for(std::chrono::microseconds(500));
    }
  }
  const auto layers = tracer.summarize();
  const Tracer::Layer& root = layers.at("root");
  const Tracer::Layer& child = layers.at("child");
  const Tracer::Layer& grandchild = layers.at("grandchild");
  CHECK(root.count == 1 && child.count == 1 && grandchild.count == 1);
  CHECK(root.total_ms >= child.total_ms);
  CHECK(child.total_ms >= grandchild.total_ms);
  const double eps = 1e-9;
  CHECK(std::abs(root.self_ms - (root.total_ms - child.total_ms)) < eps);
  CHECK(std::abs(child.self_ms - (child.total_ms - grandchild.total_ms)) <
        eps);
  CHECK(std::abs(grandchild.self_ms - grandchild.total_ms) < eps);
}

AEBENCH_TEST(spans_of_other_threads_do_not_nest) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "main", 0);
    std::thread t([&] { ScopedSpan worker(tracer, "worker", 1); });
    t.join();
  }
  const auto layers = tracer.summarize();
  // The worker's span is a root of its own thread, so the main span's self
  // time is its whole duration.
  CHECK(std::abs(layers.at("main").self_ms - layers.at("main").total_ms) <
        1e-9);
  CHECK(layers.at("worker").count == 1);
}

AEBENCH_TEST(detached_spans_stay_out_of_nesting) {
  Tracer tracer(true);
  const auto start = Tracer::Clock::now();
  {
    ScopedSpan root(tracer, "root", 0);
    spin_for(std::chrono::microseconds(200));
  }
  tracer.record("latency", start, Tracer::Clock::now(), 7);
  const auto layers = tracer.summarize();
  CHECK(layers.at("latency").count == 1);
  // The latency span encloses the root but is not its parent.
  CHECK(std::abs(layers.at("root").self_ms - layers.at("root").total_ms) <
        1e-9);
  CHECK(layers.at("latency").total_ms >= layers.at("root").total_ms);
}

AEBENCH_TEST(disabled_tracer_records_nothing) {
  Tracer tracer(false);
  {
    ScopedSpan span(tracer, "x");
  }
  tracer.record("y", Tracer::Clock::now(), Tracer::Clock::now());
  CHECK(tracer.size() == 0);
  CHECK(tracer.summarize().empty());
}

AEBENCH_TEST(chrome_export_has_complete_and_async_events) {
  Tracer tracer(true);
  {
    ScopedSpan root(tracer, "root", 3);
    ScopedSpan child(tracer, "child \"quoted\"", 3);
  }
  tracer.record("latency", Tracer::Clock::now(), Tracer::Clock::now(), 4);
  const std::string path = "aebench_trace_test.json";
  CHECK(tracer.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  CHECK(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0) == 0);
  CHECK(json.find("\"name\":\"root\",\"ph\":\"X\"") != std::string::npos);
  CHECK(json.find("child \\\"quoted\\\"") != std::string::npos);
  CHECK(json.find("\"ph\":\"b\"") != std::string::npos);
  CHECK(json.find("\"ph\":\"e\"") != std::string::npos);
  CHECK(json.find("\"args\":{\"item\":3,\"parent\":0}") != std::string::npos);
  std::remove(path.c_str());
}
