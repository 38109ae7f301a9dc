#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <utility>

namespace aebench {

namespace {

// Open spans of the calling thread, innermost last, tagged with their
// tracer so two tracers never adopt each other's spans.
thread_local std::vector<std::pair<const Tracer*, int>> t_open;

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

void write_escaped(std::ostream& out, const char* s) {
  out << '"';
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out << '\\';
    out << *s;
  }
  out << '"';
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

ae::i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::begin(const char* name, ae::i64 item) {
  if (!enabled_) return -1;
  int parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this) {
      parent = it->second;
      break;
    }
  Span span;
  span.name = name;
  span.parent = parent;
  span.item = item;
  span.tid = thread_index();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  t_open.emplace_back(this, id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const ae::i64 t = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, ae::i64 item) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  span.item = item;
  span.tid = thread_index();
  span.detached = true;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, Tracer::Layer> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ae::i64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.end_ns >= 0 && s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, Layer> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    Layer& layer = layers[s.name];
    const ae::i64 dur = s.end_ns - s.start_ns;
    ++layer.count;
    layer.total_ms += static_cast<double>(dur) * 1e-6;
    layer.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
  }
  return layers;
}

Tracer::Layer find_layer(const std::map<std::string, Tracer::Layer>& layers,
                         const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? Tracer::Layer{} : it->second;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  const auto us = [&buf](ae::i64 ns) {
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) * 1e-3);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const auto args = [&] {
      return ",\"args\":{\"item\":" + std::to_string(s.item) +
             ",\"parent\":" + std::to_string(s.parent) + "}";
    };
    if (s.detached) {
      // Async begin/end pair: detached spans overlap on one thread.
      for (const bool open : {true, false}) {
        out << (first ? "" : ",") << "{\"name\":";
        first = false;
        write_escaped(out, s.name);
        out << ",\"cat\":\"detached\",\"ph\":\"" << (open ? 'b' : 'e')
            << "\",\"id\":" << i << ",\"ts\":"
            << us(open ? s.start_ns : s.end_ns)
            << ",\"pid\":1,\"tid\":" << s.tid << (open ? args() : "")
            << "}";
      }
      continue;
    }
    out << (first ? "" : ",") << "{\"name\":";
    first = false;
    write_escaped(out, s.name);
    out << ",\"ph\":\"X\",\"ts\":" << us(s.start_ns)
        << ",\"dur\":" << us(s.end_ns - s.start_ns)
        << ",\"pid\":1,\"tid\":" << s.tid << args() << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace aebench
