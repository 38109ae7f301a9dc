// In-memory span recorder for the traced run.
//
// Spans are recorded around calls into the library's public functions, on
// the calling thread: name, start, end, parent span and the workload item
// they belong to.  Nothing is written until the run ends; then the spans
// are summarised per name (count, total, self time) and exported as Chrome
// trace-event JSON, which chrome://tracing and Perfetto open as is.
//
// Self time of a span is its duration minus the durations of its direct
// children.  Children always nest inside their parent on the same thread
// (an open-span stack per thread assigns parents).
// Detached spans (`record`) cover intervals that cross other spans on the
// same thread, such as submit-to-ready latency with several calls in
// flight; they take no part in the nesting.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace aebench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    ae::i64 start_ns = 0;
    ae::i64 end_ns = -1;  ///< -1 while open
    int parent = -1;
    ae::i64 item = -1;
    int tid = 0;
    bool detached = false;
  };

  struct Layer {
    ae::i64 count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit Tracer(bool enabled = true);

  bool enabled() const { return enabled_; }

  /// Opens a nested span on the calling thread and returns its id (-1 when
  /// disabled).  `name` must outlive the tracer (use string literals).
  int begin(const char* name, ae::i64 item = -1);
  /// Closes span `id` (ignored for -1).  Spans close in LIFO order per
  /// thread.
  void end(int id);
  /// Records a detached span with a known interval.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              ae::i64 item = -1);

  /// Per-name totals over every closed span.
  std::map<std::string, Layer> summarize() const;
  std::size_t size() const;

  /// Writes the spans as Chrome trace-event JSON.  Returns false when the
  /// file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  ae::i64 now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The entry for `name` in a summary, or an empty layer when no span had
/// that name.
Tracer::Layer find_layer(const std::map<std::string, Tracer::Layer>& layers,
                         const std::string& name);

/// RAII nested span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, ae::i64 item = -1)
      : tracer_(tracer), id_(tracer.begin(name, item)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace aebench
