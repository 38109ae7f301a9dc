// Helpers shared by the workloads: bit-exact result comparison, the span
// decorator put in front of a library backend, and the set-up timer.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "addresslib/call.hpp"
#include "bench.hpp"
#include "core/session.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace aebench {

/// True when every side-port accumulator matches.
bool same_side(const ae::alib::SideAccum& a, const ae::alib::SideAccum& b);

/// True when two segment records match field for field.
bool same_segments(const std::vector<ae::alib::SegmentInfo>& a,
                   const std::vector<ae::alib::SegmentInfo>& b);

/// Bit-exact comparison of a call result against its reference: output
/// pixels (every channel), side accumulators and segment records.  Returns
/// "" on a match, else a one-line reason.
std::string compare_results(const ae::alib::CallResult& got,
                            const ae::alib::CallResult& ref);

/// Backend decorator that times every call as a span, named by `classify`.
/// With a disabled tracer it only forwards.
class SpanBackend : public ae::alib::Backend {
 public:
  using Classifier = std::function<const char*(const ae::alib::Call&)>;

  SpanBackend(ae::alib::Backend& inner, Tracer& tracer, Classifier classify)
      : inner_(inner), tracer_(tracer), classify_(std::move(classify)) {}

  std::string name() const override { return inner_.name(); }
  ae::alib::CallResult execute(const ae::alib::Call& call,
                               const ae::img::Image& a,
                               const ae::img::Image* b = nullptr) override {
    ScopedSpan span(tracer_, classify_(call));
    return inner_.execute(call, a, b);
  }

 private:
  ae::alib::Backend& inner_;
  Tracer& tracer_;
  Classifier classify_;
};

/// Span names by call mode: core.session_intra / _inter / _segment.
const char* session_span_name(const ae::alib::Call& call);

/// Runs `setup` `repetitions` times and returns the median wall time in
/// seconds; `teardown`, when given, runs untimed before each repetition.
/// Set-up is measured several times because one measurement of a
/// sub-second phase is dominated by scheduling noise.
double median_setup_seconds(int repetitions,
                            const std::function<void()>& setup,
                            const std::function<void()>& teardown = {});

/// Fills the latency percentiles (ms) and their sample counts from per-item
/// latencies in seconds.
void add_latency(const std::vector<double>& latencies_s, class MetricTable& e2e,
                 RunResult& result);

/// Throughput of whole passes over a fixed set of `items_per_pass` items:
/// the items of one pass over the median pass time.  A median, so a stretch
/// of host contention shorter than half the run does not move it.  Notes
/// the pass count and every pass time.
double median_pass_rate(const std::vector<double>& pass_seconds,
                        double items_per_pass, RunResult& result);

/// How far the item spans' time may stray from the traced time per item
/// measured around the same work from outside, as a share of the latter.
constexpr double kSpanCoverageTolerance = 0.05;

/// Closes a traced run: sets trace.overhead_pct from the per-item wall time
/// of the untraced and the traced part of the run, and checks that the
/// workload's item spans (`spanned_s_per_item`, read from the tracer) cover
/// the traced time per item within kSpanCoverageTolerance, so the layers
/// below them account for the traced run's time (a failure otherwise).
/// Notes the reconciliation figures and writes the Chrome trace when asked
/// to.
void finish_trace(const RunConfig& config, const Tracer& tracer,
                  double untraced_s_per_item, double traced_s_per_item,
                  double spanned_s_per_item, MetricTable& layers,
                  RunResult& result);

/// Sets core.session_intra_ms, _inter_ms and _segment_ms, per item, from
/// the spans a SpanBackend named by session_span_name recorded.
void set_session_call_layers(
    const std::map<std::string, Tracer::Layer>& spans, double items,
    MetricTable& layers);

/// Residency counters of `after` minus those of `before`.
ae::core::SessionStats session_delta(const ae::core::SessionStats& after,
                                     const ae::core::SessionStats& before);

/// Sets the core.inputs_*, core.board_copies, core.outputs_elided and
/// core.residency_hit_ratio layers from counters gathered over `items`
/// workload items.
void set_residency_layers(const ae::core::SessionStats& counters,
                          double items, MetricTable& layers);

/// Mixes a user seed with a per-workload salt into a generator seed.
u64 mix_seed(u64 seed, u64 salt);

}  // namespace aebench
