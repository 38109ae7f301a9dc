#include "common.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "metrics.hpp"

namespace aebench {

bool same_side(const ae::alib::SideAccum& a, const ae::alib::SideAccum& b) {
  return a.sad == b.sad && a.histogram == b.histogram && a.gme == b.gme &&
         a.gme_affine == b.gme_affine && a.gme_persp == b.gme_persp;
}

bool same_segments(const std::vector<ae::alib::SegmentInfo>& a,
                   const std::vector<ae::alib::SegmentInfo>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ae::alib::SegmentInfo& x = a[i];
    const ae::alib::SegmentInfo& y = b[i];
    if (x.id != y.id || x.seed.x != y.seed.x || x.seed.y != y.seed.y ||
        x.pixel_count != y.pixel_count || x.bbox.x != y.bbox.x ||
        x.bbox.y != y.bbox.y || x.bbox.width != y.bbox.width ||
        x.bbox.height != y.bbox.height ||
        x.geodesic_radius != y.geodesic_radius || x.sum_y != y.sum_y)
      return false;
  }
  return true;
}

std::string compare_results(const ae::alib::CallResult& got,
                            const ae::alib::CallResult& ref) {
  if (!(got.output == ref.output)) return "output pixels differ";
  if (!same_side(got.side, ref.side)) return "side accumulators differ";
  if (!same_segments(got.segments, ref.segments))
    return "segment records differ";
  return "";
}

const char* session_span_name(const ae::alib::Call& call) {
  switch (call.mode) {
    case ae::alib::Mode::Inter:
      return "core.session_inter";
    case ae::alib::Mode::Intra:
      return "core.session_intra";
    case ae::alib::Mode::Segment:
      return "core.session_segment";
  }
  return "core.session_intra";
}

double median_setup_seconds(int repetitions,
                            const std::function<void()>& setup,
                            const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int i = 0; i < repetitions; ++i) {
    if (teardown) teardown();
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

void add_latency(const std::vector<double>& latencies_s, MetricTable& e2e,
                 RunResult& result) {
  std::vector<double> ms;
  ms.reserve(latencies_s.size());
  for (const double s : latencies_s) ms.push_back(s * 1e3);
  e2e.set("latency_p50_ms", percentile(ms, 50.0));
  e2e.set("latency_p99_ms", percentile(ms, 99.0));
  result.note("latency.samples", std::to_string(ms.size()));
  result.note("latency.samples_beyond_p99",
              std::to_string(tail_count(ms, 99.0)));
  result.note("latency.highest_supported_percentile",
              std::to_string(highest_supported_percentile(ms)));
}

double median_pass_rate(const std::vector<double>& pass_seconds,
                        double items_per_pass, RunResult& result) {
  std::string ms;
  for (const double s : pass_seconds) {
    if (!ms.empty()) ms += ' ';
    ms += std::to_string(s * 1e3);
  }
  result.note("passes", std::to_string(pass_seconds.size()));
  result.note("pass_ms", ms);
  return items_per_pass / median(pass_seconds);
}

void finish_trace(const RunConfig& config, const Tracer& tracer,
                  double untraced_s_per_item, double traced_s_per_item,
                  double spanned_s_per_item, MetricTable& layers,
                  RunResult& result) {
  const double overhead =
      (traced_s_per_item - untraced_s_per_item) / untraced_s_per_item * 100.0;
  layers.set("trace.overhead_pct", overhead);
  const double coverage = spanned_s_per_item / traced_s_per_item;
  result.note("trace.untraced_ms_per_item",
              std::to_string(untraced_s_per_item * 1e3));
  result.note("trace.traced_ms_per_item",
              std::to_string(traced_s_per_item * 1e3));
  result.note("trace.spanned_ms_per_item",
              std::to_string(spanned_s_per_item * 1e3));
  result.note("trace.span_coverage", std::to_string(coverage));
  result.note("trace.spans", std::to_string(tracer.size()));
  if (!(std::abs(coverage - 1.0) <= kSpanCoverageTolerance))
    result.fail("trace: the item spans cover " +
                std::to_string(coverage * 100.0) +
                " % of the traced time per item");
  if (!config.trace_path.empty() &&
      !tracer.write_chrome_json(config.trace_path))
    result.fail("trace: cannot write " + config.trace_path);
  else if (!config.trace_path.empty())
    result.note("trace.chrome_json", config.trace_path);
}

void set_session_call_layers(
    const std::map<std::string, Tracer::Layer>& spans, double items,
    MetricTable& layers) {
  for (const char* name :
       {"core.session_intra", "core.session_inter", "core.session_segment"})
    layers.set(std::string(name) + "_ms",
               find_layer(spans, name).total_ms / items);
}

ae::core::SessionStats session_delta(const ae::core::SessionStats& after,
                                     const ae::core::SessionStats& before) {
  ae::core::SessionStats d;
  d.inputs_transferred = after.inputs_transferred - before.inputs_transferred;
  d.inputs_reused = after.inputs_reused - before.inputs_reused;
  d.board_copies = after.board_copies - before.board_copies;
  d.outputs_elided = after.outputs_elided - before.outputs_elided;
  return d;
}

void set_residency_layers(const ae::core::SessionStats& counters,
                          double items, MetricTable& layers) {
  const auto per_item = [items](i64 count) {
    return static_cast<double>(count) / items;
  };
  layers.set("core.inputs_transferred", per_item(counters.inputs_transferred));
  layers.set("core.inputs_reused", per_item(counters.inputs_reused));
  layers.set("core.board_copies", per_item(counters.board_copies));
  layers.set("core.outputs_elided", per_item(counters.outputs_elided));
  const i64 inputs = counters.inputs_transferred + counters.inputs_reused;
  layers.set("core.residency_hit_ratio",
             inputs > 0 ? static_cast<double>(counters.inputs_reused) /
                              static_cast<double>(inputs)
                        : 0.0);
}

u64 mix_seed(u64 seed, u64 salt) {
  u64 state = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  return ae::splitmix64(state);
}

}  // namespace aebench
