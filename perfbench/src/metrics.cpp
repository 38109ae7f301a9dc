#include "metrics.hpp"

#include <stdexcept>

namespace aebench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "host"},
      {"items_per_s", "1/s", "host"},
      {"latency_p50_ms", "ms", "host"},
      {"latency_p99_ms", "ms", "host"},
      {"peak_rss_mb", "MB", "host"},
      {"engine_cycles", "cycles/item", "modeled"},
      {"modeled_speedup", "x", "modeled"},
  };
  return specs;
}

// Per-layer values are per workload item (a sequence on gme_mosaic, a frame
// on segment_frames, a call on farm_calls, a program on program_serve)
// unless the unit says otherwise.
const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"image.synth_ms", "ms/item", "host"},
      {"image.synth_frames", "count/item", "count"},
      {"alib.lowered_ms", "ms/item", "host"},
      {"alib.lowered_calls", "count/item", "count"},
      {"alib.fallback_ms", "ms/item", "host"},
      {"alib.fallback_calls", "count/item", "count"},
      {"alib.lowered_ratio", "ratio", "count"},
      {"gme.pyramid_ms", "ms/item", "host"},
      {"gme.estimate_self_ms", "ms/item", "host"},
      {"gme.mosaic_ms", "ms/item", "host"},
      {"gme.iterations", "count/item", "count"},
      {"gme.pm_model_s", "s/item", "modeled"},
      {"gme.board_model_s", "s/item", "modeled"},
      {"gme.intra_calls", "count/item", "count"},
      {"gme.inter_calls", "count/item", "count"},
      {"seg.host_self_ms", "ms/item", "host"},
      {"seg.rounds", "count/item", "count"},
      {"seg.merged_segments", "count/item", "count"},
      {"seg.calls", "count/item", "count"},
      {"core.session_intra_ms", "ms/item", "host"},
      {"core.session_inter_ms", "ms/item", "host"},
      {"core.session_segment_ms", "ms/item", "host"},
      {"core.session_service_ms", "ms/item", "host"},
      {"core.inputs_transferred", "count/item", "count"},
      {"core.inputs_reused", "count/item", "count"},
      {"core.board_copies", "count/item", "count"},
      {"core.outputs_elided", "count/item", "count"},
      {"core.residency_hit_ratio", "ratio", "count"},
      {"serve.submit_ms", "ms/item", "host"},
      {"serve.wait_ms", "ms/item", "host"},
      {"serve.batches", "count/item", "count"},
      {"serve.affinity_hits", "count/item", "count"},
      {"serve.affinity_spills", "count/item", "count"},
      {"serve.peak_queue_depth", "count", "count"},
      {"serve.overlap_kcycles", "kcycles/item", "modeled"},
      {"serve.program_exec_ms", "ms/item", "host"},
      {"serve.planned_words_saved", "words/item", "modeled"},
      {"serve.modeled_calls_per_s", "1/s", "modeled"},
      {"serve.makespan_cycles", "cycles/item", "modeled"},
      {"serve.modeled_spread_pct", "%", "modeled"},
      {"analysis.verify_ms", "ms/item", "host"},
      {"analysis.plan_ms", "ms/item", "host"},
      {"analysis.domain_ms", "ms/item", "host"},
      {"analysis.opt_ms", "ms/item", "host"},
      {"analysis.alloc_ms", "ms/item", "host"},
      {"analysis.opt_ms_longest", "ms", "host"},
      {"analysis.alloc_ms_longest", "ms", "host"},
      {"analysis.rewrites_applied", "count/item", "count"},
      {"analysis.rewrites_rejected", "count/item", "count"},
      {"analysis.alloc_words_saved", "words/item", "modeled"},
      {"trace.overhead_pct", "%", "host"},
  };
  return specs;
}

MetricTable::MetricTable(bool per_layer)
    : specs_(per_layer ? &per_layer_metrics() : &end_to_end_metrics()),
      per_layer_(per_layer) {}

void MetricTable::set(const std::string& name, double value) {
  for (const MetricSpec& spec : *specs_)
    if (name == spec.name) {
      values_[name] = value;
      return;
    }
  throw std::logic_error("metric not in the catalog: " + name);
}

void MetricTable::emit(RunResult& result) const {
  for (const MetricSpec& spec : *specs_) {
    const auto it = values_.find(spec.name);
    if (it == values_.end() && !per_layer_)
      throw std::logic_error(std::string("end-to-end metric not set: ") +
                             spec.name);
    result.add(spec.name, it == values_.end() ? 0.0 : it->second, spec.unit,
               spec.clock);
  }
}

}  // namespace aebench
