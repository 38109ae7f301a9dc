// segment_frames — the paper's profiling workload: region-growing video
// object segmentation (seg::segment_image) of distinct synthetic CIF frames
// on a core::EngineSession, which yields the session's modeled cycles under
// its timing and residency model.
//
// The frames show separate regions of one procedural world, 450 pixels
// apart along a camera path; the seed shifts each frame along the path by
// up to kMaxShift steps.  Every seed therefore gets new pixels with the
// same kind of content, so throughput and cycles compare across seeds
// (a new world per seed swings segmentation cost by 2.5x).
//
// Each pass over the frame set starts from an invalidated session, so the
// modeled cycles of a frame are a pure function of the frames: every pass
// must reproduce the first pass's cycles exactly.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "image/sequence.hpp"
#include "metrics.hpp"
#include "segmentation/segmentation.hpp"

namespace aebench {

namespace {

using namespace ae;

constexpr int kFrames = 16;
// Path steps between frames; one step pans the camera (3, 1) pixels.
constexpr int kRegionStride = 150;
constexpr int kMaxShift = 12;
constexpr u64 kWorldSeed = 0x5E6;

std::string check_frame(const seg::SegmentationResult& got,
                        const seg::SegmentationResult& ref) {
  if (!(got.labels == ref.labels)) return "label pixels differ";
  if (!same_segments(got.segments, ref.segments))
    return "segment records differ";
  if (got.rounds != ref.rounds || got.merged_segments != ref.merged_segments ||
      got.addresslib_calls != ref.addresslib_calls)
    return "round, merge or call counts differ";
  return "";
}

struct Pass {
  double busy_s = 0.0;
  std::vector<double> latencies_s;
  std::vector<u64> cycles;  // per frame
};

}  // namespace

RunResult run_segment_frames(const RunConfig& config) {
  RunResult result;
  img::SyntheticSequence::Params params;
  params.name = "segment_frames";
  params.frame_size = img::formats::kCif;
  params.frame_count = (kFrames + 1) * kRegionStride;
  params.seed = kWorldSeed;
  params.script = img::MotionScript{3.0, 1.0, 0.0, 1.0, 0.0};
  const img::SyntheticSequence sequence(params);
  Rng rng(mix_seed(config.seed, 0x5E6));
  const auto shifted = [&](int region) {
    return sequence.frame(region * kRegionStride +
                          static_cast<int>(rng.bounded(kMaxShift)));
  };
  std::vector<img::Image> frames;
  for (int i = 0; i < kFrames; ++i) frames.push_back(shifted(i));
  const img::Image warm_frame = shifted(kFrames);

  // References on the software backend, outside every timed region.
  alib::SoftwareBackend software;
  std::vector<seg::SegmentationResult> refs;
  double software_model_s = 0.0;
  for (const img::Image& f : frames) {
    refs.push_back(seg::segment_image(software, f));
    software_model_s += refs.back().low_level.model_seconds;
  }

  std::unique_ptr<core::EngineSession> session;
  const auto make_ready = [&] {
    session = std::make_unique<core::EngineSession>();
    (void)seg::segment_image(*session, warm_frame);
  };
  const double setup_s = median_setup_seconds(5, make_ready);

  Tracer tracer(config.trace);
  Tracer untraced_tracer(false);
  SpanBackend traced_session(*session, tracer, session_span_name);
  std::vector<u64> first_cycles;
  double layer_rounds = 0.0, layer_merged = 0.0, layer_calls = 0.0;

  // One pass over the frame set; `backend` is the session itself or the
  // span decorator in front of it.
  const auto run_pass = [&](alib::Backend& backend, bool spans) {
    Tracer& frame_tracer = spans ? tracer : untraced_tracer;
    Pass pass;
    session->invalidate();
    for (int i = 0; i < kFrames; ++i) {
      const u64 cycles_before = session->stats().cycles;
      seg::SegmentationResult got;
      const Clock::time_point start = Clock::now();
      try {
        ScopedSpan span(frame_tracer, "seg.frame", i);
        got = seg::segment_image(backend,
                                 frames[static_cast<std::size_t>(i)]);
      } catch (const std::exception& e) {
        ++result.attempted;
        result.fail(std::string("segment_frames: ") + e.what());
        continue;
      }
      const double dt = seconds_since(start);
      pass.busy_s += dt;
      pass.latencies_s.push_back(dt);
      pass.cycles.push_back(session->stats().cycles - cycles_before);
      ++result.attempted;
      const std::string why =
          check_frame(got, refs[static_cast<std::size_t>(i)]);
      if (!why.empty())
        result.fail("segment_frames: frame " + std::to_string(i) + ": " +
                    why);
      if (spans) {
        layer_rounds += got.rounds;
        layer_merged += static_cast<double>(got.merged_segments);
        layer_calls += static_cast<double>(got.addresslib_calls);
      }
    }
    if (first_cycles.empty()) {
      first_cycles = pass.cycles;
    } else if (pass.cycles != first_cycles) {
      result.fail("segment_frames: modeled cycles changed between passes");
    }
    return pass;
  };

  // Whole passes until the time is up, so every run weighs the frames
  // equally.
  const auto run_for = [&](double seconds, alib::Backend& backend, bool spans,
                           std::vector<Pass>& passes) {
    const Clock::time_point start = Clock::now();
    do {
      passes.push_back(run_pass(backend, spans));
    } while (seconds_since(start) < seconds);
  };
  const auto per_frame = [](const std::vector<Pass>& passes) {
    double busy = 0.0;
    std::size_t n = 0;
    for (const Pass& p : passes) {
      busy += p.busy_s;
      n += p.latencies_s.size();
    }
    return n > 0 ? busy / static_cast<double>(n) : 0.0;
  };
  const double spc = session->config().seconds_per_cycle();

  if (!config.trace) {
    MetricTable e2e(false);
    std::vector<Pass> passes;
    run_for(config.seconds, *session, false, passes);
    std::vector<double> latencies;
    for (const Pass& p : passes)
      latencies.insert(latencies.end(), p.latencies_s.begin(),
                       p.latencies_s.end());
    u64 cycles = 0;
    for (const u64 c : first_cycles) cycles += c;
    e2e.set("setup_s", setup_s);
    std::vector<double> pass_s;
    for (const Pass& p : passes) pass_s.push_back(p.busy_s);
    e2e.set("items_per_s", median_pass_rate(pass_s, kFrames, result));
    add_latency(latencies, e2e, result);
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("engine_cycles", static_cast<double>(cycles) / kFrames);
    e2e.set("modeled_speedup",
            software_model_s / (static_cast<double>(cycles) * spc));
    e2e.emit(result);
    result.note("segment_frames.items", "CIF frames");
    return result;
  }

  MetricTable layers(true);
  std::vector<Pass> untraced, traced;
  run_for(config.seconds / 2, *session, false, untraced);
  const core::SessionStats before = session->stats();
  run_for(config.seconds / 2, traced_session, true, traced);
  const core::SessionStats delta = session_delta(session->stats(), before);
  double frames_traced = 0.0;
  for (const Pass& p : traced)
    frames_traced += static_cast<double>(p.latencies_s.size());
  const auto spans = tracer.summarize();
  layers.set("seg.host_self_ms",
             find_layer(spans, "seg.frame").self_ms / frames_traced);
  layers.set("seg.rounds", layer_rounds / frames_traced);
  layers.set("seg.merged_segments", layer_merged / frames_traced);
  layers.set("seg.calls", layer_calls / frames_traced);
  set_session_call_layers(spans, frames_traced, layers);
  set_residency_layers(delta, frames_traced, layers);
  finish_trace(config, tracer, per_frame(untraced), per_frame(traced),
               find_layer(spans, "seg.frame").total_ms * 1e-3 / frames_traced,
               layers, result);
  layers.emit(result);
  return result;
}

}  // namespace aebench
