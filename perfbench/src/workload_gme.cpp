// gme_mosaic — the paper's headline workload (Table 3): hierarchical global
// motion estimation plus mosaicing over one full-length paper sequence, on
// the dual-platform backend that prices every call for the Pentium-M and
// for the board.
//
// The untraced run times gme::run_sequence_experiment as a whole.  The
// traced run first runs it once untraced, then recomposes the same
// experiment from the library's public pieces (SyntheticSequence::frame,
// build_pyramid, GmeEstimator::estimate, Mosaic) with spans around each,
// and requires the recomposition to reproduce the experiment's call counts
// and modeled seconds exactly.
#include <cmath>
#include <sstream>
#include <string>

#include "addresslib/kernels/kernel_backend.hpp"
#include "bench.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "gme/table3.hpp"
#include "metrics.hpp"

namespace aebench {

namespace {

using namespace ae;

// Paper Table 3, "Movie": 5'22'' in PM, 1'05'' in FPGA, 4070 intra and
// 3085 inter calls.
constexpr double kPaperPmSeconds = 5 * 60 + 22;
constexpr double kPaperFpgaSeconds = 60 + 5;
constexpr double kMaxMotionErrorPx = 1.0;
constexpr double kPanShift = 0.15;

struct Recomposed {
  gme::SequenceExperiment exp;
  double board_seconds = 0.0;
};

// The body of gme::run_sequence_experiment, rebuilt from public functions
// with a span around each step.  The order of backend calls and of the
// high-level instruction charges is kept, so every modeled figure matches
// the library's own run exactly.
Recomposed recompose(const img::SyntheticSequence& sequence,
                     const gme::SequenceRunOptions& options, Tracer& tracer) {
  Recomposed out;
  gme::SequenceExperiment& exp = out.exp;
  exp.name = sequence.name();
  const int frames = sequence.frame_count();
  exp.frames = frames;

  gme::DualPlatformBackend dual(options.software_model,
                                options.engine_config);
  SpanBackend backend(dual, tracer, [](const alib::Call& call) {
    return alib::KernelBackend::supports(call) ? "alib.lowered"
                                               : "alib.fallback";
  });
  gme::GmeEstimator estimator(backend, options.gme);
  const auto synth = [&](int t) {
    ScopedSpan span(tracer, "image.synth", t);
    return sequence.frame(t);
  };

  ScopedSpan root(tracer, "gme.sequence", 0);
  gme::Translation accumulated;
  std::vector<gme::Translation> placements{gme::Translation{}};
  double error_sum = 0.0;

  img::Image prev_frame = synth(0);
  gme::Pyramid prev_pyr;
  {
    ScopedSpan span(tracer, "gme.pyramid", 0);
    prev_pyr = gme::build_pyramid(backend, prev_frame,
                                  options.gme.pyramid_levels);
  }
  u64 pyramid_hl = 0;
  for (int t = 1; t < frames; ++t) {
    const img::Image cur_frame = synth(t);
    gme::Pyramid cur_pyr;
    {
      ScopedSpan span(tracer, "gme.pyramid", t);
      cur_pyr = gme::build_pyramid(backend, cur_frame,
                                   options.gme.pyramid_levels, &pyramid_hl);
    }
    gme::GmeResult result;
    {
      ScopedSpan span(tracer, "gme.estimate", t);
      result = estimator.estimate(prev_pyr, cur_pyr);
    }
    exp.gme_iterations += result.iterations;
    accumulated = accumulated + result.motion;
    placements.push_back(gme::Translation{-accumulated.dx, -accumulated.dy});
    const img::CameraPose p0 = sequence.pose(0);
    const img::CameraPose pt = sequence.pose(t);
    error_sum += std::hypot(-accumulated.dx - (pt.center_x - p0.center_x),
                            -accumulated.dy - (pt.center_y - p0.center_y));
    prev_pyr = std::move(cur_pyr);
    prev_frame = cur_frame;
  }
  dual.add_high_level(pyramid_hl);
  dual.add_high_level(estimator.high_level_instr());
  exp.mean_motion_error_px = error_sum / std::max(1, frames - 1);

  {
    ScopedSpan span(tracer, "gme.mosaic", 0);
    Point origin{};
    const Size canvas = gme::Mosaic::required_canvas(sequence.frame_size(),
                                                     placements, origin);
    gme::Mosaic mosaic(canvas, origin);
    for (int t = 0; t < frames; ++t) {
      mosaic.add_frame(synth(t), placements[static_cast<std::size_t>(t)]);
      dual.add_high_level(static_cast<u64>(sequence.frame_size().area()) *
                          15);
    }
    exp.mosaic = mosaic.render();
    exp.mosaic_coverage = mosaic.coverage();
  }
  exp.pm_seconds = dual.software_platform_seconds();
  exp.fpga_seconds = dual.engine_platform_seconds();
  exp.intra_calls = dual.intra_calls();
  exp.inter_calls = dual.inter_calls();
  out.board_seconds = dual.engine_board_seconds();
  return out;
}

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(6);
  s << v;
  return s.str();
}

// Checks one experiment against the scripted camera truth.
void check_experiment(const gme::SequenceExperiment& e, int frames,
                      RunResult& result) {
  ++result.attempted;
  if (e.frames != frames)
    result.fail("gme: experiment covered " + std::to_string(e.frames) +
                " of " + std::to_string(frames) + " frames");
  else if (!(e.mean_motion_error_px <= kMaxMotionErrorPx))
    result.fail("gme: mean motion error " + fmt(e.mean_motion_error_px) +
                " px exceeds " + fmt(kMaxMotionErrorPx) + " px");
}

}  // namespace

RunResult run_gme_mosaic(const RunConfig& config) {
  RunResult result;
  // The paper's "Movie" world and length; the seed bends the camera path by
  // up to kPanShift pixels per frame, so every frame differs while the
  // texture statistics, and with them the GME iteration counts, stay those
  // of the Table 3 sequence (a new world per seed moves the modeled cycles
  // by 5 %).
  img::SyntheticSequence::Params params =
      img::paper_sequence_params(img::PaperSequence::Movie);
  Rng rng(mix_seed(config.seed, 0x67D3));
  params.script.pan_x += kPanShift * (2.0 * rng.uniform01() - 1.0);
  params.script.pan_y += kPanShift * (2.0 * rng.uniform01() - 1.0);
  const img::SyntheticSequence sequence(params);
  const int frames = sequence.frame_count();
  gme::SequenceRunOptions options;
  const double spc = options.engine_config.seconds_per_cycle();
  result.note("gme.sequence", params.name + " (" + std::to_string(frames) +
                                  " CIF frames, pan " +
                                  fmt(params.script.pan_x) + ", " +
                                  fmt(params.script.pan_y) + " px/frame)");

  if (!config.trace) {
    MetricTable e2e(false);
    // Set-up: the first frames of the experiment, which bring up the
    // backend, the shared kernel pool and the allocator's working set.
    gme::SequenceRunOptions warm = options;
    warm.max_frames = 2;
    e2e.set("setup_s", median_setup_seconds(3, [&] {
              (void)gme::run_sequence_experiment(sequence, warm);
            }));

    // One whole sequence: it takes about 20 s on a 4-core 2.1 GHz x86-64
    // host, so a second would not fit in a 30-s run.  The latency metrics
    // are therefore a single sample, the time of the sequence.
    const Clock::time_point start = Clock::now();
    const gme::SequenceExperiment exp =
        gme::run_sequence_experiment(sequence, options);
    const double busy = seconds_since(start);
    check_experiment(exp, frames, result);

    e2e.set("items_per_s", static_cast<double>(exp.frames) / busy);
    add_latency({busy}, e2e, result);
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("engine_cycles", exp.fpga_seconds / spc / frames);
    e2e.set("modeled_speedup", exp.speedup());
    e2e.emit(result);
    const double paper = kPaperPmSeconds / kPaperFpgaSeconds;
    result.note("gme.items", "frames (latency is per whole sequence)");
    result.note("gme.modeled_speedup", fmt(exp.speedup()));
    result.note("gme.paper_speedup", fmt(paper));
    result.note("gme.speedup_rel_error",
                fmt((exp.speedup() - paper) / paper));
    result.note("gme.intra_calls", std::to_string(exp.intra_calls) +
                                       " (paper 4070)");
    result.note("gme.inter_calls", std::to_string(exp.inter_calls) +
                                       " (paper 3085)");
    result.note("gme.mean_motion_error_px", fmt(exp.mean_motion_error_px));
    result.note("gme.engine_cycles_definition",
                "Table 3 FPGA-platform seconds (board plus P4 host share) in "
                "engine clock cycles, per frame");
    return result;
  }

  // Traced run: one untraced experiment, then the traced recomposition.
  MetricTable layers(true);
  const Clock::time_point untraced_start = Clock::now();
  const gme::SequenceExperiment reference =
      gme::run_sequence_experiment(sequence, options);
  const double untraced_s = seconds_since(untraced_start);
  check_experiment(reference, frames, result);

  Tracer tracer(true);
  const Clock::time_point traced_start = Clock::now();
  const Recomposed again = recompose(sequence, options, tracer);
  const double traced_s = seconds_since(traced_start);
  check_experiment(again.exp, frames, result);
  const bool exact =
      again.exp.intra_calls == reference.intra_calls &&
      again.exp.inter_calls == reference.inter_calls &&
      again.exp.pm_seconds == reference.pm_seconds &&
      again.exp.fpga_seconds == reference.fpga_seconds &&
      again.exp.mean_motion_error_px == reference.mean_motion_error_px &&
      again.exp.gme_iterations == reference.gme_iterations &&
      again.exp.mosaic_coverage == reference.mosaic_coverage &&
      again.exp.mosaic == reference.mosaic;
  if (!exact)
    result.fail("gme: recomposition differs from run_sequence_experiment");
  result.note("gme.recomposition_exact", exact ? "true" : "false");

  const auto spans = tracer.summarize();
  const Tracer::Layer synth = find_layer(spans, "image.synth");
  const Tracer::Layer lowered = find_layer(spans, "alib.lowered");
  const Tracer::Layer fallback = find_layer(spans, "alib.fallback");
  layers.set("image.synth_ms", synth.total_ms);
  layers.set("image.synth_frames", static_cast<double>(synth.count));
  layers.set("alib.lowered_ms", lowered.total_ms);
  layers.set("alib.lowered_calls", static_cast<double>(lowered.count));
  layers.set("alib.fallback_ms", fallback.total_ms);
  layers.set("alib.fallback_calls", static_cast<double>(fallback.count));
  const i64 calls = lowered.count + fallback.count;
  layers.set("alib.lowered_ratio",
             calls > 0 ? static_cast<double>(lowered.count) /
                             static_cast<double>(calls)
                       : 0.0);
  layers.set("gme.pyramid_ms", find_layer(spans, "gme.pyramid").total_ms);
  layers.set("gme.estimate_self_ms",
             find_layer(spans, "gme.estimate").self_ms);
  layers.set("gme.mosaic_ms", find_layer(spans, "gme.mosaic").self_ms);
  layers.set("gme.iterations", again.exp.gme_iterations);
  layers.set("gme.pm_model_s", again.exp.pm_seconds);
  layers.set("gme.board_model_s", again.board_seconds);
  layers.set("gme.intra_calls", static_cast<double>(again.exp.intra_calls));
  layers.set("gme.inter_calls", static_cast<double>(again.exp.inter_calls));
  finish_trace(config, tracer, untraced_s, traced_s,
               find_layer(spans, "gme.sequence").total_ms * 1e-3, layers,
               result);
  layers.emit(result);
  return result;
}

}  // namespace aebench
