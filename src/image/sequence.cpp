#include "image/sequence.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "image/synth.hpp"

namespace ae::img {

void CameraPose::to_world(double fx, double fy, double frame_w, double frame_h,
                          double& wx, double& wy) const {
  to_world(fx, fy, frame_w, frame_h, std::cos(angle), std::sin(angle), wx,
           wy);
}

void CameraPose::to_world(double fx, double fy, double frame_w, double frame_h,
                          double cos_angle, double sin_angle, double& wx,
                          double& wy) const {
  const double rx = fx - frame_w / 2.0;
  const double ry = fy - frame_h / 2.0;
  wx = center_x + zoom * (cos_angle * rx - sin_angle * ry);
  wy = center_y + zoom * (sin_angle * rx + cos_angle * ry);
}

SyntheticSequence::SyntheticSequence(Params params)
    : params_(std::move(params)) {
  AE_EXPECTS(params_.frame_count > 0, "sequence needs at least one frame");
  AE_EXPECTS(params_.frame_size.width > 0 && params_.frame_size.height > 0,
             "sequence needs a positive frame size");
  AE_EXPECTS(params_.script.zoom_rate > 0.0, "zoom rate must be positive");
  poses_.reserve(static_cast<std::size_t>(params_.frame_count));
  Rng rng(params_.seed ^ 0xCAFEBABEull);
  CameraPose pose;
  for (int t = 0; t < params_.frame_count; ++t) {
    poses_.push_back(pose);
    const MotionScript& m = params_.script;
    pose.center_x += m.pan_x + m.jitter * (rng.uniform01() - 0.5);
    pose.center_y += m.pan_y + m.jitter * (rng.uniform01() - 0.5);
    pose.angle += m.rotate;
    pose.zoom *= m.zoom_rate;
  }
}

CameraPose SyntheticSequence::pose(int t) const {
  AE_EXPECTS(t >= 0 && t < params_.frame_count, "frame index out of range");
  return poses_[static_cast<std::size_t>(t)];
}

double SyntheticSequence::world_luma(double wx, double wy) const {
  // Two fractal layers plus a thresholded coarse layer that carves
  // high-contrast "structures" into the texture; GME needs strong gradients.
  const u64 seed = params_.seed;
  const double base = value_noise(wx, wy, seed, 4, 64.0);
  const double detail = value_noise(wx, wy, seed + 101, 3, 14.0);
  const double coarse = value_noise(wx, wy, seed + 202, 2, 160.0);
  double luma = 30.0 + 170.0 * (0.65 * base + 0.35 * detail);
  if (coarse > 0.58) luma = 255.0 - luma * 0.55;  // bright structures
  if (coarse < 0.40) luma *= 0.45;                // dark structures
  return luma < 0.0 ? 0.0 : (luma > 255.0 ? 255.0 : luma);
}

Image SyntheticSequence::frame(int t) const {
  const CameraPose p = pose(t);
  const Size fs = params_.frame_size;
  Image out(fs);
  const auto fw = static_cast<double>(fs.width);
  const auto fh = static_cast<double>(fs.height);
  const double c = std::cos(p.angle);
  const double s = std::sin(p.angle);
  // Every pixel is a pure function of (pose, x, y), so the rows band across
  // the shared pool without changing any value.
  par::ThreadPool::shared().parallel_rows(fs.height, 8, [&](i32 y0, i32 y1) {
    for (i32 y = y0; y < y1; ++y) {
      for (i32 x = 0; x < fs.width; ++x) {
        double wx = 0.0;
        double wy = 0.0;
        p.to_world(static_cast<double>(x), static_cast<double>(y), fw, fh, c,
                   s, wx, wy);
        Pixel& px = out.ref(x, y);
        px.y = static_cast<u8>(std::lround(world_luma(wx, wy)));
        // Chroma from separate coarse noise fields (mosaics look plausible).
        px.u = static_cast<u8>(std::lround(
            96.0 + 64.0 * value_noise(wx, wy, params_.seed + 303, 2, 96.0)));
        px.v = static_cast<u8>(std::lround(
            96.0 + 64.0 * value_noise(wx, wy, params_.seed + 404, 2, 120.0)));
      }
    }
  });
  return out;
}

SyntheticSequence::Params paper_sequence_params(PaperSequence which) {
  SyntheticSequence::Params p;
  p.frame_size = formats::kCif;
  switch (which) {
    case PaperSequence::Singapore:
      p.name = "Singapore";
      p.seed = 11;
      p.frame_count = 150;
      p.script = MotionScript{1.8, 0.2, 0.0, 1.0, 0.35};
      break;
    case PaperSequence::Dome:
      p.name = "Dome";
      p.seed = 22;
      p.frame_count = 163;
      p.script = MotionScript{1.1, -0.5, 0.0004, 1.0, 0.4};
      break;
    case PaperSequence::Pisa:
      p.name = "Pisa";
      p.seed = 33;
      p.frame_count = 307;
      p.script = MotionScript{0.4, 1.6, 0.0, 1.0002, 0.45};
      break;
    case PaperSequence::Movie:
      p.name = "Movie";
      p.seed = 44;
      p.frame_count = 135;
      p.script = MotionScript{-1.5, 0.0, 0.0, 1.0, 0.3};
      break;
  }
  return p;
}

std::vector<PaperSequence> all_paper_sequences() {
  return {PaperSequence::Singapore, PaperSequence::Dome, PaperSequence::Pisa,
          PaperSequence::Movie};
}

std::string to_string(PaperSequence which) {
  return paper_sequence_params(which).name;
}

}  // namespace ae::img
