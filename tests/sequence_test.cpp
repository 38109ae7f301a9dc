// Tests for the synthetic sequence generator standing in for the paper's
// MPEG-1 material: determinism, scripted pose bookkeeping, and the basic
// photometric property GME relies on (frame content follows the camera).
#include <gtest/gtest.h>

#include <cmath>

#include "image/compare.hpp"
#include "image/sequence.hpp"
#include "image/synth.hpp"

namespace ae::img {
namespace {

SyntheticSequence::Params tiny_params() {
  SyntheticSequence::Params p;
  p.name = "tiny";
  p.frame_size = Size{96, 64};
  p.frame_count = 8;
  p.seed = 77;
  p.script = MotionScript{2.0, 1.0, 0.0, 1.0, 0.0};
  return p;
}

TEST(Sequence, DeterministicFrames) {
  const SyntheticSequence a(tiny_params());
  const SyntheticSequence b(tiny_params());
  EXPECT_EQ(a.frame(3), b.frame(3));
}

TEST(Sequence, PoseAccumulatesScript) {
  const SyntheticSequence seq(tiny_params());
  const CameraPose p0 = seq.pose(0);
  const CameraPose p5 = seq.pose(5);
  EXPECT_DOUBLE_EQ(p0.center_x, 0.0);
  EXPECT_NEAR(p5.center_x - p0.center_x, 5 * 2.0, 1e-9);
  EXPECT_NEAR(p5.center_y - p0.center_y, 5 * 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(p5.zoom, 1.0);
}

TEST(Sequence, JitterPerturbsButStaysDeterministic) {
  SyntheticSequence::Params p = tiny_params();
  p.script.jitter = 0.5;
  const SyntheticSequence a(p);
  const SyntheticSequence b(p);
  EXPECT_NE(a.pose(5).center_x, 5 * 2.0);  // jitter moved it
  EXPECT_DOUBLE_EQ(a.pose(5).center_x, b.pose(5).center_x);
}

TEST(Sequence, FrameIndexValidated) {
  const SyntheticSequence seq(tiny_params());
  EXPECT_THROW(seq.pose(-1), InvalidArgument);
  EXPECT_THROW(seq.pose(8), InvalidArgument);
  EXPECT_THROW(seq.frame(99), InvalidArgument);
}

TEST(Sequence, BadParamsRejected) {
  SyntheticSequence::Params p = tiny_params();
  p.frame_count = 0;
  EXPECT_THROW(SyntheticSequence{p}, InvalidArgument);
  p = tiny_params();
  p.script.zoom_rate = 0.0;
  EXPECT_THROW(SyntheticSequence{p}, InvalidArgument);
}

TEST(Sequence, PanShiftsContent) {
  // With a pure integer pan, frame t+1 equals frame t translated: compare a
  // central crop.
  SyntheticSequence::Params p = tiny_params();
  p.script = MotionScript{3.0, 0.0, 0.0, 1.0, 0.0};
  const SyntheticSequence seq(p);
  const Image f0 = seq.frame(0);
  const Image f1 = seq.frame(1);
  const Image inner0 = f0.crop(Rect{13, 10, 60, 40});
  const Image inner1 = f1.crop(Rect{10, 10, 60, 40});
  // f1 sampled 3 px to the right of f0: f1(x) == f0(x+3).
  EXPECT_LT(mse_y(inner0, inner1), 2.0);
}

TEST(Sequence, WorldLumaMatchesRenderedFrame) {
  const SyntheticSequence seq(tiny_params());
  const Image f0 = seq.frame(0);
  const CameraPose pose = seq.pose(0);
  double wx = 0.0;
  double wy = 0.0;
  pose.to_world(20, 30, 96, 64, wx, wy);
  EXPECT_EQ(f0.at(20, 30).y, std::lround(seq.world_luma(wx, wy)));
}

TEST(Sequence, FrameMatchesPerPixelDefinition) {
  // Every channel of every pixel is lround of the world fields sampled at
  // to_world(x, y), on scripts that rotate and zoom (the frame hoists the
  // pose's cos/sin, the per-pixel definition does not).  61 rows: not a
  // multiple of the frame's row bands.
  SyntheticSequence::Params p = tiny_params();
  p.frame_size = Size{43, 61};
  for (const MotionScript script :
       {MotionScript{1.5, -0.5, 0.013, 1.004, 0.3},
        MotionScript{-0.7, 2.0, -0.21, 0.97, 0.0}}) {
    p.script = script;
    const SyntheticSequence seq(p);
    for (const int t : {0, 3, 7}) {
      const Image f = seq.frame(t);
      const CameraPose pose = seq.pose(t);
      for (i32 y = 0; y < f.height(); ++y)
        for (i32 x = 0; x < f.width(); ++x) {
          double wx = 0.0;
          double wy = 0.0;
          pose.to_world(x, y, 43, 61, wx, wy);
          const Pixel& px = f.at(x, y);
          ASSERT_EQ(px.y, std::lround(seq.world_luma(wx, wy)))
              << "t=" << t << " at " << x << "," << y;
          ASSERT_EQ(px.u, std::lround(96.0 + 64.0 * value_noise(
                                                        wx, wy, p.seed + 303,
                                                        2, 96.0)))
              << "t=" << t << " at " << x << "," << y;
          ASSERT_EQ(px.v, std::lround(96.0 + 64.0 * value_noise(
                                                        wx, wy, p.seed + 404,
                                                        2, 120.0)))
              << "t=" << t << " at " << x << "," << y;
        }
    }
  }
}

TEST(Sequence, PaperPresetsAreCifAndDistinct) {
  for (const PaperSequence which : all_paper_sequences()) {
    const auto params = paper_sequence_params(which);
    EXPECT_EQ(params.frame_size, formats::kCif);
    EXPECT_GT(params.frame_count, 100);
  }
  // Pisa is roughly twice the others (its paper runtime is ~2x).
  EXPECT_GT(paper_sequence_params(PaperSequence::Pisa).frame_count,
            paper_sequence_params(PaperSequence::Dome).frame_count * 3 / 2);
  EXPECT_EQ(to_string(PaperSequence::Singapore), "Singapore");
}

TEST(Sequence, FramesHaveTexture) {
  // GME needs gradients: the frame must not be flat.
  const SyntheticSequence seq(tiny_params());
  const Image f = seq.frame(0);
  i64 distinct = 0;
  for (i32 x = 1; x < f.width(); ++x)
    if (f.at(x, 32).y != f.at(x - 1, 32).y) ++distinct;
  EXPECT_GT(distinct, f.width() / 4);
}

}  // namespace
}  // namespace ae::img
