// GME component tests: warping, pyramids, the estimator's motion recovery
// against scripted ground truth, and the mosaic compositor.
#include <gtest/gtest.h>

#include <cmath>

#include "gme/estimator.hpp"
#include "gme/mosaic.hpp"
#include "gme/platform.hpp"
#include "gme/pyramid.hpp"
#include "image/compare.hpp"
#include "image/sequence.hpp"
#include "image/synth.hpp"

namespace ae::gme {
namespace {

img::SyntheticSequence make_sequence(double dx, double dy, int frames = 4,
                                     Size size = Size{160, 128}) {
  img::SyntheticSequence::Params p;
  p.name = "test";
  p.frame_size = size;
  p.frame_count = frames;
  p.seed = 42;
  p.script = img::MotionScript{dx, dy, 0.0, 1.0, 0.0};
  return img::SyntheticSequence(p);
}

TEST(Warp, IntegerShiftIsExact) {
  const img::Image src = img::make_test_frame(Size{32, 24}, 1);
  const img::Image warped = warp_translational(src, Translation{3.0, 2.0});
  // warped(x, y) == src(x+3, y+2) in the interior.
  for (i32 y = 0; y < 20; ++y)
    for (i32 x = 0; x < 28; ++x)
      ASSERT_EQ(warped.at(x, y).y, src.at(x + 3, y + 2).y);
}

TEST(Warp, ZeroShiftIsIdentityOnVideoChannels) {
  const img::Image src = img::make_test_frame(Size{16, 16}, 2);
  const img::Image warped = warp_translational(src, Translation{});
  EXPECT_EQ(img::count_differing(src, warped, ChannelMask::yuv()), 0);
}

TEST(Warp, HalfPixelInterpolates) {
  img::Image src(Size{4, 1});
  src.at(0, 0).y = 0;
  src.at(1, 0).y = 100;
  src.at(2, 0).y = 200;
  const img::Image warped = warp_translational(src, Translation{0.5, 0.0});
  EXPECT_EQ(warped.at(0, 0).y, 50);
  EXPECT_EQ(warped.at(1, 0).y, 150);
}

TEST(Warp, BorderReplicates) {
  img::Image src(Size{4, 4}, img::Pixel::gray(7));
  const img::Image warped = warp_translational(src, Translation{100.0, 0.0});
  EXPECT_EQ(warped.at(0, 0).y, 7);
}

// The definition the banded warp must reproduce bit for bit: bilinear Y/U/V
// over border-clamped taps, side channels copied from the top-left tap.
img::Image reference_warp(const img::Image& src, Translation t) {
  img::Image out(src.size());
  for (i32 y = 0; y < src.height(); ++y)
    for (i32 x = 0; x < src.width(); ++x) {
      const double sx = x + t.dx;
      const double sy = y + t.dy;
      const double fx = std::floor(sx);
      const double fy = std::floor(sy);
      const auto x0 = static_cast<i32>(fx);
      const auto y0 = static_cast<i32>(fy);
      const double wx = sx - fx;
      const double wy = sy - fy;
      const img::Pixel& p00 = src.clamped(x0, y0);
      const img::Pixel& p10 = src.clamped(x0 + 1, y0);
      const img::Pixel& p01 = src.clamped(x0, y0 + 1);
      const img::Pixel& p11 = src.clamped(x0 + 1, y0 + 1);
      const auto lerp2 = [&](u8 a, u8 b, u8 c, u8 d) {
        const double top = a + (b - a) * wx;
        const double bot = c + (d - c) * wx;
        return static_cast<u8>(std::lround(top + (bot - top) * wy));
      };
      img::Pixel& o = out.ref(x, y);
      o.y = lerp2(p00.y, p10.y, p01.y, p11.y);
      o.u = lerp2(p00.u, p10.u, p01.u, p11.u);
      o.v = lerp2(p00.v, p10.v, p01.v, p11.v);
      o.alfa = p00.alfa;
      o.aux = p00.aux;
    }
  return out;
}

TEST(Warp, MatchesClampedPerPixelReference) {
  // 37 rows: not a multiple of the warp's 16-row bands.
  const img::Image src = img::make_test_frame(Size{53, 37}, 9);
  const Translation shifts[] = {
      {0.0, 0.0},     {-3.25, 1.75},  {0.5, -0.5},   {-0.5, 0.5},
      {2.5, -7.5},    {60.3, 0.0},    {-70.0, -45.25}, {0.0, 41.5},
      {1e-9, -0.999}, {-12.0, 3.0},   {53.0, -37.0}};
  for (const Translation t : shifts) {
    SCOPED_TRACE(to_string(t));
    EXPECT_EQ(warp_translational(src, t), reference_warp(src, t));
  }
}

TEST(Decimate, AveragesQuads) {
  img::Image src(Size{4, 2});
  src.at(0, 0).y = 10;
  src.at(1, 0).y = 20;
  src.at(0, 1).y = 30;
  src.at(1, 1).y = 40;
  const img::Image half = decimate2(src);
  EXPECT_EQ(half.size(), (Size{2, 1}));
  EXPECT_EQ(half.at(0, 0).y, 25);
}

TEST(Decimate, RejectsTooSmall) {
  EXPECT_THROW(decimate2(img::Image(Size{1, 4})), InvalidArgument);
}

TEST(PyramidTest, LevelsHalveAndCountCalls) {
  alib::SoftwareBackend be;
  const img::Image frame = img::make_test_frame(Size{128, 64}, 3);
  u64 hl = 0;
  const Pyramid pyr = build_pyramid(be, frame, 3, &hl);
  ASSERT_EQ(pyr.level_count(), 3);
  EXPECT_EQ(pyr.level(1).size(), (Size{64, 32}));
  EXPECT_EQ(pyr.level(2).size(), (Size{32, 16}));
  EXPECT_GT(hl, 0u);
}

TEST(PyramidTest, StopsBeforeDegenerateLevels) {
  alib::SoftwareBackend be;
  const img::Image frame = img::make_test_frame(Size{32, 20}, 3);
  const Pyramid pyr = build_pyramid(be, frame, 6);
  EXPECT_LT(pyr.level_count(), 6);
  EXPECT_GE(pyr.levels.back().height(), 8);
}

TEST(Estimator, RecoversScriptedTranslation) {
  const auto seq = make_sequence(2.0, -1.5);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult r = est.estimate(ref, cur);
  // Estimated motion should negate the camera pan (see table3.cpp).
  EXPECT_NEAR(r.motion.dx, -2.0, 0.35);
  EXPECT_NEAR(r.motion.dy, 1.5, 0.35);
  EXPECT_GT(r.iterations, 0);
}

TEST(Estimator, LargeMotionNeedsThePyramid) {
  const auto seq = make_sequence(9.0, 0.0);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult r = est.estimate(ref, cur);
  EXPECT_NEAR(r.motion.dx, -9.0, 1.0);
}

TEST(Estimator, WarmStartConverges) {
  const auto seq = make_sequence(3.0, 3.0);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult cold = est.estimate(ref, cur);
  const GmeResult warm = est.estimate(ref, cur, cold.motion);
  EXPECT_LE(std::abs(warm.motion.dx - cold.motion.dx), 0.5);
}

TEST(Estimator, StaticSceneGivesZeroMotion) {
  const auto seq = make_sequence(0.0, 0.0);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult r = est.estimate(ref, cur);
  EXPECT_LT(r.motion.magnitude(), 0.1);
}

TEST(Estimator, ParamsValidated) {
  alib::SoftwareBackend be;
  GmeParams bad;
  bad.pyramid_levels = 0;
  EXPECT_THROW(GmeEstimator(be, bad), InvalidArgument);
  bad = GmeParams{};
  bad.robust_threshold = 0;
  EXPECT_THROW(GmeEstimator(be, bad), InvalidArgument);
}

TEST(Estimator, MismatchedPyramidsRejected) {
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid deep = build_pyramid(be, img::make_test_frame({64, 64}, 1), 3);
  const Pyramid flat = build_pyramid(be, img::make_test_frame({64, 64}, 1), 2);
  EXPECT_THROW(est.estimate(deep, flat), InvalidArgument);
}

TEST(MosaicTest, SingleFrameRoundTrip) {
  const img::Image f = img::make_test_frame(Size{32, 24}, 5);
  Mosaic m(Size{40, 30}, Point{4, 3});
  m.add_frame(f, Translation{});
  const img::Image out = m.render();
  EXPECT_EQ(out.at(4 + 10, 3 + 10).y, f.at(10, 10).y);
  EXPECT_EQ(out.at(0, 0).y, 128);  // uncovered = mid gray
  EXPECT_NEAR(m.coverage(), 32.0 * 24 / (40.0 * 30), 1e-9);
}

TEST(MosaicTest, OverlappingFramesAverage) {
  img::Image bright(Size{8, 8}, img::Pixel::gray(200));
  img::Image dark(Size{8, 8}, img::Pixel::gray(100));
  Mosaic m(Size{8, 8}, Point{0, 0});
  m.add_frame(bright, Translation{});
  m.add_frame(dark, Translation{});
  EXPECT_EQ(m.render().at(4, 4).y, 150);
  EXPECT_EQ(m.frames_added(), 2);
}

TEST(MosaicTest, PlacementShiftsContent) {
  img::Image f(Size{4, 4}, img::Pixel::gray(42));
  Mosaic m(Size{16, 16}, Point{0, 0});
  m.add_frame(f, Translation{10.0, 10.0});
  EXPECT_EQ(m.render().at(11, 11).y, 42);
  EXPECT_EQ(m.render().at(2, 2).y, 128);
}

TEST(MosaicTest, RequiredCanvasCoversSweep) {
  std::vector<Translation> motions{{0, 0}, {20, 0}, {40, -10}};
  Point origin{};
  const Size canvas = Mosaic::required_canvas(Size{32, 24}, motions, origin, 2);
  EXPECT_GE(canvas.width, 32 + 40 + 4);
  EXPECT_GE(canvas.height, 24 + 10 + 4);
  EXPECT_GE(origin.y, 10);
}

TEST(DualPlatform, CountsCallsByMode) {
  DualPlatformBackend be;
  const img::Image a = img::make_test_frame(Size{32, 32}, 1);
  const img::Image b = img::make_test_frame(Size{32, 32}, 2);
  be.execute(alib::Call::make_inter(alib::PixelOp::AbsDiff), a, &b);
  be.execute(alib::Call::make_intra(alib::PixelOp::MorphGradient,
                                    alib::Neighborhood::con8()),
             a);
  EXPECT_EQ(be.inter_calls(), 1);
  EXPECT_EQ(be.intra_calls(), 1);
  EXPECT_GT(be.software_platform_seconds(), 0.0);
  EXPECT_GT(be.engine_platform_seconds(), 0.0);
}

TEST(DualPlatform, SegmentCallsArePricedFromTheExactTraversal) {
  // The board price of a segment call depends on the criterion tests the
  // traversal performed; the dual-platform account must read the exact
  // count, not the connectivity bound, so it agrees with the engine's own
  // analytic mode to the cycle.
  const img::Image a = img::make_test_frame(Size{48, 32}, 3);
  alib::SegmentSpec spec;
  spec.seeds = {{5, 5}, {30, 20}};
  spec.luma_threshold = 24;
  spec.connectivity = alib::Connectivity::Eight;
  const alib::Call call = alib::Call::make_segment(
      alib::PixelOp::Copy, alib::Neighborhood::con0(), spec,
      ChannelMask::y(), ChannelMask::y().with(Channel::Alfa));
  DualPlatformBackend dual;
  core::EngineBackend engine({}, core::EngineMode::Analytic);
  const alib::CallResult d = dual.execute(call, a);
  const alib::CallResult e = engine.execute(call, a);
  ASSERT_EQ(dual.segment_calls(), 1);
  EXPECT_EQ(d.stats.criterion_tests, e.stats.criterion_tests);
  // The bound is loose on this frame, so the old estimate would differ.
  EXPECT_LT(e.stats.criterion_tests, e.stats.pixels * 8);
  EXPECT_EQ(dual.engine_board_seconds(), e.stats.model_seconds);
}

TEST(DualPlatform, HighLevelPricedOnBothCpus) {
  DualPlatformBackend be;
  const double sw0 = be.software_platform_seconds();
  const double hw0 = be.engine_platform_seconds();
  be.add_high_level(1'000'000'000);
  EXPECT_GT(be.software_platform_seconds(), sw0);
  EXPECT_GT(be.engine_platform_seconds(), hw0);
  // The P4 3 GHz host prices the same instructions cheaper than the PM.
  EXPECT_LT(be.engine_platform_seconds() - hw0,
            be.software_platform_seconds() - sw0);
}

TEST(MotionStrings, ToString) {
  EXPECT_NE(to_string(Translation{1.5, -2.0}).find("dx=1.5"),
            std::string::npos);
}

}  // namespace
}  // namespace ae::gme
