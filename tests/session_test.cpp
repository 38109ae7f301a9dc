// EngineSession (smart-driver what-if) tests: frame residency, side-only
// readback elision, and the invariant that only timing changes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "addresslib/functional.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "image/synth.hpp"
#include "test_util.hpp"

namespace ae::core {
namespace {

alib::Call gradpack() {
  return alib::Call::make_intra(
      alib::PixelOp::GradientPack, alib::Neighborhood::con8(),
      ChannelMask::y(), ChannelMask::alfa().with(Channel::Aux));
}

alib::Call gme_accum() {
  alib::OpParams p;
  p.threshold = 64;
  return alib::Call::make_inter(alib::PixelOp::GmeAccum, ChannelMask::y(),
                                ChannelMask::y(), p);
}

TEST(Session, SideOnlyOpsClassified) {
  EXPECT_TRUE(is_side_only_op(alib::PixelOp::Sad));
  EXPECT_TRUE(is_side_only_op(alib::PixelOp::Histogram));
  EXPECT_TRUE(is_side_only_op(alib::PixelOp::GmeAccumAffine));
  EXPECT_FALSE(is_side_only_op(alib::PixelOp::AbsDiff));
  EXPECT_FALSE(is_side_only_op(alib::PixelOp::Erode));
}

TEST(Session, FunctionalResultsUnchanged) {
  EngineSession session;
  EngineBackend plain({}, EngineMode::Analytic);
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  const alib::Call call = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  test::expect_images_equal(session.execute(call, a, &b).output,
                            plain.execute(call, a, &b).output);
}

TEST(Session, RepeatedInputSkipsTransfer) {
  EngineSession session;
  const img::Image a = test::small_frame();
  const alib::Call call = alib::Call::make_intra(
      alib::PixelOp::MorphGradient, alib::Neighborhood::con8());
  const u64 first = session.execute(call, a).stats.cycles;
  const u64 second = session.execute(call, a).stats.cycles;
  EXPECT_LT(second, first);
  EXPECT_EQ(session.stats().inputs_transferred, 1);
  EXPECT_EQ(session.stats().inputs_reused, 1);
}

TEST(Session, ResultFeedsNextCallViaBoardCopy) {
  EngineSession session;
  const img::Image ref = test::small_frame(1);
  const img::Image warped = test::small_frame(2);
  // GradientPack produces packed; GmeAccum consumes it as frame B.
  const alib::CallResult packed = session.execute(gradpack(), warped);
  session.execute(gme_accum(), ref, &packed.output);
  EXPECT_EQ(session.stats().board_copies, 1);
  // warped + ref were transferred; packed was relocated on board.
  EXPECT_EQ(session.stats().inputs_transferred, 2);
  EXPECT_EQ(session.stats().inputs_reused, 1);
}

TEST(Session, SideOnlyReadbackElided) {
  EngineSession session;
  const img::Image a = test::small_frame(1);
  const img::Image b = test::small_frame(2);
  session.execute(gme_accum(), a, &b);
  EXPECT_EQ(session.stats().outputs_elided, 1);
  session.execute(alib::Call::make_inter(alib::PixelOp::AbsDiff), a, &b);
  EXPECT_EQ(session.stats().outputs_read_back, 1);
}

TEST(Session, OptionsDisableOptimizations) {
  SessionOptions off;
  off.skip_side_only_readback = false;
  EngineSession session({}, off);
  const img::Image a = test::small_frame(1);
  const img::Image b = test::small_frame(2);
  session.execute(gme_accum(), a, &b);
  EXPECT_EQ(session.stats().outputs_elided, 0);
  EXPECT_EQ(session.stats().outputs_read_back, 1);
}

TEST(Session, InvalidateForgetsResidency) {
  EngineSession session;
  const img::Image a = test::small_frame();
  const alib::Call call = alib::Call::make_intra(
      alib::PixelOp::Erode, alib::Neighborhood::con4());
  session.execute(call, a);
  session.invalidate();
  session.execute(call, a);
  EXPECT_EQ(session.stats().inputs_transferred, 2);
  EXPECT_EQ(session.stats().inputs_reused, 0);
}

TEST(Session, GmeIterationTrafficShrinks) {
  // The canonical GME inner loop on the session vs. the plain driver: the
  // per-iteration board time must drop substantially.  CIF frames — on
  // tiny frames the per-call driver overhead dominates and residency
  // cannot help (that is itself part of the story).
  const img::Image ref = img::make_test_frame(img::formats::kCif, 1);
  EngineSession session;
  EngineBackend plain({}, EngineMode::Analytic);
  u64 session_cycles = 0;
  u64 plain_cycles = 0;
  for (int it = 0; it < 4; ++it) {
    const img::Image warped =
        img::make_test_frame(img::formats::kCif, 10 + static_cast<u64>(it));
    const alib::CallResult p1 = session.execute(gradpack(), warped);
    session_cycles += p1.stats.cycles;
    session_cycles += session.execute(gme_accum(), ref, &p1.output).stats.cycles;
    const alib::CallResult p2 = plain.execute(gradpack(), warped);
    plain_cycles += p2.stats.cycles;
    plain_cycles += plain.execute(gme_accum(), ref, &p2.output).stats.cycles;
  }
  EXPECT_LT(session_cycles, plain_cycles * 7 / 10);
}

TEST(Session, NameSaysSession) {
  EXPECT_NE(EngineSession().name().find("session"), std::string::npos);
}

TEST(Session, CorpusCyclesMatchTheInterpreterTraversal) {
  // Both engine paths compute pixels with the kernel backend; the price
  // must still be exactly the analytic model over the interpreter's
  // traversal counts — streamed, segment, and the Gme* calls.
  // Readback elision is off and every call gets a fresh session (nothing
  // resident), so a session call costs what a plain analytic call costs.
  SessionOptions options;
  options.skip_side_only_readback = false;
  EngineBackend analytic({}, EngineMode::Analytic);
  const EngineConfig config;
  Rng rng(0xC0B5u);
  int segment_calls = 0;
  for (int i = 0; i < 160; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    alib::Call call = test::random_any_call(rng, size, needs_b);
    if (i % 8 == 0) {
      alib::OpParams p;
      p.threshold = rng.uniform(0, 96);
      call = alib::Call::make_inter(i % 16 == 0
                                        ? alib::PixelOp::GmeAccum
                                        : alib::PixelOp::GmeAccumAffine,
                                    ChannelMask::y(), ChannelMask::y(), p);
      needs_b = true;
    }
    SCOPED_TRACE("call " + std::to_string(i));
    const img::Image a = img::make_test_frame(size, 2 * static_cast<u64>(i));
    const img::Image b =
        img::make_test_frame(size, 2 * static_cast<u64>(i) + 1);
    const img::Image* pb = needs_b ? &b : nullptr;

    alib::SegmentRunInfo seg;
    const alib::CallResult ref = alib::execute_functional(call, a, pb, seg);
    const u64 expected = analytic_run_stats(config, call, size,
                                            seg.processed_pixels,
                                            seg.criterion_tests)
                             .cycles;
    EngineSession session({}, options);
    const alib::CallResult s = session.execute(call, a, pb);
    const alib::CallResult e = analytic.execute(call, a, pb);
    EXPECT_EQ(s.stats.cycles, expected);
    EXPECT_EQ(e.stats.cycles, expected);
    test::expect_results_equal(ref, s);
    test::expect_results_equal(ref, e);
    if (call.mode == alib::Mode::Segment) ++segment_calls;
  }
  EXPECT_GT(segment_calls, 10);
}

TEST(FrameContentHash, PaddingByteDoesNotChangeTheKey) {
  const img::Image a = img::make_test_frame(Size{37, 23}, 5);
  img::Image b = a;
  // Pixel is y, u, v, then one padding byte before the 16-bit channels.
  static_assert(offsetof(img::Pixel, alfa) == 4);
  for (img::Pixel& p : b.pixels())
    reinterpret_cast<unsigned char*>(&p)[3] = 0xA5;
  EXPECT_EQ(frame_content_hash(a), frame_content_hash(b));
}

TEST(FrameContentHash, TransposedSizeWithTheSamePixelWordsDiffers) {
  const img::Image a = img::make_test_frame(Size{6, 4}, 9);
  img::Image t(Size{4, 6});
  t.pixels() = a.pixels();
  EXPECT_NE(frame_content_hash(a), frame_content_hash(t));
  // Content still matters at equal size: one changed word changes the key.
  img::Image c = a;
  c.pixels().back().aux ^= 1;
  EXPECT_NE(frame_content_hash(a), frame_content_hash(c));
}

TEST(FrameContentHash, KeyIsNeverZero) {
  // 0 marks an empty residency slot.  Degenerate and constant frames of
  // every pixel count up to one full lane round and past it.
  EXPECT_NE(frame_content_hash(img::Image()), 0u);
  for (i32 w = 1; w <= 9; ++w)
    for (const u8 v : {u8{0}, u8{255}}) {
      img::Pixel px;
      px.y = v;
      px.u = v;
      px.v = v;
      EXPECT_NE(frame_content_hash(img::Image(Size{w, 1}, px)), 0u);
    }
  for (u64 seed = 0; seed < 64; ++seed)
    EXPECT_NE(frame_content_hash(img::make_test_frame(Size{16, 16}, seed)),
              0u);
}

}  // namespace
}  // namespace ae::core
