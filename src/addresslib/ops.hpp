// Pixel-level sub-operations (paper section 2.2).
//
// "Pixel-level operations may be separated into basic sub-functions, such as
// add, sub, mult, grad, in order to achieve efficiency and flexibility."
// These kernels are the single source of truth for the arithmetic: both the
// software backend and the engine simulator's process-unit stage 3 call the
// very same functions, which is what makes software/hardware output
// equivalence testable bit-exactly (and is faithful to the project: the
// FPGA implemented the same arithmetic the AddressLib defined).
//
// Kernels are templated on a pixel `Source` with
//     img::Pixel at(Point offset) const;
// so they run identically against a software image window and against the
// engine's matrix register.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "addresslib/addressing.hpp"
#include "common/types.hpp"
#include "image/pixel.hpp"

namespace ae::alib {

/// Operation selector.  The set mirrors the paper's examples: arithmetic
/// sub-functions, gradient/morphological operators, FIR-like filters,
/// histogram, SAD and the homogeneity check used for segmentation.
enum class PixelOp : u8 {
  // -- inter (two-frame) ops ------------------------------------------------
  Copy,      ///< out = a (also valid intra: out = center)
  Add,       ///< out = a + b, clamped
  Sub,       ///< out = a - b, clamped
  AbsDiff,   ///< out = |a - b| (difference pictures)
  Mult,      ///< out = (a * b) >> shift, clamped
  Min,       ///< out = min(a, b)
  Max,       ///< out = max(a, b)
  Average,   ///< out = (a + b + 1) / 2
  Sad,       ///< out = |a - b|; side accumulator sums masked video channels
  DiffMask,  ///< out.channel = |a-b| > threshold ? 255(ch max) : 0
  BitAnd,    ///< out = a & b (mask intersection)
  BitOr,     ///< out = a | b (mask union)
  BitXor,    ///< out = a ^ b (mask difference)
  // -- intra (neighborhood) ops ---------------------------------------------
  Convolve,      ///< FIR: (sum coeffs[i]*px[i] + bias) >> shift, clamped
  GradientX,     ///< Sobel x magnitude |gx|, clamped
  GradientY,     ///< Sobel y magnitude |gy|, clamped
  GradientMag,   ///< (|gx| + |gy|) / 2 — hardware-friendly L1 gradient
  MorphGradient, ///< max - min over the neighborhood
  Erode,         ///< min over the neighborhood
  Dilate,        ///< max over the neighborhood
  Median,        ///< median over the neighborhood
  Threshold,     ///< out = center > threshold ? ch-max : 0
  Scale,         ///< out = (center * scale_num) >> shift + bias, clamped
  Homogeneity,   ///< Aux = max channel distance center/neighbors; Alfa = 0/1
  Histogram,     ///< out = center; side accumulator histograms center Y
  GradientPack,  ///< Alfa = gx + kGradBias, Aux = gy + kGradBias (Sobel on Y)
  TableLookup,   ///< Alfa = params.table[Alfa] — segment-indexed addressing
                 ///< in its per-pixel form (id translation / relabeling)
  // -- inter, continued -------------------------------------------------------
  GmeAccum,      ///< global-motion normal equations via the side port:
                 ///< r = a.y - b.y, gradients from b.Alfa/b.Aux; robust
                 ///< cutoff at params.threshold; out.y = |r|
  GmeAccumAffine,  ///< 6-parameter affine normal equations (needs the pixel
                   ///< position, which stage 1 supplies); same inputs and
                   ///< robust cutoff as GmeAccum
  GmePerspective,  ///< 8-parameter perspective normal equations (the XM's
                   ///< model class); the call carries the current warp in
                   ///< params.warp_params, the Jacobian is evaluated per
                   ///< pixel, sums accumulate in binary64 (a v2 coprocessor
                   ///< would carry wide fixed point)
};

/// Bias that keeps packed signed gradients inside the unsigned 16-bit side
/// channels (GradientPack/GmeAccum contract).
inline constexpr i32 kGradBias = 0x8000;

std::string to_string(PixelOp op);

/// True if the op consumes two input frames (inter addressing).
bool is_inter_op(PixelOp op);
/// True if the op consumes one frame plus a neighborhood (intra/segment).
bool is_intra_op(PixelOp op);

/// Numeric parameters of an operation.
struct OpParams {
  /// Convolution coefficients, one per neighborhood offset, in the
  /// neighborhood's canonical (dy, dx) order.
  std::vector<i32> coeffs;
  /// TableLookup translation table, indexed by the Alfa channel; ids at or
  /// beyond the table size pass through unchanged.
  std::vector<u16> table;
  /// GmePerspective: the current warp [a0..a5, c0, c1] the Jacobian is
  /// evaluated at (the op is statically configured per call, like every
  /// engine operation).
  std::vector<double> warp_params;
  i32 shift = 0;      ///< arithmetic right-shift applied to products/sums
  i32 bias = 0;       ///< added after shifting
  i32 threshold = 0;  ///< Threshold / DiffMask / Homogeneity parameter
  i32 scale_num = 1;  ///< Scale numerator
  img::Pixel border_constant;  ///< used with BorderPolicy::Constant
};

/// Number of affine accumulator slots: the upper triangle of the symmetric
/// 6x6 normal matrix (21), the right-hand side (6) and the inlier count.
inline constexpr std::size_t kAffineAccumTerms = 21 + 6 + 1;

/// Perspective accumulator slots: upper triangle of 8x8 (36), the
/// right-hand side (8) and the inlier count.
inline constexpr std::size_t kPerspectiveAccumTerms = 36 + 8 + 1;

/// Scalar side results accumulated across a whole call (SAD sums and
/// histograms do not fit the one-pixel-out dataflow and are returned via the
/// segment-indexed-style side port).
struct SideAccum {
  u64 sad = 0;
  std::array<u64, 256> histogram{};
  /// GmeAccum normal-equation sums: gxx, gxy, gyy, gxr, gyr, inlier count.
  std::array<i64, 6> gme{};
  /// GmeAccumAffine sums: A upper triangle row-major (a00,a01,...,a55),
  /// then b0..b5, then the inlier count.
  std::array<i64, kAffineAccumTerms> gme_affine{};
  /// GmePerspective sums in binary64: 8x8 upper triangle, b0..b7, inliers.
  std::array<double, kPerspectiveAccumTerms> gme_persp{};

  void merge(const SideAccum& other) {
    sad += other.sad;
    for (std::size_t i = 0; i < histogram.size(); ++i)
      histogram[i] += other.histogram[i];
    for (std::size_t i = 0; i < gme.size(); ++i) gme[i] += other.gme[i];
    for (std::size_t i = 0; i < gme_affine.size(); ++i)
      gme_affine[i] += other.gme_affine[i];
    for (std::size_t i = 0; i < gme_persp.size(); ++i)
      gme_persp[i] += other.gme_persp[i];
  }
};

/// One pointwise stage folded onto a producing call (aeopt fusion).  A stage
/// is an intra op with a degenerate CON_0 neighborhood, applied to the
/// producing call's intermediate result pixel before that pixel is stored —
/// exactly the value a separate pointwise consumer call would have read back
/// from the result banks, which is what makes fusion bit-exact by
/// construction.  Only ops whose CON_0 form depends on nothing but the
/// center pixel are legal stages (validate_fused_stage).
struct FusedStage {
  PixelOp op = PixelOp::Copy;
  OpParams params;
  ChannelMask in = ChannelMask::y();
  ChannelMask out = ChannelMask::y();
};

inline bool operator==(const FusedStage& a, const FusedStage& b) {
  return a.op == b.op && a.in == b.in && a.out == b.out &&
         a.params.coeffs == b.params.coeffs && a.params.table == b.params.table &&
         a.params.shift == b.params.shift && a.params.bias == b.params.bias &&
         a.params.threshold == b.params.threshold &&
         a.params.scale_num == b.params.scale_num;
}

/// Applies the fused pointwise stages, in order, to an intermediate result
/// pixel.  Each stage sees the previous stage's output as its center pixel
/// (the same value the unfused program would have stored and read back).
img::Pixel apply_fused(const std::vector<FusedStage>& stages, img::Pixel px,
                       SideAccum& side);

/// Throws InvalidArgument unless `stage` is a legal pointwise stage: an
/// intra op valid on a CON_0 neighborhood with the stage's masks.
void validate_fused_stage(const FusedStage& stage);

namespace detail {

/// Per-channel binary arithmetic shared by the inter kernels.  Inline (and
/// written against a compile-time-foldable `op`) so the interpreter and the
/// specialized row kernels of kernels/ execute literally the same
/// expressions — bit-exactness between the two backends is structural, not
/// coincidental.
inline i64 inter_channel_value(PixelOp op, const OpParams& params, Channel c,
                               i64 a, i64 b) {
  switch (op) {
    case PixelOp::Copy:
      return a;
    case PixelOp::Add:
      return a + b;
    case PixelOp::Sub:
      return a - b;
    case PixelOp::AbsDiff:
    case PixelOp::Sad:
      return a > b ? a - b : b - a;
    case PixelOp::Mult:
      return (a * b) >> params.shift;
    case PixelOp::Min:
      return a < b ? a : b;
    case PixelOp::Max:
      return a > b ? a : b;
    case PixelOp::Average:
      return (a + b + 1) / 2;
    case PixelOp::DiffMask: {
      const i64 d = a > b ? a - b : b - a;
      return d > params.threshold
                 ? (img::channel_bits(c) == 8 ? 255 : 0xFFFF)
                 : 0;
    }
    case PixelOp::BitAnd:
      return a & b;
    case PixelOp::BitOr:
      return a | b;
    case PixelOp::BitXor:
      return a ^ b;
    default:
      AE_ASSERT(false, "inter_channel_value called with a non-inter op");
  }
  return 0;
}

/// GmeAccum on one pixel pair, shared by the interpreter and the GmeAccum
/// row kernel like inter_channel_value: the residual r = a.y - b.y votes
/// into `gme` (gxx, gxy, gyy, gxr, gyr, inliers; gradients unpacked from
/// b's GradientPack planes) when |r| is within the robust cutoff, |r| is
/// added to `sad`, and |r| is returned (the value stored to Y).  Every sum
/// is integer, so per-row and per-band partial sums merge bit-exactly.
inline i64 gme_accum_pixel(const OpParams& params, img::Pixel a, img::Pixel b,
                           std::array<i64, 6>& gme, u64& sad) {
  const i64 r = static_cast<i64>(a.y) - b.y;
  const i64 abs_r = r < 0 ? -r : r;
  if (abs_r <= params.threshold) {  // robust cutoff: outliers don't vote
    const i64 gx = static_cast<i64>(b.alfa) - kGradBias;
    const i64 gy = static_cast<i64>(b.aux) - kGradBias;
    gme[0] += gx * gx;
    gme[1] += gx * gy;
    gme[2] += gy * gy;
    gme[3] += gx * r;
    gme[4] += gy * r;
    gme[5] += 1;
  }
  sad += static_cast<u64>(abs_r);
  return abs_r;
}

}  // namespace detail

/// Applies an inter op at image position `pos` (stage 1's scan counters;
/// only position-dependent ops such as GmeAccumAffine consume it).
/// Channels outside `out` are passed through from `a`.
img::Pixel apply_inter(PixelOp op, const OpParams& params, img::Pixel a,
                       img::Pixel b, Point pos, ChannelMask in,
                       ChannelMask out, SideAccum& side);

/// Applies an intra op on a neighborhood window.  `Source::at(offset)`
/// returns the (border-resolved) pixel at the given offset from the center.
/// Channels outside `out` are passed through from the center pixel.
template <typename Source>
img::Pixel apply_intra(PixelOp op, const OpParams& params,
                       const Neighborhood& nbhd, const Source& src,
                       ChannelMask in, ChannelMask out, SideAccum& side);

/// Estimated datapath operation count of one kernel application; feeds the
/// instruction-profile model (see profiling/).
i64 op_datapath_cost(PixelOp op, const Neighborhood& nbhd, ChannelMask out);

/// Throws InvalidArgument unless the op/params/neighborhood combination is
/// well-formed (coeff arity, mode match, shift range, ...).
void validate_op(PixelOp op, const OpParams& params, const Neighborhood* nbhd,
                 ChannelMask in, ChannelMask out);

// ---------------------------------------------------------------------------
// template implementation
// ---------------------------------------------------------------------------

namespace detail {

template <typename Source>
i64 channel_sum_abs_sobel(const Source& src, Channel c, bool horizontal) {
  // 3x3 Sobel taps; defined on the clamped window regardless of the
  // neighborhood shape (gradient ops require CON_8, enforced by validate_op).
  static constexpr std::array<std::array<i32, 3>, 3> kSobel{
      {{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}}};
  i64 acc = 0;
  for (i32 dy = -1; dy <= 1; ++dy)
    for (i32 dx = -1; dx <= 1; ++dx) {
      const i32 coeff = horizontal
                            ? kSobel[static_cast<std::size_t>(dy + 1)]
                                    [static_cast<std::size_t>(dx + 1)]
                            : kSobel[static_cast<std::size_t>(dx + 1)]
                                    [static_cast<std::size_t>(dy + 1)];
      acc += static_cast<i64>(coeff) *
             src.at(Point{dx, dy}).get(c);
    }
  return acc < 0 ? -acc : acc;
}

}  // namespace detail

template <typename Source>
img::Pixel apply_intra(PixelOp op, const OpParams& params,
                       const Neighborhood& nbhd, const Source& src,
                       ChannelMask in, ChannelMask out, SideAccum& side) {
  (void)in;
  const img::Pixel center = src.at(Point{0, 0});
  img::Pixel result = center;
  const auto& offsets = nbhd.offsets();

  auto for_each_out = [&](auto&& fn) {
    for (int ci = 0; ci < kChannelCount; ++ci) {
      const auto c = static_cast<Channel>(ci);
      if (out.contains(c)) fn(c);
    }
  };

  switch (op) {
    case PixelOp::Copy:
      break;
    case PixelOp::Convolve:
      for_each_out([&](Channel c) {
        i64 acc = 0;
        for (std::size_t i = 0; i < offsets.size(); ++i)
          acc += static_cast<i64>(params.coeffs[i]) *
                 src.at(offsets[i]).get(c);
        acc >>= params.shift;
        acc += params.bias;
        result.set(c, img::clamp_channel(c, acc));
      });
      break;
    case PixelOp::GradientX:
      for_each_out([&](Channel c) {
        const i64 g = detail::channel_sum_abs_sobel(src, c, true) >>
                      params.shift;
        result.set(c, img::clamp_channel(c, g));
      });
      break;
    case PixelOp::GradientY:
      for_each_out([&](Channel c) {
        const i64 g = detail::channel_sum_abs_sobel(src, c, false) >>
                      params.shift;
        result.set(c, img::clamp_channel(c, g));
      });
      break;
    case PixelOp::GradientMag:
      for_each_out([&](Channel c) {
        const i64 gx = detail::channel_sum_abs_sobel(src, c, true);
        const i64 gy = detail::channel_sum_abs_sobel(src, c, false);
        result.set(c, img::clamp_channel(c, ((gx + gy) / 2) >> params.shift));
      });
      break;
    case PixelOp::MorphGradient:
      for_each_out([&](Channel c) {
        i64 lo = src.at(offsets[0]).get(c);
        i64 hi = lo;
        for (const Point o : offsets) {
          const i64 v = src.at(o).get(c);
          lo = v < lo ? v : lo;
          hi = v > hi ? v : hi;
        }
        result.set(c, img::clamp_channel(c, hi - lo));
      });
      break;
    case PixelOp::Erode:
      for_each_out([&](Channel c) {
        i64 lo = src.at(offsets[0]).get(c);
        for (const Point o : offsets) {
          const i64 v = src.at(o).get(c);
          lo = v < lo ? v : lo;
        }
        result.set(c, static_cast<u16>(lo));
      });
      break;
    case PixelOp::Dilate:
      for_each_out([&](Channel c) {
        i64 hi = src.at(offsets[0]).get(c);
        for (const Point o : offsets) {
          const i64 v = src.at(o).get(c);
          hi = v > hi ? v : hi;
        }
        result.set(c, static_cast<u16>(hi));
      });
      break;
    case PixelOp::Median:
      for_each_out([&](Channel c) {
        std::array<u16, kMaxNeighborhoodLines * kMaxNeighborhoodLines> buf{};
        for (std::size_t i = 0; i < offsets.size(); ++i)
          buf[i] = src.at(offsets[i]).get(c);
        const auto mid = buf.begin() + static_cast<i64>(offsets.size() / 2);
        std::nth_element(buf.begin(), mid, buf.begin() +
                                               static_cast<i64>(offsets.size()));
        result.set(c, *mid);
      });
      break;
    case PixelOp::Threshold:
      for_each_out([&](Channel c) {
        const u16 maxv = img::channel_bits(c) == 8 ? 255 : 0xFFFF;
        result.set(c, center.get(c) > params.threshold ? maxv : 0);
      });
      break;
    case PixelOp::Scale:
      for_each_out([&](Channel c) {
        const i64 v =
            ((static_cast<i64>(center.get(c)) * params.scale_num) >>
             params.shift) +
            params.bias;
        result.set(c, img::clamp_channel(c, v));
      });
      break;
    case PixelOp::Homogeneity: {
      // Max luma/chroma distance between the center and its neighbors — the
      // paper's "luminance/chrominance difference between neighboring pixels
      // for homogeneity check".  Aux gets the distance, Alfa the verdict.
      i64 max_diff = 0;
      for (const Point o : offsets) {
        if (o == Point{0, 0}) continue;
        const img::Pixel n = src.at(o);
        const i64 dy_ = std::abs(static_cast<i64>(n.y) - center.y);
        const i64 du = std::abs(static_cast<i64>(n.u) - center.u);
        const i64 dv = std::abs(static_cast<i64>(n.v) - center.v);
        const i64 d = dy_ > du ? (dy_ > dv ? dy_ : dv) : (du > dv ? du : dv);
        max_diff = d > max_diff ? d : max_diff;
      }
      result.aux = img::clamp_u16(max_diff);
      result.alfa = max_diff <= params.threshold ? 1 : 0;
      break;
    }
    case PixelOp::Histogram:
      side.histogram[center.y] += 1;
      break;
    case PixelOp::TableLookup:
      // Segment-indexed addressing: one indexed-table read per pixel.
      if (center.alfa < params.table.size())
        result.alfa = params.table[center.alfa];
      break;
    case PixelOp::GradientPack: {
      // Signed Sobel gradients of Y, biased into the 16-bit side channels
      // for consumption by a following GmeAccum inter call.
      static constexpr std::array<std::array<i32, 3>, 3> kSobel{
          {{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}}};
      i64 gx = 0;
      i64 gy = 0;
      for (i32 dy = -1; dy <= 1; ++dy)
        for (i32 dx = -1; dx <= 1; ++dx) {
          const i64 v = src.at(Point{dx, dy}).y;
          gx += kSobel[static_cast<std::size_t>(dy + 1)]
                      [static_cast<std::size_t>(dx + 1)] *
                v;
          gy += kSobel[static_cast<std::size_t>(dx + 1)]
                      [static_cast<std::size_t>(dy + 1)] *
                v;
        }
      result.alfa = img::clamp_u16(gx + kGradBias);
      result.aux = img::clamp_u16(gy + kGradBias);
      break;
    }
    default:
      AE_ASSERT(false, "apply_intra called with a non-intra op");
  }
  return result;
}

}  // namespace ae::alib
