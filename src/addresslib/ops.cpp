#include "addresslib/ops.hpp"

#include <cstdlib>

namespace ae::alib {

std::string to_string(PixelOp op) {
  switch (op) {
    case PixelOp::Copy: return "Copy";
    case PixelOp::Add: return "Add";
    case PixelOp::Sub: return "Sub";
    case PixelOp::AbsDiff: return "AbsDiff";
    case PixelOp::Mult: return "Mult";
    case PixelOp::Min: return "Min";
    case PixelOp::Max: return "Max";
    case PixelOp::Average: return "Average";
    case PixelOp::Sad: return "Sad";
    case PixelOp::DiffMask: return "DiffMask";
    case PixelOp::BitAnd: return "BitAnd";
    case PixelOp::BitOr: return "BitOr";
    case PixelOp::BitXor: return "BitXor";
    case PixelOp::Convolve: return "Convolve";
    case PixelOp::GradientX: return "GradientX";
    case PixelOp::GradientY: return "GradientY";
    case PixelOp::GradientMag: return "GradientMag";
    case PixelOp::MorphGradient: return "MorphGradient";
    case PixelOp::Erode: return "Erode";
    case PixelOp::Dilate: return "Dilate";
    case PixelOp::Median: return "Median";
    case PixelOp::Threshold: return "Threshold";
    case PixelOp::Scale: return "Scale";
    case PixelOp::Homogeneity: return "Homogeneity";
    case PixelOp::Histogram: return "Histogram";
    case PixelOp::GradientPack: return "GradientPack";
    case PixelOp::TableLookup: return "TableLookup";
    case PixelOp::GmeAccum: return "GmeAccum";
    case PixelOp::GmeAccumAffine: return "GmeAccumAffine";
    case PixelOp::GmePerspective: return "GmePerspective";
  }
  return "?";
}

bool is_inter_op(PixelOp op) {
  switch (op) {
    case PixelOp::Copy:
    case PixelOp::Add:
    case PixelOp::Sub:
    case PixelOp::AbsDiff:
    case PixelOp::Mult:
    case PixelOp::Min:
    case PixelOp::Max:
    case PixelOp::Average:
    case PixelOp::Sad:
    case PixelOp::DiffMask:
    case PixelOp::BitAnd:
    case PixelOp::BitOr:
    case PixelOp::BitXor:
    case PixelOp::GmeAccum:
    case PixelOp::GmeAccumAffine:
    case PixelOp::GmePerspective:
      return true;
    default:
      return false;
  }
}

bool is_intra_op(PixelOp op) {
  switch (op) {
    case PixelOp::Copy:
    case PixelOp::Convolve:
    case PixelOp::GradientX:
    case PixelOp::GradientY:
    case PixelOp::GradientMag:
    case PixelOp::MorphGradient:
    case PixelOp::Erode:
    case PixelOp::Dilate:
    case PixelOp::Median:
    case PixelOp::Threshold:
    case PixelOp::Scale:
    case PixelOp::Homogeneity:
    case PixelOp::Histogram:
    case PixelOp::GradientPack:
    case PixelOp::TableLookup:
      return true;
    default:
      return false;
  }
}

img::Pixel apply_inter(PixelOp op, const OpParams& params, img::Pixel a,
                       img::Pixel b, Point pos, ChannelMask in,
                       ChannelMask out, SideAccum& side) {
  (void)in;
  img::Pixel result = a;
  if (op == PixelOp::GmeAccumAffine) {
    const i64 r = static_cast<i64>(a.y) - b.y;
    const i64 abs_r = r < 0 ? -r : r;
    if (abs_r <= params.threshold) {
      const i64 gx = static_cast<i64>(b.alfa) - kGradBias;
      const i64 gy = static_cast<i64>(b.aux) - kGradBias;
      // Jacobian row for the affine warp x' = a0 + a1 x + a2 y,
      // y' = a3 + a4 x + a5 y:
      const std::array<i64, 6> g{gx, gx * pos.x, gx * pos.y,
                                 gy, gy * pos.x, gy * pos.y};
      std::size_t k = 0;
      for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = i; j < 6; ++j) side.gme_affine[k++] += g[i] * g[j];
      for (std::size_t i = 0; i < 6; ++i) side.gme_affine[21 + i] += g[i] * r;
      side.gme_affine[27] += 1;
    }
    side.sad += static_cast<u64>(abs_r);
    result.y = img::clamp_u8(static_cast<i32>(abs_r));
    return result;
  }
  if (op == PixelOp::GmePerspective) {
    const i64 r = static_cast<i64>(a.y) - b.y;
    const i64 abs_r = r < 0 ? -r : r;
    if (abs_r <= params.threshold) {
      const double gx = static_cast<double>(b.alfa) - kGradBias;
      const double gy = static_cast<double>(b.aux) - kGradBias;
      const auto& w = params.warp_params;
      const double x = pos.x;
      const double y = pos.y;
      const double den = 1.0 + w[6] * x + w[7] * y;
      if (den > 0.25) {  // warp stays well-posed on this pixel
        const double inv = 1.0 / den;
        const double xp = (w[0] + w[1] * x + w[2] * y) * inv;
        const double yp = (w[3] + w[4] * x + w[5] * y) * inv;
        const double mix = gx * xp + gy * yp;
        const std::array<double, 8> g{
            gx * inv,      gx * x * inv, gx * y * inv, gy * inv,
            gy * x * inv,  gy * y * inv, -x * inv * mix,
            -y * inv * mix};
        std::size_t k = 0;
        for (std::size_t i = 0; i < 8; ++i)
          for (std::size_t j = i; j < 8; ++j)
            side.gme_persp[k++] += g[i] * g[j];
        for (std::size_t i = 0; i < 8; ++i)
          side.gme_persp[36 + i] += g[i] * static_cast<double>(r);
        side.gme_persp[44] += 1.0;
      }
    }
    side.sad += static_cast<u64>(abs_r);
    result.y = img::clamp_u8(static_cast<i32>(abs_r));
    return result;
  }
  if (op == PixelOp::GmeAccum) {
    result.y = img::clamp_u8(static_cast<i32>(
        detail::gme_accum_pixel(params, a, b, side.gme, side.sad)));
    return result;
  }
  for (int ci = 0; ci < kChannelCount; ++ci) {
    const auto c = static_cast<Channel>(ci);
    if (!out.contains(c)) continue;
    const i64 v = detail::inter_channel_value(
        op, params, c, a.get(c), b.get(c));
    result.set(c, img::clamp_channel(c, v));
  }
  if (op == PixelOp::Sad) {
    // The side accumulator sums the absolute differences of the video
    // channels selected for output (typically Y only).
    for (const Channel c : {Channel::Y, Channel::U, Channel::V}) {
      if (!out.contains(c)) continue;
      const i64 d = static_cast<i64>(a.get(c)) - b.get(c);
      side.sad += static_cast<u64>(d < 0 ? -d : d);
    }
  }
  return result;
}

i64 op_datapath_cost(PixelOp op, const Neighborhood& nbhd, ChannelMask out) {
  const auto n = static_cast<i64>(nbhd.size());
  const i64 ch = out.count() > 0 ? out.count() : 1;
  switch (op) {
    case PixelOp::Copy:
      return ch;
    case PixelOp::Add:
    case PixelOp::Sub:
    case PixelOp::Min:
    case PixelOp::Max:
      return 2 * ch;
    case PixelOp::AbsDiff:
    case PixelOp::Sad:
    case PixelOp::Average:
    case PixelOp::DiffMask:
      return 3 * ch;
    case PixelOp::BitAnd:
    case PixelOp::BitOr:
    case PixelOp::BitXor:
      return ch;
    case PixelOp::Mult:
      return 4 * ch;
    case PixelOp::Convolve:
      return (2 * n + 2) * ch;  // n multiplies + n-1 adds + shift + bias
    case PixelOp::GradientX:
    case PixelOp::GradientY:
      return 12 * ch;  // 6 non-zero Sobel taps + adds + abs
    case PixelOp::GradientMag:
      return 26 * ch;
    case PixelOp::MorphGradient:
      return (2 * n + 1) * ch;
    case PixelOp::Erode:
    case PixelOp::Dilate:
      return n * ch;
    case PixelOp::Median:
      return 3 * n * ch;  // selection-network estimate
    case PixelOp::Threshold:
    case PixelOp::Scale:
      return 3 * ch;
    case PixelOp::Homogeneity:
      return 4 * (n - 1) + 2;
    case PixelOp::Histogram:
      return 2;
    case PixelOp::GradientPack:
      return 24;  // two Sobel accumulations + bias/clamp
    case PixelOp::TableLookup:
      return 3;  // index bound check + table read + store
    case PixelOp::GmeAccum:
      return 16;  // residual, cutoff, five MACs, count
    case PixelOp::GmeAccumAffine:
      return 40;  // residual, cutoff, Jacobian row, 27 MACs
    case PixelOp::GmePerspective:
      return 70;  // divide, Jacobian row, 44 wide MACs
  }
  return 1;
}

void validate_op(PixelOp op, const OpParams& params, const Neighborhood* nbhd,
                 ChannelMask in, ChannelMask out) {
  AE_EXPECTS(!out.empty() || op == PixelOp::Histogram || op == PixelOp::Sad,
             "operation writes no channel");
  AE_EXPECTS(!in.empty(), "operation reads no channel");
  AE_EXPECTS(params.shift >= 0 && params.shift < 32,
             "shift must be in [0, 32)");
  if (op == PixelOp::Convolve) {
    AE_EXPECTS(nbhd != nullptr, "Convolve needs a neighborhood");
    AE_EXPECTS(params.coeffs.size() == nbhd->size(),
               "Convolve needs one coefficient per neighborhood offset");
  }
  if (op == PixelOp::GradientX || op == PixelOp::GradientY ||
      op == PixelOp::GradientMag) {
    AE_EXPECTS(nbhd != nullptr && *nbhd == Neighborhood::con8(),
               "gradient operators are defined on CON_8");
  }
  if (op == PixelOp::Homogeneity) {
    AE_EXPECTS(nbhd != nullptr && nbhd->size() > 1,
               "Homogeneity needs at least one neighbor");
    AE_EXPECTS(out.contains(Channel::Alfa) && out.contains(Channel::Aux),
               "Homogeneity writes Alfa (verdict) and Aux (distance)");
    AE_EXPECTS(params.threshold >= 0, "Homogeneity threshold must be >= 0");
  }
  if (op == PixelOp::Threshold || op == PixelOp::DiffMask) {
    AE_EXPECTS(params.threshold >= 0, "threshold must be >= 0");
  }
  if (op == PixelOp::GradientPack) {
    AE_EXPECTS(nbhd != nullptr && *nbhd == Neighborhood::con8(),
               "GradientPack is defined on CON_8");
    AE_EXPECTS(out.contains(Channel::Alfa) && out.contains(Channel::Aux),
               "GradientPack writes Alfa (gx) and Aux (gy)");
  }
  if (op == PixelOp::TableLookup) {
    AE_EXPECTS(!params.table.empty(), "TableLookup needs a table");
    AE_EXPECTS(in.contains(Channel::Alfa) && out.contains(Channel::Alfa),
               "TableLookup reads and writes the Alfa channel");
  }
  if (op == PixelOp::GmeAccum || op == PixelOp::GmeAccumAffine ||
      op == PixelOp::GmePerspective) {
    AE_EXPECTS(params.threshold >= 0, "GmeAccum robust cutoff must be >= 0");
    AE_EXPECTS(in.contains(Channel::Y), "GmeAccum reads Y residuals");
  }
  if (op == PixelOp::GmePerspective) {
    AE_EXPECTS(params.warp_params.size() == 8,
               "GmePerspective needs the 8 current warp parameters");
  }
}

namespace {

/// Degenerate one-pixel window: a CON_0 stage reads nothing but the center.
struct CenterSource {
  img::Pixel px;
  img::Pixel at(Point) const { return px; }
};

}  // namespace

img::Pixel apply_fused(const std::vector<FusedStage>& stages, img::Pixel px,
                       SideAccum& side) {
  static const Neighborhood con0 = Neighborhood::con0();
  for (const FusedStage& stage : stages)
    px = apply_intra(stage.op, stage.params, con0, CenterSource{px}, stage.in,
                     stage.out, side);
  return px;
}

void validate_fused_stage(const FusedStage& stage) {
  AE_EXPECTS(is_intra_op(stage.op),
             "fused stages must be intra (pointwise) ops");
  static const Neighborhood con0 = Neighborhood::con0();
  // validate_op against CON_0 rejects every op with a genuine neighborhood
  // requirement (gradients, Homogeneity, GradientPack) and checks the
  // stage's own parameters (coeff arity 1, table presence, shift range).
  validate_op(stage.op, stage.params, &con0, stage.in, stage.out);
}

}  // namespace ae::alib
