#include "gme/motion.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ae::gme {

std::string to_string(Translation t) {
  std::ostringstream os;
  os << "(dx=" << t.dx << ", dy=" << t.dy << ")";
  return os.str();
}

img::Image warp_translational(const img::Image& src, Translation t) {
  AE_EXPECTS(!src.empty(), "cannot warp an empty image");
  img::Image out(src.size());
  const i32 w = src.width();
  const i32 h = src.height();
  const auto stride = static_cast<std::size_t>(w);
  const img::Pixel* ps = src.pixels().data();
  img::Pixel* po = out.pixels().data();
  // Border replication is a clamp of the source coordinates: the two source
  // rows are clamped once per output row, the two columns once per pixel.
  // Each output pixel is a pure function of its 2x2 source taps, so banding
  // the rows across the shared pool does not change any value.
  par::ThreadPool::shared().parallel_rows(h, 16, [&](i32 band_y0, i32 band_y1) {
    for (i32 y = band_y0; y < band_y1; ++y) {
      const double sy = y + t.dy;
      const double fy = std::floor(sy);
      const auto y0 = static_cast<i32>(fy);
      const double wy = sy - fy;
      const img::Pixel* row0 =
          ps + static_cast<std::size_t>(std::clamp(y0, 0, h - 1)) * stride;
      const img::Pixel* row1 =
          ps + static_cast<std::size_t>(std::clamp(y0 + 1, 0, h - 1)) * stride;
      img::Pixel* orow = po + static_cast<std::size_t>(y) * stride;
      for (i32 x = 0; x < w; ++x) {
        const double sx = x + t.dx;
        const double fx = std::floor(sx);
        const auto x0 = static_cast<i32>(fx);
        const double wx = sx - fx;
        const auto c0 = static_cast<std::size_t>(std::clamp(x0, 0, w - 1));
        const auto c1 = static_cast<std::size_t>(std::clamp(x0 + 1, 0, w - 1));
        const img::Pixel& p00 = row0[c0];
        const img::Pixel& p10 = row0[c1];
        const img::Pixel& p01 = row1[c0];
        const img::Pixel& p11 = row1[c1];
        auto lerp2 = [&](u8 a, u8 b, u8 c, u8 d) {
          const double top = a + (b - a) * wx;
          const double bot = c + (d - c) * wx;
          return static_cast<u8>(std::lround(top + (bot - top) * wy));
        };
        img::Pixel& o = orow[x];
        o.y = lerp2(p00.y, p10.y, p01.y, p11.y);
        o.u = lerp2(p00.u, p10.u, p01.u, p11.u);
        o.v = lerp2(p00.v, p10.v, p01.v, p11.v);
        o.alfa = p00.alfa;
        o.aux = p00.aux;
      }
    }
  });
  return out;
}

img::Image decimate2(const img::Image& src) {
  AE_EXPECTS(src.width() >= 2 && src.height() >= 2,
             "decimation needs at least 2x2 input");
  img::Image out(Size{src.width() / 2, src.height() / 2});
  // Output rows are independent; band them across the shared pool.  Each
  // output pixel is a pure function of its 2x2 source block, so the banding
  // does not change any value.
  par::ThreadPool::shared().parallel_rows(
      out.height(), 16, [&](i32 band_y0, i32 band_y1) {
        for (i32 y = band_y0; y < band_y1; ++y)
          for (i32 x = 0; x < out.width(); ++x) {
            auto avg = [&](auto get) {
              const i32 sx = 2 * x;
              const i32 sy = 2 * y;
              const i32 sum = get(src.ref(sx, sy)) + get(src.ref(sx + 1, sy)) +
                              get(src.ref(sx, sy + 1)) +
                              get(src.ref(sx + 1, sy + 1));
              return static_cast<u8>((sum + 2) / 4);
            };
            img::Pixel& o = out.ref(x, y);
            o.y =
                avg([](const img::Pixel& p) { return static_cast<i32>(p.y); });
            o.u =
                avg([](const img::Pixel& p) { return static_cast<i32>(p.u); });
            o.v =
                avg([](const img::Pixel& p) { return static_cast<i32>(p.v); });
          }
      });
  return out;
}

}  // namespace ae::gme
