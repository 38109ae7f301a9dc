#include "addresslib/functional.hpp"

#include "addresslib/scan.hpp"
#include "addresslib/segment.hpp"

namespace ae::alib {

CallResult execute_functional(const Call& call, const img::Image& a,
                              const img::Image* b) {
  SegmentRunInfo unused;
  return execute_functional(call, a, b, unused);
}

CallResult execute_functional(const Call& call, const img::Image& a,
                              const img::Image* b, SegmentRunInfo& info) {
  validate_call(call, a, b);
  CallResult result;
  info = SegmentRunInfo{};
  switch (call.mode) {
    case Mode::Inter: {
      result.output = img::Image(a.size());
      scan_inter(a, *b, result.output, call.scan,
                 [&](img::Pixel pa, img::Pixel pb, Point pos) {
                   img::Pixel px = apply_inter(call.op, call.params, pa, pb,
                                               pos, call.in_channels,
                                               call.out_channels, result.side);
                   if (!call.fused.empty())
                     px = apply_fused(call.fused, px, result.side);
                   return px;
                 });
      result.stats.pixels = a.pixel_count();
      break;
    }
    case Mode::Intra: {
      result.output = img::Image(a.size());
      scan_intra(a, result.output, call.scan, call.border,
                 call.params.border_constant, [&](const ImageWindow& window) {
                   img::Pixel px = apply_intra(call.op, call.params, call.nbhd,
                                               window, call.in_channels,
                                               call.out_channels, result.side);
                   if (!call.fused.empty())
                     px = apply_fused(call.fused, px, result.side);
                   return px;
                 });
      result.stats.pixels = a.pixel_count();
      break;
    }
    case Mode::Segment: {
      result.output = a;
      // Fresh labelings start from a clean Alfa plane; incremental calls
      // (respect_existing_labels) keep the labels they grow around.
      if (call.segment.write_ids && !call.segment.respect_existing_labels)
        result.output.fill_channel(Channel::Alfa, 0);
      ImageWindow window(a, call.border, call.params.border_constant);
      SegmentTable<SegmentInfo> table;
      const SegmentTraversalStats traversal = expand_segments(
          a, call.segment, table, [&](const SegmentVisit& v) {
            window.move_to(v.position);
            img::Pixel out =
                apply_intra(call.op, call.params, call.nbhd, window,
                            call.in_channels, call.out_channels, result.side);
            if (call.segment.write_ids) out.alfa = v.segment;
            result.output.ref(v.position.x, v.position.y) = out;
          });
      result.segments = table.records();
      result.stats.pixels = traversal.processed_pixels;
      // The seed copy above touched every input pixel; report it so the
      // backends can price the traffic (it is not free just because no
      // kernel ran on it).
      result.stats.passthrough_pixels = a.pixel_count();
      result.stats.table_reads = table.reads();
      result.stats.table_writes = table.writes();
      result.stats.criterion_tests = traversal.criterion_tests;
      info.processed_pixels = traversal.processed_pixels;
      info.criterion_tests = traversal.criterion_tests;
      break;
    }
  }
  return result;
}

}  // namespace ae::alib
