#include "addresslib/call.hpp"

#include <sstream>

namespace ae::alib {

std::string to_string(Mode m) {
  switch (m) {
    case Mode::Inter:
      return "inter";
    case Mode::Intra:
      return "intra";
    case Mode::Segment:
      return "segment";
  }
  return "?";
}

void CallStats::merge(const CallStats& o) {
  pixels += o.pixels;
  passthrough_pixels += o.passthrough_pixels;
  loads += o.loads;
  stores += o.stores;
  table_reads += o.table_reads;
  table_writes += o.table_writes;
  criterion_tests += o.criterion_tests;
  profile.merge(o.profile);
  model_seconds += o.model_seconds;
  cycles += o.cycles;
  pci_cycles += o.pci_cycles;
  stall_cycles += o.stall_cycles;
  zbt_word_accesses += o.zbt_word_accesses;
}

Call Call::make_inter(PixelOp op, ChannelMask in, ChannelMask out,
                      OpParams params) {
  Call c;
  c.mode = Mode::Inter;
  c.op = op;
  c.params = std::move(params);
  c.in_channels = in;
  c.out_channels = out;
  return c;
}

Call Call::make_intra(PixelOp op, Neighborhood nbhd, ChannelMask in,
                      ChannelMask out, OpParams params) {
  Call c;
  c.mode = Mode::Intra;
  c.op = op;
  c.params = std::move(params);
  c.nbhd = std::move(nbhd);
  c.in_channels = in;
  c.out_channels = out;
  return c;
}

Call Call::make_segment(PixelOp op, Neighborhood nbhd, SegmentSpec spec,
                        ChannelMask in, ChannelMask out, OpParams params) {
  Call c;
  c.mode = Mode::Segment;
  c.op = op;
  c.params = std::move(params);
  c.nbhd = std::move(nbhd);
  c.segment = std::move(spec);
  c.in_channels = in;
  c.out_channels = out;
  return c;
}

std::string Call::describe() const {
  std::ostringstream os;
  os << to_string(mode) << '/' << to_string(op);
  if (mode != Mode::Inter) os << '/' << nbhd.name();
  os << " in=" << to_string(in_channels) << " out=" << to_string(out_channels)
     << " scan=" << to_string(scan);
  if (mode == Mode::Segment)
    os << " seeds=" << segment.seeds.size()
       << " thr=" << segment.luma_threshold;
  for (const FusedStage& stage : fused) os << " +" << to_string(stage.op);
  return os.str();
}

void validate_call(const Call& call, const img::Image& a, const img::Image* b) {
  AE_EXPECTS(!a.empty(), "input frame must not be empty");
  switch (call.mode) {
    case Mode::Inter:
      AE_EXPECTS(is_inter_op(call.op),
                 "op " + to_string(call.op) + " is not an inter op");
      AE_EXPECTS(b != nullptr, "inter mode needs a second input frame");
      AE_EXPECTS(b->size() == a.size(),
                 "inter mode needs equally sized frames");
      break;
    case Mode::Intra:
      AE_EXPECTS(is_intra_op(call.op),
                 "op " + to_string(call.op) + " is not an intra op");
      break;
    case Mode::Segment:
      AE_EXPECTS(is_intra_op(call.op),
                 "segment mode runs intra-style ops");
      AE_EXPECTS(!call.segment.seeds.empty(),
                 "segment mode needs at least one seed");
      for (const Point seed : call.segment.seeds)
        AE_EXPECTS(a.contains(seed), "segment seed outside the frame");
      AE_EXPECTS(call.segment.luma_threshold >= 0,
                 "segment luma threshold must be >= 0");
      if (call.segment.write_ids)
        AE_EXPECTS(call.out_channels.contains(Channel::Alfa),
                   "write_ids requires Alfa in the output mask");
      break;
  }
  const Neighborhood* nbhd = call.mode == Mode::Inter ? nullptr : &call.nbhd;
  validate_op(call.op, call.params, nbhd, call.in_channels, call.out_channels);
  if (call.mode != Mode::Inter) {
    AE_EXPECTS(call.nbhd.height() <= kMaxNeighborhoodLines,
               "neighborhood taller than the hardware limit");
  }
  AE_EXPECTS(call.fused.empty() || call.mode != Mode::Segment,
             "fused stages require streamed (inter/intra) addressing");
  for (const FusedStage& stage : call.fused) validate_fused_stage(stage);
}

}  // namespace ae::alib
