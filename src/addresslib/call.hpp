// The AddressLib call descriptor — the unit of work dispatched to a backend.
//
// One call applies one pixel operation over one frame using one addressing
// scheme; this matches the coprocessor's statically-configured granularity
// ("the same operation is applied to all the pixels in the whole image for
// one AddressEngine call").  The same descriptor executes on the software
// backend and on the engine simulator, which is what makes the paper's
// software/hardware comparisons well-posed.
#pragma once

#include <string>
#include <vector>

#include "addresslib/addressing.hpp"
#include "addresslib/ops.hpp"
#include "addresslib/segment_index.hpp"
#include "image/image.hpp"

namespace ae::alib {

/// Addressing scheme of a call.  Segment-indexed addressing is not a
/// standalone mode: it runs "in parallel to one of the above" and shows up
/// as the side table of segment calls.
enum class Mode : u8 {
  Inter,
  Intra,
  Segment,
};

std::string to_string(Mode m);

/// Segment addressing configuration: the expansion starts from `seeds` and
/// admits a neighbor pixel when its luma differs from the pixel it is
/// reached from by at most `luma_threshold` (the local neighborhood
/// criterion).  Processed pixels are visited in geodesic-distance order.
struct SegmentSpec {
  std::vector<Point> seeds;
  Connectivity connectivity = Connectivity::Eight;
  i32 luma_threshold = 16;
  /// Optional chrominance criterion ("luminance/chrominance difference
  /// between neighboring pixels for homogeneity check", paper section
  /// 2.2): a neighbor additionally needs max(|dU|, |dV|) within this
  /// bound.  Negative disables the chroma test (luma-only, the default).
  i32 chroma_threshold = -1;
  /// When set, each processed pixel's Alfa channel receives its segment id.
  bool write_ids = true;
  /// When set, pixels whose input Alfa is non-zero count as already
  /// processed ("all neighbor pixels which have not been processed before")
  /// — lets a caller grow new segments around earlier results.
  bool respect_existing_labels = false;
  /// Ids handed out in this call are id_base+1, id_base+2, ... so
  /// incremental callers keep ids globally unique.
  SegmentId id_base = 0;
};

/// Per-segment record accumulated through the segment-indexed table.
struct SegmentInfo {
  SegmentId id = 0;
  Point seed{};
  i64 pixel_count = 0;
  Rect bbox{};
  i32 geodesic_radius = 0;  ///< max geodesic distance from the seed set
  u64 sum_y = 0;            ///< sum of segment luma (mean = sum_y / count)
};

/// Dynamic-instruction classes of the software path; the split the paper's
/// profiling argument rests on (address calculation dominates).
struct InstructionProfile {
  u64 control = 0;       ///< loop/branch bookkeeping
  u64 address_calc = 0;  ///< pixel address computation incl. accessor calls
  u64 pixel_op = 0;      ///< datapath arithmetic of the kernels
  u64 memory = 0;        ///< image loads/stores issued

  u64 total() const { return control + address_calc + pixel_op + memory; }
  void merge(const InstructionProfile& o) {
    control += o.control;
    address_calc += o.address_calc;
    pixel_op += o.pixel_op;
    memory += o.memory;
  }
};

/// Execution statistics returned by a backend.
struct CallStats {
  i64 pixels = 0;  ///< output pixels produced

  /// Pixels copied input->output wholesale without per-pixel processing.
  /// Segment mode seeds its output with a full copy of the input frame (only
  /// the expanded segments are then overwritten); the copy is real memory
  /// traffic the cost models must see even though no kernel ran on it.
  i64 passthrough_pixels = 0;

  /// Image-memory accesses under the backend's accounting model — the
  /// numbers of the paper's Table 2.  For the software backend: load/store
  /// instructions touching image data (strict window reuse).  For the
  /// engine: ZBT pixel transactions, parallel accesses counted once.
  u64 loads = 0;
  u64 stores = 0;
  u64 access_transactions() const { return loads + stores; }

  /// Indexed-table traffic (segment-indexed addressing).
  u64 table_reads = 0;
  u64 table_writes = 0;

  /// Segment mode: neighbor admission tests the traversal performed (zero
  /// for streamed calls).  Exact, so platform models can price a segment
  /// call without falling back to the connectivity bound.
  i64 criterion_tests = 0;

  InstructionProfile profile;  ///< software backend only

  /// Modeled wall-clock of the call on the backend's platform
  /// (Pentium-M 1.6 GHz for software, the 66 MHz board for the engine).
  double model_seconds = 0.0;

  // Engine-only detail:
  u64 cycles = 0;        ///< total engine clock cycles
  u64 pci_cycles = 0;    ///< cycles with the PCI bus busy
  u64 stall_cycles = 0;  ///< process-unit halt cycles (IIM empty / OIM full)
  u64 zbt_word_accesses = 0;  ///< raw 32-bit ZBT word transactions

  void merge(const CallStats& o);
};

/// Full result of one AddressLib call.
struct CallResult {
  img::Image output;
  SideAccum side;
  std::vector<SegmentInfo> segments;  ///< segment mode only
  CallStats stats;
};

/// The call descriptor.
struct Call {
  Mode mode = Mode::Intra;
  PixelOp op = PixelOp::Copy;
  OpParams params;
  Neighborhood nbhd = Neighborhood::con0();
  ScanOrder scan = ScanOrder::RowMajor;
  BorderPolicy border = BorderPolicy::Replicate;
  ChannelMask in_channels = ChannelMask::y();
  ChannelMask out_channels = ChannelMask::y();
  SegmentSpec segment;

  /// Pointwise stages fused onto this call (aeopt fusion).  Applied, in
  /// order, to each result pixel before it is stored; streamed (Inter/Intra)
  /// modes only — segment mode copies unprocessed pixels wholesale, so a
  /// fused stage would transform pixels the fused-away consumer never
  /// touched.
  std::vector<FusedStage> fused;

  /// Advisory proof-carrying hint, set by analysis::apply_domain_hints:
  /// for each channel in the mask, the base op's raw pre-clamp result is
  /// proven inside [0, channel max] for every pixel, so a backend may lower
  /// to a clamp-free kernel variant (bit-exact by the proof).  Backends are
  /// free to ignore it; the functional interpreter always clamps.  Not
  /// serialized — re-derivable from the program, and dropping it only costs
  /// the specialization, never correctness.
  ChannelMask clamp_free = ChannelMask::none();

  /// Builders for the common shapes.
  static Call make_inter(PixelOp op, ChannelMask in = ChannelMask::y(),
                         ChannelMask out = ChannelMask::y(),
                         OpParams params = {});
  static Call make_intra(PixelOp op, Neighborhood nbhd,
                         ChannelMask in = ChannelMask::y(),
                         ChannelMask out = ChannelMask::y(),
                         OpParams params = {});
  static Call make_segment(PixelOp op, Neighborhood nbhd, SegmentSpec spec,
                           ChannelMask in = ChannelMask::y(),
                           ChannelMask out = ChannelMask::y(),
                           OpParams params = {});

  /// One-line description for logs and bench tables.
  std::string describe() const;
};

/// Validates a call against its input frames.  Throws InvalidArgument with a
/// precise message on any ill-formed combination.
void validate_call(const Call& call, const img::Image& a, const img::Image* b);

/// Abstract executor of AddressLib calls.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Platform name for reports ("software/PM-1.6GHz", "engine/66MHz", ...).
  virtual std::string name() const = 0;

  /// Executes one call.  `b` is required for inter mode, ignored otherwise.
  virtual CallResult execute(const Call& call, const img::Image& a,
                             const img::Image* b = nullptr) = 0;
};

}  // namespace ae::alib
