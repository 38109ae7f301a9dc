#include "core/session.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "analysis/verifier.hpp"
#include "core/engine_sim.hpp"
#include "core/fault.hpp"

namespace ae::core {

void static_verify_call(const EngineConfig& config, const alib::Call& call,
                        const img::Image& a, const img::Image* b) {
  Size b_size{};
  const Size* b_ptr = nullptr;
  if (b != nullptr) {
    b_size = b->size();
    b_ptr = &b_size;
  }
  // Aliasing by identity or by content: one on-board copy can satisfy only
  // one bank-pair claim (the PR 2 duplicate-slot class, AEV210).
  bool alias = false;
  if (call.mode == alib::Mode::Inter && b != nullptr)
    alias = b == &a || (b->size() == a.size() &&
                        frame_content_hash(*b) == frame_content_hash(a));
  analysis::VerifyOptions options;
  options.config = config;
  analysis::enforce(
      analysis::verify_call(call, a.size(), b_ptr, alias, options));
}

bool is_side_only_op(alib::PixelOp op) {
  switch (op) {
    case alib::PixelOp::Sad:
    case alib::PixelOp::Histogram:
    case alib::PixelOp::GmeAccum:
    case alib::PixelOp::GmeAccumAffine:
      return true;
    default:
      return false;
  }
}

EngineSession::EngineSession(EngineConfig config, SessionOptions options)
    : config_(config), options_(options) {
  validate_config(config_);
}

std::string EngineSession::name() const {
  return "engine/" + std::to_string(config_.clock_mhz) + "MHz/session";
}

void EngineSession::invalidate() {
  restore_residency({});
  pinned_.clear();
}

void EngineSession::pin_frames(const std::vector<u64>& hashes) {
  pinned_.clear();
  for (const u64 hash : hashes)
    if (hash != 0) pinned_.push_back(hash);
}

void EngineSession::restore_residency(const ResidencyModel& residency) {
  residency_ = ResidencyModel(
      residency.slots(), residency.result(),
      std::max(residency_.use_clock(), residency.use_clock()));
}

void EngineSession::set_fault(FaultInjector* fault) {
  fault_ = fault;
  // Board content is untrusted across a mode change either way.
  invalidate();
}

alib::CallResult EngineSession::execute_simulated(const alib::Call& call,
                                                  const img::Image& a,
                                                  const img::Image* b) {
  // The adversary is in the loop: run the full cycle simulator so faults
  // hit a real datapath and the CRC/watchdog machinery earns its cycles.
  // Throws TransportFailure on unrecoverable attempts; stats below count
  // completed calls only (the resilient layer accounts failed attempts).
  EngineRunStats run;
  alib::CallResult result =
      simulate_call(config_, call, a, b, &run, trace_, fault_);
  ++stats_.calls;
  stats_.inputs_transferred += call.mode == alib::Mode::Inter ? 2 : 1;
  ++stats_.outputs_read_back;
  stats_.strip_retries += run.strip_retries;
  stats_.readback_retries += run.readback_retries;
  stats_.cycles += result.stats.cycles;
  // Simulated phase split: the cycle the last input word landed divides the
  // call (setup overhead charged to the input side, where the driver spends
  // it).
  last_phases_.input_cycles =
      run.input_done_cycle + config_.call_setup_overhead_cycles;
  last_phases_.total_cycles = result.stats.cycles;
  last_phases_.post_input_cycles =
      last_phases_.total_cycles -
      std::min(last_phases_.total_cycles, last_phases_.input_cycles);
  return result;
}

u64 frame_content_hash(const img::Image& image) {
  // Four independent multiply-rotate lanes, one 64-bit word per pixel:
  // consecutive pixels feed different lanes, so four multiply chains run
  // side by side where FNV-1a had one chain with two multiplies per pixel.
  // The word is built from the ZBT words, never the raw bytes — Pixel has
  // a padding byte.
  constexpr u64 kMul = 0x9E3779B97F4A7C15ull;
  constexpr u64 kIn = 0xC2B2AE3D27D4EB4Full;
  const auto round = [](u64 lane, u64 word) {
    return std::rotl(lane + word * kIn, 31) * kMul;
  };
  const auto word = [](const img::Pixel& p) {
    return static_cast<u64>(p.lower_word()) |
           (static_cast<u64>(p.upper_word()) << 32);
  };
  const std::vector<img::Pixel>& pixels = image.pixels();
  const std::size_t n = pixels.size();
  u64 lane[4] = {0x60EA27EEADC0B5D6ull, 0xC2B2AE3D27D4EB4Full,
                 0x0000000000000000ull, 0x61C8864E7A143579ull};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] = round(lane[0], word(pixels[i]));
    lane[1] = round(lane[1], word(pixels[i + 1]));
    lane[2] = round(lane[2], word(pixels[i + 2]));
    lane[3] = round(lane[3], word(pixels[i + 3]));
  }
  for (std::size_t l = 0; i < n; ++i, ++l)
    lane[l] = round(lane[l], word(pixels[i]));
  u64 h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
          std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  // The dimensions, so a transposed frame with the same pixel words keys
  // differently; then a full avalanche of the folded state.
  h = round(h, static_cast<u64>(static_cast<u32>(image.width())) |
                   (static_cast<u64>(static_cast<u32>(image.height())) << 32));
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h == 0 ? 1 : h;  // 0 means "empty slot"
}

alib::CallResult EngineSession::execute(const alib::Call& call,
                                        const img::Image& a,
                                        const img::Image* b) {
  if (options_.validate_before_execute)
    static_verify_call(config_, call, a, b);
  if (fault_ != nullptr && fault_->enabled())
    return execute_simulated(call, a, b);
  alib::SegmentRunInfo seg;
  alib::CallResult result = kernels_.execute(call, a, b, seg);
  ++stats_.calls;

  const int images = call.mode == alib::Mode::Inter ? 2 : 1;
  const EngineRunStats base = analytic_run_stats(
      config_, call, a.size(), seg.processed_pixels, seg.criterion_tests);
  const AnalyticTiming timing =
      call.mode == alib::Mode::Segment
          ? analytic_segment_timing(config_, call, a.size(),
                                    seg.processed_pixels,
                                    seg.criterion_tests)
          : analytic_streamed_timing(config_, call, a.size());

  u64 cycles = base.cycles;
  const auto pixels = static_cast<u64>(a.pixel_count());

  // Input transfers skipped for resident frames.  The model claims the
  // slots feeding this call so an inter call with identical inputs cannot
  // count one on-board copy twice (the engine reads both bank pairs in
  // parallel).
  const u64 per_frame_in =
      (timing.input_busy_cycles + timing.input_overhead_cycles) /
      static_cast<u64>(images);
  u64 input_cycles = timing.input_busy_cycles + timing.input_overhead_cycles;
  const std::array<u64, 2> wanted{
      frame_content_hash(a), b != nullptr ? frame_content_hash(*b) : 0};
  for (int f = 0; f < images; ++f) {
    const Placement kind =
        residency_.place_input(wanted[static_cast<std::size_t>(f)],
                               LruVictims{pinned_})
            .kind;
    if (kind == Placement::Transferred) {
      ++stats_.inputs_transferred;
      continue;
    }
    ++stats_.inputs_reused;
    cycles -= std::min(cycles, per_frame_in);
    input_cycles -= std::min(input_cycles, per_frame_in);
    if (kind == Placement::Relocated) {
      // Bank-to-bank relocation: two port cycles per pixel.
      ++stats_.board_copies;
      cycles += pixels * 2;
      input_cycles += pixels * 2;
    }
  }

  // Side-only calls keep their result on board.
  if (options_.skip_side_only_readback && is_side_only_op(call.op)) {
    ++stats_.outputs_elided;
    cycles -= std::min(
        cycles, timing.output_busy_cycles + timing.output_overhead_cycles);
  } else {
    ++stats_.outputs_read_back;
  }
  residency_.finish_call(frame_content_hash(result.output));

  // Setup overhead is driver time spent before/while streaming strips, so
  // it belongs to the input phase of the pipelining view.
  last_phases_.input_cycles = std::min(
      cycles, input_cycles + config_.call_setup_overhead_cycles);
  last_phases_.total_cycles = cycles;
  last_phases_.post_input_cycles = cycles - last_phases_.input_cycles;

  stats_.cycles += cycles;
  result.stats.cycles = cycles;
  // Whatever time remains is (at most) bus time: savings only ever remove
  // transfers, never add non-bus work beyond the board copies.
  result.stats.pci_cycles =
      std::min(cycles, base.bus_busy_cycles + base.bus_overhead_cycles);
  result.stats.loads = base.zbt_read_transactions;
  result.stats.stores = base.zbt_write_transactions;
  result.stats.pixels = base.pixels;
  result.stats.model_seconds =
      static_cast<double>(cycles) * config_.seconds_per_cycle();
  return result;
}

}  // namespace ae::core
