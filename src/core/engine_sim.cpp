#include "core/engine_sim.hpp"

#include <algorithm>

#include "addresslib/scan.hpp"
#include "addresslib/segment.hpp"
#include "core/dma.hpp"
#include "core/iim.hpp"
#include "core/oim.hpp"
#include "core/process_unit.hpp"
#include "core/txu.hpp"

namespace ae::core {
namespace {

void add_call_overhead(const EngineConfig& config, EngineRunStats& run) {
  run.cycles += config.call_setup_overhead_cycles;
  run.bus_overhead_cycles += config.call_setup_overhead_cycles;
}

void fill_stats(const EngineConfig& config, const EngineRunStats& run,
                alib::CallStats& stats) {
  stats.pixels = run.pixels;
  stats.loads = run.zbt_read_transactions;
  stats.stores = run.zbt_write_transactions;
  stats.cycles = run.cycles;
  stats.pci_cycles = run.bus_busy_cycles + run.bus_overhead_cycles;
  stats.stall_cycles = run.pu_stall_iim + run.pu_stall_oim +
                       run.pu_wait_frames;
  stats.zbt_word_accesses = run.zbt_word_accesses;
  stats.model_seconds =
      static_cast<double>(run.cycles) * config.seconds_per_cycle();
}

/// Observes component state each cycle and emits transition events.
class TraceObserver {
 public:
  TraceObserver(EngineTrace* trace, const EngineConfig& config)
      : trace_(trace), strip_lines_(config.strip_lines) {
    if (trace_ != nullptr) trace_->record(0, TraceEvent::CallStart);
  }

  void observe(u64 cycle, const BusDma& dma, const ProcessUnit& pu,
               const ResultTracker& results, int images) {
    if (trace_ == nullptr) return;
    // Interrupts.
    for (; interrupts_ < dma.interrupts(); ++interrupts_)
      trace_->record(cycle, TraceEvent::Interrupt);
    // Input strip arrivals (frame 0) and frame completion.
    while (dma.line_arrived(0, (strips_arrived_ + 1) * strip_lines_ - 1)) {
      trace_->record(cycle, TraceEvent::InputStripArrived, strips_arrived_);
      ++strips_arrived_;
    }
    for (int f = 0; f < images; ++f)
      if (!frame_done_[static_cast<std::size_t>(f)] && dma.frame_complete(f)) {
        frame_done_[static_cast<std::size_t>(f)] = true;
        trace_->record(cycle, TraceEvent::FrameComplete, f);
      }
    if (!input_done_ && dma.input_done()) {
      input_done_ = true;
      trace_->record(cycle, TraceEvent::InputDone);
    }
    // Process unit progress and stall episodes.
    if (!first_pixel_ && pu.pixels_produced() > 0) {
      first_pixel_ = true;
      trace_->record(cycle, TraceEvent::FirstPixelProduced);
    }
    const u64 stalls_now =
        pu.stall_iim() + pu.stall_oim() + pu.wait_frames();
    const bool stalled_this_cycle = stalls_now > stalls_seen_;
    if (stalled_this_cycle && !in_stall_) {
      in_stall_ = true;
      stall_start_ = cycle;
      const i64 reason = pu.stall_oim() > stall_oim_seen_   ? 1
                         : pu.wait_frames() > wait_seen_ ? 2
                                                         : 0;
      trace_->record(cycle, TraceEvent::PuStallBegin, reason);
    } else if (!stalled_this_cycle && in_stall_) {
      in_stall_ = false;
      trace_->record(cycle, TraceEvent::PuStallEnd,
                     static_cast<i64>(cycle - stall_start_));
    }
    stalls_seen_ = stalls_now;
    stall_oim_seen_ = pu.stall_oim();
    wait_seen_ = pu.wait_frames();
    if (!processing_done_ && pu.done()) {
      processing_done_ = true;
      trace_->record(cycle, TraceEvent::ProcessingDone,
                     pu.pixels_produced());
    }
    // Result block releases.
    if (!block_a_ && results.block_a_complete()) {
      block_a_ = true;
      trace_->record(cycle, TraceEvent::BlockReleased, 0);
    }
    if (!block_b_ && results.block_b_complete()) {
      block_b_ = true;
      trace_->record(cycle, TraceEvent::BlockReleased, 1);
    }
  }

  void finish(u64 cycle) {
    if (trace_ == nullptr) return;
    if (in_stall_)
      trace_->record(cycle, TraceEvent::PuStallEnd,
                     static_cast<i64>(cycle - stall_start_));
    trace_->record(cycle, TraceEvent::OutputDone);
    trace_->record(cycle, TraceEvent::CallEnd, static_cast<i64>(cycle));
  }

 private:
  EngineTrace* trace_;
  i32 strip_lines_;
  i32 strips_arrived_ = 0;
  u64 interrupts_ = 0;
  std::array<bool, 2> frame_done_{false, false};
  bool input_done_ = false;
  bool first_pixel_ = false;
  bool processing_done_ = false;
  bool block_a_ = false;
  bool block_b_ = false;
  bool in_stall_ = false;
  u64 stall_start_ = 0;
  u64 stalls_seen_ = 0;
  u64 stall_oim_seen_ = 0;
  u64 wait_seen_ = 0;
};

/// Diff-observes the fault injector's counters and the DMA's recovery
/// counters each cycle and emits the corresponding trace events.  The
/// injector outlives the call (its counters accumulate across a session),
/// so the baseline is captured at construction.
class FaultObserver {
 public:
  FaultObserver(EngineTrace* trace, const FaultInjector* fault)
      : trace_(trace), fault_(fault) {
    if (fault_ != nullptr) seen_ = fault_->counters();
  }

  void observe(u64 cycle, const BusDma& dma) {
    if (fault_ == nullptr || trace_ == nullptr) return;
    const FaultCounters& now = fault_->counters();
    emit(cycle, FaultKind::DmaWordCorrupt, now.words_corrupted,
         seen_.words_corrupted);
    emit(cycle, FaultKind::DmaWordDrop, now.words_dropped,
         seen_.words_dropped);
    emit(cycle, FaultKind::LostInterrupt, now.interrupts_lost,
         seen_.interrupts_lost);
    emit(cycle, FaultKind::ZbtBitFlip, now.zbt_bits_flipped,
         seen_.zbt_bits_flipped);
    emit(cycle, FaultKind::ReadbackCorrupt, now.readback_corrupted,
         seen_.readback_corrupted);
    for (; strip_retries_ < dma.strip_retries(); ++strip_retries_)
      trace_->record(cycle, TraceEvent::StripRetry,
                     dma.current_input_strip());
    for (; readback_retries_ < dma.readback_retries(); ++readback_retries_)
      trace_->record(cycle, TraceEvent::ReadbackRetry,
                     static_cast<i64>(readback_retries_) + 1);
  }

 private:
  void emit(u64 cycle, FaultKind kind, u64 now, u64& seen) {
    for (; seen < now; ++seen)
      trace_->record(cycle, TraceEvent::FaultInjected,
                     static_cast<i64>(kind));
  }

  EngineTrace* trace_;
  const FaultInjector* fault_;
  FaultCounters seen_;
  u64 strip_retries_ = 0;
  u64 readback_retries_ = 0;
};

/// Throws once the transport declared the attempt dead.  A hung stream is
/// charged the full watchdog deadline: the driver learns nothing until its
/// timer fires, however early the interrupt was lost.
void check_transport(const BusDma& dma, FaultInjector* fault,
                     EngineTrace* trace, u64 cycles) {
  if (fault == nullptr) return;
  if (dma.hung()) {
    const u64 deadline =
        std::max(cycles, fault->policy().watchdog_deadline_cycles);
    fault->note_watchdog();
    if (trace != nullptr) trace->record(deadline, TraceEvent::Watchdog);
    throw EngineHang("engine call hung (lost interrupt); watchdog fired",
                     deadline);
  }
  if (dma.transport_failed())
    throw TransportError("transport integrity retries exhausted", cycles);
}

/// Streamed (intra / inter) call: full per-cycle simulation.
alib::CallResult simulate_streamed(const EngineConfig& config,
                                   const alib::Call& call, const img::Image& a,
                                   const img::Image* b,
                                   EngineRunStats* detail,
                                   EngineTrace* trace,
                                   FaultInjector* fault) {
  const ScanSpace space(a.size(), call.scan);
  ZbtMemory zbt(config, a.size());
  zbt.set_fault(fault);
  const int images = call.mode == alib::Mode::Inter ? 2 : 1;
  Iim iim(config, space.line_length(), space.line_count(), images);
  Oim oim(config, space.line_length());
  ResultTracker results(a.pixel_count());

  alib::CallResult result;
  result.output = img::Image(a.size());

  BusDma dma(config, space, zbt, a, images == 2 ? b : nullptr, results,
             result.output, fault);
  TxuIn txu_in(config, space, zbt, iim, dma);
  TxuOut txu_out(zbt, oim, results);
  ProcessUnit pu(config, space, call, iim, oim, dma, result.side);

  EngineRunStats run;
  TraceObserver observer(trace, config);
  FaultObserver fault_observer(trace, fault);
  const u64 cycle_guard =
      10'000'000ull + static_cast<u64>(a.pixel_count()) * 200ull +
      (fault != nullptr ? fault->policy().watchdog_deadline_cycles : 0u);
  while (!dma.output_done()) {
    zbt.begin_cycle();
    dma.tick();
    txu_out.tick();
    pu.tick();
    txu_in.tick();
    ++run.cycles;
    if (run.input_done_cycle == 0 && dma.input_done())
      run.input_done_cycle = run.cycles;
    if (run.processing_done_cycle == 0 && pu.done())
      run.processing_done_cycle = run.cycles;
    observer.observe(run.cycles, dma, pu, results, images);
    fault_observer.observe(run.cycles, dma);
    check_transport(dma, fault, trace, run.cycles);
    AE_ASSERT(run.cycles < cycle_guard,
              "engine simulation exceeded the cycle guard (deadlock?)");
  }
  observer.finish(run.cycles + config.call_setup_overhead_cycles);

  run.strip_retries = dma.strip_retries();
  run.readback_retries = dma.readback_retries();
  run.bus_busy_cycles = dma.busy_cycles();
  run.bus_overhead_cycles = dma.overhead_cycles();
  run.bus_wait_cycles = dma.wait_cycles();
  run.interrupts = dma.interrupts();
  run.words_in = dma.words_in();
  run.words_out = dma.words_out();
  run.plc = pu.plc();
  run.pu_stall_iim = pu.stall_iim();
  run.pu_stall_oim = pu.stall_oim();
  run.pu_wait_frames = pu.wait_frames();
  run.pixels = pu.pixels_produced();
  run.zbt_read_transactions = zbt.processing_read_transactions();
  run.zbt_write_transactions = zbt.processing_write_transactions();
  run.zbt_word_accesses = zbt.word_accesses();
  run.dma_word_accesses = zbt.dma_word_accesses();
  run.iim_parallel_reads = iim.parallel_reads();
  run.iim_block_reads = iim.block_reads();
  run.oim_peak = oim.peak_occupancy();

  add_call_overhead(config, run);
  fill_stats(config, run, result.stats);
  if (detail != nullptr) *detail = run;
  return result;
}

/// Segment-addressing extension (the paper's announced "next step"):
/// geodesic traversal has no strip locality, so the frame is transferred
/// completely, the candidate FIFO walks the segment, and each visit fetches
/// its whole neighborhood directly from the ZBT (one pixel-pair read per
/// cycle) — transaction-level timing rather than per-cycle.
alib::CallResult simulate_segment(const EngineConfig& config,
                                  const alib::Call& call, const img::Image& a,
                                  EngineRunStats* detail,
                                  EngineTrace* trace,
                                  FaultInjector* fault) {
  if (trace != nullptr) trace->record(0, TraceEvent::CallStart);
  const ScanSpace space(a.size(), call.scan);
  ZbtMemory zbt(config, a.size());
  zbt.set_fault(fault);
  ResultTracker results(a.pixel_count());

  alib::CallResult result;
  result.output = img::Image(a.size());

  // Phase 1: full input transfer (cycle-accurate, nothing overlaps).  The
  // CRC-checked transport applies here exactly as in streamed mode; phases
  // 2 and 3 are transaction-level, so readback faults have no opportunity
  // in segment mode.
  BusDma dma(config, space, zbt, a, nullptr, results, result.output, fault);
  FaultObserver fault_observer(trace, fault);
  EngineRunStats run;
  while (!dma.input_done()) {
    zbt.begin_cycle();
    dma.tick();
    ++run.cycles;
    fault_observer.observe(run.cycles, dma);
    check_transport(dma, fault, trace, run.cycles);
    AE_ASSERT(run.cycles < 100'000'000ull, "segment input transfer hung");
  }
  run.input_done_cycle = run.cycles;
  run.strip_retries = dma.strip_retries();

  // Phase 2: traversal.  Functional semantics are shared with the software
  // backend (same expand_segments, same kernels); costs are added per visit.
  result.output = a;
  if (call.segment.write_ids && !call.segment.respect_existing_labels)
    result.output.fill_channel(Channel::Alfa, 0);
  alib::ImageWindow window(a, call.border, call.params.border_constant);
  alib::SegmentTable<alib::SegmentInfo> table;
  const auto nbhd_size = static_cast<u64>(call.nbhd.size());
  const alib::SegmentTraversalStats traversal = alib::expand_segments(
      a, call.segment, table, [&](const alib::SegmentVisit& v) {
        window.move_to(v.position);
        img::Pixel out = alib::apply_intra(
            call.op, call.params, call.nbhd, window, call.in_channels,
            call.out_channels, result.side);
        if (call.segment.write_ids)
          out.alfa = v.segment;
        result.output.ref(v.position.x, v.position.y) = out;
      });

  const auto visits = static_cast<u64>(traversal.processed_pixels);
  const auto tests = static_cast<u64>(traversal.criterion_tests);
  // Per visit: neighborhood fetch (one pixel-pair read per cycle), one
  // kernel cycle; criterion tests one read-and-compare cycle each.  Result
  // writes (2 word cycles through the OIM) overlap the next fetch.
  run.cycles += visits * (nbhd_size + 1) + tests;
  run.processing_done_cycle = run.cycles;
  run.pixels = traversal.processed_pixels;
  run.zbt_read_transactions = visits * nbhd_size + tests;
  run.zbt_write_transactions = visits;
  run.zbt_word_accesses = zbt.word_accesses() +
                          (visits * nbhd_size + tests) * 2 + visits * 2;
  run.dma_word_accesses = zbt.dma_word_accesses();
  run.plc.pixel_cycles = visits;
  run.plc.load_instr = visits;  // every visit is a full matrix LOAD
  run.plc.op_instr = visits;
  run.plc.scan_instr = visits;
  run.plc.store_instr = visits;

  // Phase 3: result transfer back (modelled at sustained bus rate).
  const double words_out = static_cast<double>(a.pixel_count()) * 2.0;
  const double words_per_cycle =
      config.bus_efficiency * (config.bus_width_bits / 32.0);
  const auto out_cycles = static_cast<u64>(words_out / words_per_cycle);
  const i64 strip_pixels =
      static_cast<i64>(config.strip_lines) * space.line_length();
  const auto out_strips = static_cast<u64>(
      (a.pixel_count() + strip_pixels - 1) / strip_pixels);
  run.cycles += out_cycles + out_strips * config.interrupt_overhead_cycles;
  run.bus_busy_cycles = dma.busy_cycles() + out_cycles;
  run.bus_overhead_cycles = dma.overhead_cycles() +
                            out_strips * config.interrupt_overhead_cycles;
  run.interrupts = dma.interrupts() + out_strips;
  run.words_in = dma.words_in();
  run.words_out = static_cast<u64>(words_out);

  result.segments = table.records();
  add_call_overhead(config, run);
  fill_stats(config, run, result.stats);
  result.stats.table_reads = table.reads();
  result.stats.table_writes = table.writes();
  result.stats.criterion_tests = traversal.criterion_tests;
  if (trace != nullptr) {
    trace->record(run.cycles - out_cycles -
                      out_strips * config.interrupt_overhead_cycles,
                  TraceEvent::ProcessingDone, run.pixels);
    trace->record(run.cycles, TraceEvent::OutputDone);
    trace->record(run.cycles, TraceEvent::CallEnd,
                  static_cast<i64>(run.cycles));
  }
  if (detail != nullptr) *detail = run;
  return result;
}

}  // namespace

alib::CallResult simulate_call(const EngineConfig& config,
                               const alib::Call& call, const img::Image& a,
                               const img::Image* b, EngineRunStats* detail,
                               EngineTrace* trace, FaultInjector* fault) {
  validate_config(config);
  alib::validate_call(call, a, b);
  validate_frame(config, a.size());
  if (fault != nullptr && !fault->enabled()) fault = nullptr;
  if (call.mode == alib::Mode::Segment)
    return simulate_segment(config, call, a, detail, trace, fault);
  return simulate_streamed(config, call, a, b, detail, trace, fault);
}

}  // namespace ae::core
