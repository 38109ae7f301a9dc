// EngineSession — a driver-level what-if study on top of the engine.
//
// The 2005 prototype re-transferred every input frame on every AddressLib
// call and always read the result back ("the communication ... is
// interrupt oriented and happens through the PCI bus").  Call-heavy
// workloads pay for that: the GME loop sends the reference frame again on
// every iteration and reads back difference pictures whose only useful
// content is the side-port sums.
//
// EngineSession models a smarter driver on unchanged hardware:
//   * frame residency — the ZBT keeps the last frames; an input whose
//     content is already on board skips its transfer (an on-board
//     bank-to-bank copy at one pixel per two cycles when it sits in the
//     result banks).  Which frames are on board is core::ResidencyModel
//     (core/residency.hpp), keyed here by content hash; aeplan and aealloc
//     replay the same model keyed by frame id, so their predictions are
//     this session's charges,
//   * side-only readback elision — calls whose value is entirely in the
//     side port (Sad, Histogram, GmeAccum, GmeAccumAffine) skip the result
//     readback.
// Functional results are produced exactly as always; only the timing model
// changes.  On the analytic path the pixels come from alib::KernelBackend
// (bit-exact with the interpreter, including the segment traversal counts
// the timing model prices).  The `session_optimization` bench quantifies
// the effect on the Table 3 workload.
#pragma once

#include <vector>

#include "addresslib/call.hpp"
#include "addresslib/kernels/kernel_backend.hpp"
#include "core/analytic.hpp"
#include "core/config.hpp"
#include "core/residency.hpp"

namespace ae::core {

class EngineTrace;
class FaultInjector;

struct SessionOptions {
  bool skip_side_only_readback = true;
  /// Run the aeverify static rule set (analysis/verifier.hpp) over every
  /// call before touching the board; ill-formed calls throw
  /// analysis::VerificationError instead of tripping asserts mid-flight.
  bool validate_before_execute = false;
};

/// Content hash of a frame as the residency tables key it.  Each pixel is
/// one 64-bit word, `lower_word() | upper_word() << 32` (never the raw
/// bytes: Pixel has a padding byte), fed round-robin into four independent
/// multiply-rotate lanes; the lanes fold together with the dimensions and
/// a final avalanche.  Never 0, which means "empty slot".  Exposed so
/// schedulers above the session (serve::EngineFarm) can route by residency
/// affinity without re-deriving the hashing scheme.
u64 frame_content_hash(const img::Image& image);

/// Phase split of one executed call, in engine cycles — the non-blocking
/// strip-progress view a pipelining scheduler needs: while a call is in its
/// post-input phases (processing tail + result readback), the bus-side input
/// phase of the *next* call can already stream strips into the free bank
/// pair.  `input_cycles` counts bus transfer + strip-interrupt overhead of
/// the inputs; `post_input_cycles` is everything after the last input word
/// (tail processing, result readback, completion handshake).
struct CallPhases {
  u64 input_cycles = 0;
  u64 post_input_cycles = 0;
  u64 total_cycles = 0;
};

struct SessionStats {
  i64 calls = 0;
  i64 inputs_transferred = 0;
  i64 inputs_reused = 0;      ///< already on board, no PCI traffic
  i64 board_copies = 0;       ///< ZBT-to-ZBT relocations
  i64 outputs_read_back = 0;
  i64 outputs_elided = 0;     ///< side-only calls, no readback
  u64 strip_retries = 0;      ///< fault mode: strip retransmissions
  u64 readback_retries = 0;   ///< fault mode: whole-result re-reads
  u64 cycles = 0;

  double seconds(const EngineConfig& config) const {
    return static_cast<double>(cycles) * config.seconds_per_cycle();
  }
};

/// True if the host consumes only the side port of this op (the output
/// image is a by-product).
bool is_side_only_op(alib::PixelOp op);

/// The `validate_before_execute` guard, shared by EngineSession,
/// ResilientSession and serve::EngineFarm: statically verifies one call
/// against `config` (the aeverify rule set, including the duplicate-slot
/// aliasing check via frame content hashes) and throws
/// analysis::VerificationError on any error-severity finding.
void static_verify_call(const EngineConfig& config, const alib::Call& call,
                        const img::Image& a, const img::Image* b);

class EngineSession : public alib::Backend {
 public:
  explicit EngineSession(EngineConfig config = {}, SessionOptions options = {});

  std::string name() const override;
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override;

  const SessionStats& stats() const { return stats_; }
  const EngineConfig& config() const { return config_; }
  /// Phase split of the most recent call (all-zero before the first call).
  /// Residency reuse is already folded in: a call whose inputs were all
  /// resident reports `input_cycles == 0`.
  const CallPhases& last_phases() const { return last_phases_; }
  /// Forgets all residency (e.g. the host reused the buffers).  Also drops
  /// any active pins — pinned content is gone with the slots.
  void invalidate();

  /// Replaces the set of pinned frame hashes.  A pinned frame resident in
  /// an input pair is spared by victim selection while any unpinned slot is
  /// available; the pin is ADVISORY — when every evictable slot is pinned,
  /// LRU applies as if nothing were pinned (a call must always find a
  /// victim), so pins can never wedge a session.  Plan-directed execution
  /// (serve::EngineFarm residency plans, analysis/alloc.hpp keep sets) pins
  /// per call and clears with an empty vector; zero hashes are ignored.
  void pin_frames(const std::vector<u64>& hashes);

  /// The residency model, keyed by frame content hash — a plain value
  /// (shard checkpointing serializes it, serve/snapshot.hpp).
  const ResidencyModel& residency() const { return residency_; }
  /// Installs previously exported residency, replacing the current tables.
  /// The use clock never rewinds — LRU ordering of frames the session
  /// touched after the snapshot stays ahead of the restored entries.
  void restore_residency(const ResidencyModel& residency);

  /// Attaches a transport adversary: subsequent calls run through the full
  /// cycle simulator with the injector in the loop and may throw
  /// `TransportFailure`.  Residency reuse is off on this path — the
  /// transfers must actually happen for the CRCs to protect them — and the
  /// residency table is invalidated on attach/detach.  Pass nullptr (or a
  /// disabled injector) to restore the analytic fast path.
  void set_fault(FaultInjector* fault);
  FaultInjector* fault() const { return fault_; }
  /// Timeline sink for simulated (faulted) calls; may be null.
  void set_trace(EngineTrace* trace) { trace_ = trace; }

 private:
  alib::CallResult execute_simulated(const alib::Call& call,
                                     const img::Image& a,
                                     const img::Image* b);

  // Threading contract: an EngineSession (and the SessionStats it
  // accumulates) is single-owner — exactly one thread may call execute().
  // Concurrency lives a layer up: serve::EngineFarm pins each session to
  // its shard worker thread and publishes stats snapshots under a lock.
  EngineConfig config_;
  SessionOptions options_;
  SessionStats stats_;
  CallPhases last_phases_;
  ResidencyModel residency_;
  std::vector<u64> pinned_;
  FaultInjector* fault_ = nullptr;
  EngineTrace* trace_ = nullptr;
  alib::KernelBackend kernels_;
};

}  // namespace ae::core
