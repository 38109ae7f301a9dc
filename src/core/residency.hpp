// ResidencyModel — the driver's bank-residency policy, defined once.
//
// The board's 6-bank ZBT keeps frames between calls: two input bank pairs
// and the result pair.  Whether a call input is already there decides what
// the call costs — a resident input skips its PCI transfer, a frame left in
// the result banks is relocated on board instead of re-uploaded.  Every
// layer that asks "what is on the board?" replays this one model:
//
//   * core::EngineSession keys it by frame content hash and charges cycles
//     from its placements (and snapshots it for serve::EngineFarm),
//   * analysis::plan_program (aeplan) keys it by frame id to predict those
//     charges statically,
//   * analysis::allocate_residency (aealloc) replays it twice — once with
//     the driver's LRU rule (the baseline) and once with Belady's
//     farthest-next-use rule — and emits the better placement.
//
// Functional results never depend on residency — the model only decides
// what a call is charged — so restoring a saved model (serve/snapshot.hpp)
// is bit-exactness-safe by construction.  The model is a plain value: copy
// it at any call index to resume a replay from there.  Placement never
// allocates, and the victim rule is a template parameter (a ranking
// object), so a replay inside an optimizer's candidate loop costs a few
// compares per input.
//
// Header-only: ae_core links ae_analysis, not the other way round, so the
// analysis passes can only share it as an inline definition.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <span>
#include <tuple>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ae::core {

/// How the model sources one call input.
enum class Placement : u8 {
  Transferred,  ///< full PCI upload (not on board)
  Reused,       ///< already resident in an input bank pair — no PCI traffic
  Relocated,    ///< resident in the result banks; on-board copy, no PCI
};

/// One input bank pair.
struct ResidencySlot {
  u64 key = 0;             ///< frame key; 0 means "empty slot"
  u64 last_use = 0;        ///< use-clock stamp of the last placement here
  bool transient = false;  ///< relocated result, not yet proven reusable
};

/// Position value a next-use lookup returns for a frame never read again.
inline constexpr u64 kNeverUsedAgain = std::numeric_limits<u64>::max();

/// The driver's victim rule: transient (relocated) frames first, then the
/// least recently used; ties go to the lower slot.  Pinned keys are spared
/// while any unpinned slot is free, but pins are ADVISORY — when every
/// unclaimed slot is pinned the rule falls back to transient-then-LRU, so a
/// call always finds a victim and pins can never wedge a session.
struct LruVictims {
  std::span<const u64> pins{};

  static constexpr bool reusable(u64 /*key*/) { return true; }
  /// Lower evicts first.
  std::tuple<bool, bool, u64> order(const ResidencySlot& slot) const {
    const bool pinned =
        slot.key != 0 &&
        std::find(pins.begin(), pins.end(), slot.key) != pins.end();
    return {pinned, !slot.transient, slot.last_use};
  }
};

/// Belady's offline rule (farthest next use): empty slots first, then
/// occupants never read again or whose geometry cannot be reused, then the
/// occupant whose next read is farthest away; ties go to the lower slot.
/// `next_use(key)` returns the position of the key's next read, or
/// kNeverUsedAgain.  `bank_ok(key)` says whether the frame fits a bank pair
/// at all; a frame that does not is never reused or relocated — every use
/// re-uploads it.
template <class NextUse, class BankOk>
struct FarthestNextUse {
  NextUse next_use;
  BankOk bank_ok;

  bool reusable(u64 key) const { return bank_ok(key); }
  /// Lower evicts first.
  u64 order(const ResidencySlot& slot) const {
    if (slot.key == 0) return 0;
    if (!bank_ok(slot.key)) return 1;
    const u64 next = next_use(slot.key);
    return next == kNeverUsedAgain ? 1 : kNeverUsedAgain - next;
  }
};

class ResidencyModel {
 public:
  static constexpr u64 kNoKey = 0;
  static constexpr std::size_t kInputSlots = 2;
  using Slots = std::array<ResidencySlot, kInputSlots>;

  /// Where one input landed.
  struct Placed {
    Placement kind = Placement::Transferred;
    int slot = -1;  ///< input bank pair (0 or 1); -1 for kNoKey inputs
  };

  ResidencyModel() = default;
  ResidencyModel(const Slots& slots, u64 result, u64 use_clock)
      : slots_(slots), result_(result), use_clock_(use_clock) {}

  const Slots& slots() const { return slots_; }
  u64 result() const { return result_; }
  /// Stamps handed out so far; each placement takes the next one.
  u64 use_clock() const { return use_clock_; }

  /// True when `key` sits in an input bank pair or the result banks.
  bool holds(u64 key) const {
    if (key == kNoKey) return false;
    if (result_ == key) return true;
    for (const ResidencySlot& slot : slots_)
      if (slot.key == key) return true;
    return false;
  }

  /// Drops `key` from every bank that holds it (content gone or untrusted).
  void forget(u64 key) {
    for (ResidencySlot& slot : slots_)
      if (slot.key == key) slot = {};
    if (result_ == key) result_ = kNoKey;
  }

  /// Puts `key` into the first empty input pair (a bulk restore or a
  /// migration); false when both pairs are occupied.
  bool install(u64 key) {
    for (ResidencySlot& slot : slots_)
      if (slot.key == kNoKey) {
        slot = ResidencySlot{key, ++use_clock_, false};
        return true;
      }
    return false;
  }

  /// Places one input of the current call and claims the pair it lands in,
  /// so a second input of the same call can neither reuse nor evict it — an
  /// inter call whose inputs share content still needs the frame in *both*
  /// pairs (the AEV210 invariant).  kNoKey (an invalid reference) matches
  /// nothing and claims nothing.  Every placement takes a fresh use stamp.
  template <class Victims = LruVictims>
  Placed place_input(u64 key, const Victims& victims = {}) {
    if (key == kNoKey) return {};
    const bool reusable = victims.reusable(key);
    if (reusable)
      for (std::size_t s = 0; s < kInputSlots; ++s)
        if (!claimed_[s] && slots_[s].key == key)
          return claim(s, key, Placement::Reused);
    const bool from_result = reusable && result_ == key;
    return claim(victim(victims), key,
                 from_result ? Placement::Relocated : Placement::Transferred);
  }

  /// Ends the current call: its output now occupies the result banks and
  /// the input pairs are free to be claimed again.
  void finish_call(u64 result) {
    result_ = result;
    claimed_.fill(false);
  }

 private:
  Placed claim(std::size_t s, u64 key, Placement kind) {
    claimed_[s] = true;
    slots_[s] = ResidencySlot{key, ++use_clock_, kind == Placement::Relocated};
    return Placed{kind, static_cast<int>(s)};
  }

  /// The unclaimed pair `victims` ranks lowest; ties to the lower slot.
  template <class Victims>
  std::size_t victim(const Victims& victims) const {
    std::size_t best = kInputSlots;
    for (std::size_t s = 0; s < kInputSlots; ++s) {
      if (claimed_[s]) continue;
      if (best == kInputSlots ||
          victims.order(slots_[s]) < victims.order(slots_[best]))
        best = s;
    }
    AE_ASSERT(best < kInputSlots,
              "no free input pair: both slots claimed by the current call");
    return best;
  }

  Slots slots_{};
  std::array<bool, kInputSlots> claimed_{};
  u64 result_ = kNoKey;
  u64 use_clock_ = 0;
};

}  // namespace ae::core
