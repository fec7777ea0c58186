// Deterministic fault injection for the reconfiguration path.
//
// A FaultPlan schedules faults by *site* (where in the modelled hardware
// the upset happens) and *trigger* (at which opportunity it fires); a
// FaultInjector executes the plan at run time. Every run-time choice --
// which bit flips, whether a DMA beat is dropped or duplicated, whether a
// bus slave errors or times out -- derives from the spec's seed, so
// identical plans produce byte-identical simulations.
//
// Sites and their opportunity streams (an "opportunity" is one event at
// which the site *could* fault; triggers index into that stream):
//   storage    one per configuration staged in external memory (per load);
//   icap       one per word written to the HWICAP data window;
//   dma        one per 64-bit beat moved by the scatter-gather DMA engine;
//   bus        one per single-beat bus transaction (OPB and PLB together);
//   readback   one per FDRO word popped during configuration readback;
//   fail_stop  one per request dispatch -- a whole-device failure: once it
//              fires the device rejects every load and execution (stuck@N
//              models a crash at the Nth dispatch);
//   brownout   one per request dispatch -- when it fires, a seeded burst of
//              staged-configuration corruption hits the next few loads
//              (intermittent upsets the recovery ladder usually survives).
//
// A spec may additionally be scoped to one *device* of a fleet
// (FaultSpec::device, text form "site:trigger:seed:device"); the fleet
// layer filters a shared plan per shard with FaultPlan::for_device.
//
// Injection only perturbs the modelled hardware; detection is downstream
// and unchanged: the ICAP CRC/framing state machine, the region
// signature/payload-hash gate, and readback-verify. Recovery lives in
// rtr::ModuleManager (retry with bounded backoff, complete-bitstream
// fallback, readback-verify-then-scrub); see docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rtr::sim {
class Simulation;
class Counter;
}  // namespace rtr::sim

namespace rtr::fault {

enum class Site {
  kConfigStorage = 0,  // staged bitstream words in external memory
  kIcap,               // the HWICAP write datapath
  kDma,                // 64-bit beats inside the DMA engine
  kBus,                // single-beat OPB/PLB transactions
  kReadback,           // FDRO words during configuration readback
  kFailStop,           // whole device: rejects all loads/execs once fired
  kBrownout,           // whole device: intermittent multi-site error bursts
};
inline constexpr int kSiteCount = 7;

[[nodiscard]] const char* site_name(Site s);
[[nodiscard]] bool site_from_name(std::string_view name, Site* out);

/// When a fault fires relative to its site's opportunity stream.
enum class TriggerKind {
  kOnce,   // "once@N": fire exactly at opportunity N, then disarm
  kEvery,  // "every@N": fire at every Nth opportunity (N, 2N, ...)
  kStuck,  // "stuck@N": fire at opportunity N and every one after (sticky)
  kRand,   // "rand": fire once at a seeded-random opportunity in [0, 65536)
};

/// One scheduled fault. Text form (the CLI's --fault-spec):
///   <site>:<trigger>:<seed>[:<device>]
/// e.g. "icap:once@20000:7", "bus:stuck@50:1", "fail_stop:stuck@60:1:0".
struct FaultSpec {
  Site site = Site::kIcap;
  TriggerKind kind = TriggerKind::kOnce;
  std::uint64_t n = 0;     // once/stuck: opportunity index; every: period
  std::uint64_t seed = 1;  // drives bit/word/beat/kind choices (and rand)
  std::int64_t word = -1;  // storage only: staged word index (-1 = seeded)
  std::uint32_t mask = 0;  // storage only: fixed XOR mask (0 = seeded bit)
  int device = -1;         // fleet shard this spec targets (-1 = every one)

  /// Parse "site:trigger:seed[:device]". Returns false (untouched *out) on
  /// garbage.
  static bool parse(std::string_view text, FaultSpec* out);
  [[nodiscard]] std::string to_string() const;
};

/// An ordered set of FaultSpecs; value type, carried by PlatformOptions.
class FaultPlan {
 public:
  void add(const FaultSpec& spec) { specs_.push_back(spec); }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }

  /// The slice of the plan one fleet shard arms: every spec targeting
  /// `device` plus the untargeted ones, in plan order.
  [[nodiscard]] FaultPlan for_device(int device) const {
    FaultPlan out;
    for (const FaultSpec& s : specs_) {
      if (s.device < 0 || s.device == device) out.add(s);
    }
    return out;
  }

 private:
  std::vector<FaultSpec> specs_;
};

enum class BeatFault { kNone, kDrop, kDuplicate };
enum class BusFault { kNone, kSlaveError, kTimeout };

/// Executes a FaultPlan. One injector per platform (attached to its
/// Simulation like the tracer); components query it at their injection
/// points through Simulation::faults(), which is null when no plan is
/// armed. All state is per-injector, so concurrent simulations (the sweep
/// runner) stay independent and deterministic.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Register stat counters ("fault.opportunities.<site>",
  /// "fault.injected.<site>") and the trace track ("FAULT") with `sim`.
  /// Must be called before the injector observes any opportunity.
  void bind(sim::Simulation& sim);

  // --- injection points (called by the modelled hardware) ---------------
  /// storage: corrupt one staged word (per-load opportunity).
  void corrupt_staged(std::vector<std::uint32_t>& words, sim::SimTime now);
  /// icap: filter one word entering the HWICAP data window.
  [[nodiscard]] std::uint32_t filter_icap_word(std::uint32_t w,
                                               sim::SimTime now);
  /// readback: filter one FDRO word leaving the HWICAP.
  [[nodiscard]] std::uint32_t filter_readback_word(std::uint32_t w,
                                                   sim::SimTime now);
  /// dma: drop/duplicate beats of one burst (one opportunity per beat).
  void filter_beats(std::vector<std::uint64_t>& beats, sim::SimTime now);
  /// bus: fault class of the next single-beat transaction.
  [[nodiscard]] BusFault bus_fault(sim::SimTime now);

  /// What the fail_stop/brownout sites did at one request dispatch.
  struct DispatchFault {
    bool fail_stop = false;  // device is down: reject the dispatch outright
    bool brownout = false;   // a corruption burst was armed for coming loads
  };
  /// fail_stop/brownout: one opportunity per request dispatch. No-op (no
  /// opportunity counted) when the plan has no whole-device specs, so
  /// plans without them stay byte-identical to pre-device-fault runs.
  DispatchFault on_dispatch(sim::SimTime now);

  // --- repair and introspection ------------------------------------------
  /// Clear sticky/periodic faults at `s` (models fixing the failed part).
  void repair(Site s);
  void repair_all();

  /// True while a spec that has not fired for good or been repaired sits
  /// at a per-transaction site (bus, icap, dma or readback). Without one,
  /// an opportunity at those sites only advances its index.
  [[nodiscard]] bool per_transaction_active() const;
  /// Count `n` opportunities at `s` without firing: the closed-form CPU
  /// loops' advance over the iterations they do not run one by one. Only
  /// valid while no spec is active at `s`.
  void count_quiet(Site s, std::int64_t n);

  [[nodiscard]] std::int64_t opportunities(Site s) const {
    return opportunities_[static_cast<int>(s)];
  }
  [[nodiscard]] std::int64_t injected(Site s) const {
    return injected_[static_cast<int>(s)];
  }
  [[nodiscard]] std::int64_t injected_total() const;
  /// Simulated time of the first fault actually injected.
  [[nodiscard]] sim::SimTime first_injection() const { return first_; }

 private:
  struct Armed {
    FaultSpec spec;
    sim::Rng rng;
    bool active = true;
    std::uint64_t fire_at = 0;  // resolved target (once/stuck/rand)
  };

  /// Count one opportunity at `s`; return the spec that fires (or null).
  Armed* fire(Site s, sim::SimTime now);
  void record(Site s, sim::SimTime now);

  std::vector<Armed> armed_;
  bool has_device_faults_ = false;  // any fail_stop/brownout spec armed
  std::uint64_t brownout_loads_left_ = 0;  // loads left in the active burst
  sim::Rng brownout_rng_{1};  // per-burst choices, reseeded when it fires
  std::int64_t opportunities_[kSiteCount] = {};
  std::int64_t injected_[kSiteCount] = {};
  sim::SimTime first_;
  bool fired_ever_ = false;

  sim::Simulation* sim_ = nullptr;
  sim::Counter* opp_ctr_[kSiteCount] = {};
  sim::Counter* inj_ctr_[kSiteCount] = {};
  int trace_track_ = -1;
};

}  // namespace rtr::fault
