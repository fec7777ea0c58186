// ModuleManager: on-demand module residency with *safe differential
// reconfiguration* and fault recovery.
//
// The paper (section 2.2) rules differential configurations out because
// "the dynamic area is used for multiple configurations in an order that is
// unknown at the time the partial configurations are produced". At run time
// the order IS known: the manager tracks the fabric state it last
// established, generates a differential configuration against it (typically
// 3-4x smaller than the complete one), and relies on the runtime's
// signature + payload-hash gate to catch any stale-state assumption -- on
// a validation failure it falls back to the always-safe complete
// configuration. Fast in the common case, never less safe than the
// BitLinker flow.
//
// Recovery (see docs/FAULTS.md for the full state machine): every failed
// load is retried with bounded exponential backoff; a differential load
// that keeps failing degrades the manager to complete-only; an optional
// readback-verify after each successful load scrubs the dynamic area (a
// complete reload against the golden linker output) when the verification
// hash disagrees. All detection/retry/fallback events emit instants on the
// "RTR.manager" trace track and bump rtr.recovery.* counters.
//
// Plans (link + diff + packet encoding) are memoized in a PlanCache: a
// post-load fabric state is a pure function of the loaded module (see
// plan_cache.hpp), so instead of snapshotting config memory after every
// load the manager records the *generation* at which residency was
// established and validates cached differentials against it. External
// fabric writes bump the generation (fabric/config_memory.cpp) and route
// the next ensure() through the same fallback bookkeeping a failed
// differential load would take -- minus the doomed load itself.
//
// Multi-area hosting (docs/PLACEMENT.md): when the platform exposes more
// than one dynamic area the manager keeps per-area residency/generation
// state and consults an AreaPlacer before every load -- a behaviour that
// is already resident in *any* area is served by re-binding the dock to
// it (rtr.place.activations), no reconfiguration at all; otherwise the
// placer picks the first empty compatible area or LRU-evicts one. All
// placement machinery is bypassed with a single area, keeping that
// configuration bit-for-bit identical to the pre-multi-area manager.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bitstream/partial_config.hpp"
#include "fabric/config_memory.hpp"
#include "hw/library.hpp"
#include "rtr/placer.hpp"
#include "rtr/plan_cache.hpp"
#include "rtr/platform.hpp"
#include "trace/flight_recorder.hpp"

namespace rtr {

/// Knobs of the manager's fault-recovery state machine. The defaults keep
/// the pre-recovery behaviour (one attempt, no verification) except that a
/// failed load is retried -- callers that must observe a single failed
/// attempt set max_attempts = 1.
struct RecoveryPolicy {
  /// Load attempts per ensure() before giving up (>= 1).
  int max_attempts = 3;
  /// CPU cycles of backoff before retry `k` (scaled by 2^k): the driver
  /// polls status, resets the ICAP and waits out transient upsets.
  int backoff_cycles = 64;
  /// Consecutive differential-load failures before the manager degrades to
  /// complete configurations only (0 disables degradation).
  int diff_failures_before_degrade = 2;
  /// Readback-verify the dynamic area after every successful load; on a
  /// hash mismatch, scrub (complete golden reload) and verify again.
  bool verify_after_load = false;
  /// Scrub attempts before a verification failure becomes a giveup.
  int max_scrubs = 2;
  /// Recover through the DMA load path when the platform has one
  /// (Platform::has_dma); ignored on a platform without DMA.
  bool use_dma = false;
};

struct EnsureStats {
  bool ok = false;
  bool already_resident = false;  // no reconfiguration needed
  bool used_differential = false; // loaded the small differential config
  bool fell_back = false;         // differential failed, complete retried
  bool degraded = false;          // this call tripped diff -> complete-only
  bool verified = false;          // post-load readback verification passed
  bool detected = false;          // some failure was detected during ensure
  bool watchdog = false;          // a load was aborted by the load deadline
  bool plan_cached = false;       // the streamed plan came from the cache
  bool activated = false;         // served by re-binding the dock to another
                                  // area's resident module (multi-area only)
  int area = 0;                   // dynamic area the behaviour ended up in
  std::string error;
  sim::SimTime time;              // total simulated time spent
  sim::SimTime detected_at;       // absolute time of the first detection
  std::int64_t stream_words = 0;  // words pushed through the HWICAP
  int attempts = 0;               // complete-path load attempts
  int retries = 0;                // backoff retries taken
  int scrubs = 0;                 // verify-failure scrub reloads
};

namespace detail {

/// The body of ModuleManager (below), compiled once in manager.cpp. It
/// drives either system through the Platform's per-area surface.
class ModuleManagerBase {
 public:
  explicit ModuleManagerBase(Platform& p, bool enable_differential = true)
      : ModuleManagerBase(p, RecoveryPolicy{}, enable_differential) {}
  ModuleManagerBase(Platform& p, RecoveryPolicy policy,
                    bool enable_differential = true)
      : p_(&p),
        policy_(policy),
        differential_(enable_differential),
        areas_(static_cast<std::size_t>(p.area_count())),
        placer_(area_footprints(p)) {}

  [[nodiscard]] RecoveryPolicy& policy() { return policy_; }

  /// Make `id` the resident module (no-op when it already is). The whole
  /// swap is traced as one span on the "RTR.manager" track (load →
  /// reconfigure → activate; the inner reconfiguration span comes from the
  /// platform), with instants marking residency hits, retries, fallbacks
  /// and scrubs.
  EnsureStats ensure(hw::BehaviorId id, int dock_width);

  /// Behaviour the dock currently serves: the active area's resident (with
  /// one area, simply the resident), -1 when none.
  [[nodiscard]] int resident() const {
    if (!multi()) return areas_.front().resident;
    const int a = p_->active_area();
    return a < 0 ? -1 : areas_[static_cast<std::size_t>(a)].resident;
  }
  /// Behaviour resident in `area` (-1 when empty) -- co-resident modules in
  /// non-active areas stay warm and activate without reconfiguration.
  [[nodiscard]] int resident_in(int area) const {
    return areas_[static_cast<std::size_t>(area)].resident;
  }
  /// True when `id` is warm in some area: the next ensure(id) is a hit (at
  /// worst a dock re-bind). The serving layer's affinity dispatch keys off
  /// this to batch requests per resident configuration.
  [[nodiscard]] bool is_resident(hw::BehaviorId id) const {
    for (const AreaState& st : areas_) {
      if (st.resident == static_cast<int>(id)) return true;
    }
    return false;
  }
  /// The placement decision core (inspection/tests).
  [[nodiscard]] const AreaPlacer& placer() const { return placer_; }
  /// True once repeated differential failures locked the manager onto the
  /// always-safe complete path.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Enable/disable plan memoization. Disabling clears the cache and makes
  /// every ensure() re-link, re-diff and re-encode from scratch -- the
  /// honest uncached baseline for A/B benchmarking. Simulated behaviour is
  /// identical either way (the cache only removes host-side work).
  void set_plan_cache_enabled(bool on) {
    cache_enabled_ = on;
    if (!on) cache_.clear();
  }
  [[nodiscard]] const PlanCache& plan_cache() const { return cache_; }

  /// Build (off the simulated clock) the plans a future ensure(id) would
  /// need: the complete plan for the area the placer would pick, plus the
  /// differential plan from that area's resident when the differential
  /// path is live and the area generation still matches the manager's
  /// assumption. Returns false when the cache is disabled or the component
  /// does not link.
  bool warm(hw::BehaviorId id, int dock_width);

  /// Drop the manager's state assumption (e.g. after an external event
  /// touched the fabric); the next ensure() uses the complete path. Also
  /// bumps the fabric generation so any plan warmed against the old
  /// assumption fails its tag check.
  void invalidate() {
    for (AreaState& st : areas_) st = AreaState{};
    placer_.reset();
    p_->bump_fabric_generation();
  }

  /// Lift the diff -> complete-only degradation (e.g. after the fault that
  /// caused it was repaired and a probe load succeeded); the next ensure()
  /// may use the differential path again.
  void reset_degraded() {
    degraded_ = false;
    diff_failures_ = 0;
  }

  /// Probation hook (fleet health, docs/FLEET_HEALTH.md): readback-verify
  /// every area that claims a resident module, scrubbing (complete golden
  /// reload) on mismatch exactly like the post-load verify path. An area
  /// that still fails after max_scrubs is cleared so the next ensure
  /// rebuilds it from scratch. Returns true when every resident area ended
  /// up verified -- the gate a quarantined device must pass to re-enter
  /// the routing pool.
  bool verify_and_scrub_residents(int dock_width);

 private:
  struct AreaState {
    int resident = -1;      // behaviour hosted by this area, -1 when empty
    bool have_base = false; // residency + generation tag are valid
    std::uint64_t gen = 0;  // area generation at which residency was set
  };

  [[nodiscard]] bool multi() const { return areas_.size() > 1; }

  static std::vector<fabric::AreaFootprint> area_footprints(Platform& p) {
    std::vector<fabric::AreaFootprint> f;
    f.reserve(static_cast<std::size_t>(p.area_count()));
    for (int a = 0; a < p.area_count(); ++a) {
      f.push_back(p.region(a).footprint());
    }
    return f;
  }

  /// Forget everything about `area` after a load destroyed its occupant
  /// and recovery gave up: the next ensure targeting it takes the complete
  /// path, and the placer sees it as empty.
  void clear_area(int area) {
    areas_[static_cast<std::size_t>(area)] = AreaState{};
    if (multi()) placer_.evict(area);
  }

  EnsureStats ensure_impl(hw::BehaviorId id, int dock_width);

  /// A watchdog-aborted load: retrying past the deadline is pointless, so
  /// every abort is an immediate giveup (distinct counter + instant so the
  /// trace separates deadline kills from device failures).
  EnsureStats watchdog_giveup(EnsureStats& res, sim::SimTime t0, int area) {
    res.watchdog = true;
    counter("rtr.recovery.watchdog_aborts").add();
    mark("watchdog_abort");
    counter("rtr.recovery.giveups").add();
    mark("giveup");
    incident("rtr_giveup");
    clear_area(area);
    res.time = p_->kernel().now() - t0;
    return res;
  }

  /// A load bound a module. Optionally readback-verify the dynamic area,
  /// scrubbing (complete golden reload) on mismatch, then record residency
  /// plus the area generation it was established at.
  EnsureStats finish_load(hw::BehaviorId id, int dock_width, EnsureStats& res,
                          sim::SimTime t0, int area);

  /// Stream a pre-built complete plan, routed through DMA when asked for
  /// and the platform has one.
  ReconfigStats load_complete(const PlanCache::Plan& plan, int area) {
    if (policy_.use_dma && p_->has_dma()) {
      return p_->load_stream_dma(plan.words, plan.payload_bytes,
                                 /*differential=*/false, area);
    }
    return p_->load_stream(plan.words, plan.payload_bytes,
                           /*differential=*/false, area);
  }

  sim::Counter& counter(const char* name) {
    return p_->sim().stats().counter(name);
  }

  void mark(const char* what) {
    trace::Tracer& tr = p_->sim().tracer();
    if (tr.enabled()) {
      tr.instant(tr.track("RTR.manager"), what, p_->kernel().now());
    }
  }

  /// Recovery exhausted its options: trip the flight recorder (when one is
  /// armed) with the owning request, if any, for the snapshot header.
  void incident(const char* kind) {
    if (trace::FlightRecorder* fr = p_->sim().flight_recorder()) {
      const sim::RequestContext* rq = p_->sim().active_request();
      fr->trigger(kind, rq != nullptr ? rq->id : -1, p_->kernel().now());
    }
  }

  void detect(EnsureStats& res, int area) {
    if (!res.detected) {
      res.detected = true;
      res.detected_at = p_->kernel().now();
    }
    counter("rtr.recovery.detections").add();
    // Any detected failure may have left the fabric (or our picture of it)
    // inconsistent -- readback faults in particular never write config
    // memory. Move the target area's generation so plans warmed against
    // the pre-fault state fail their tag check; successful recovery
    // re-reads the tag in finish_load, so the differential path resumes
    // immediately after. Only the loaded area's tag moves: a co-resident
    // area was not party to the failure, and invalidating it would count a
    // phantom diff failure toward degrade on its next ensure.
    p_->bump_area_generation(area);
  }

  Platform* p_;
  RecoveryPolicy policy_;
  bool differential_;
  bool degraded_ = false;
  int diff_failures_ = 0;
  bool cache_enabled_ = true;
  std::vector<AreaState> areas_;  // index == platform area index
  AreaPlacer placer_;             // consulted only when areas_.size() > 1
  PlanCache cache_;
};

}  // namespace detail

/// The module manager. Its template parameter is unused:
/// benchmark/rtrsim_bench.cpp names ModuleManager<Platform32> and
/// ModuleManager<Platform64>, so the parameter stays until that benchmark
/// stops naming it. Every instantiation is the one compiled body; elsewhere
/// let the constructor deduce ModuleManager<> (ModuleManager mgr{p}).
template <typename = Platform>
class ModuleManager final : public detail::ModuleManagerBase {
 public:
  using ModuleManagerBase::ModuleManagerBase;
};
template <typename... Args>
ModuleManager(Platform&, Args&&...) -> ModuleManager<>;

}  // namespace rtr
