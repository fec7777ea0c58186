// Fleet health tracking: per-device failure scoring, quarantine/drain,
// probation and readmission (docs/FLEET_HEALTH.md).
//
// Without health tracking the fleet treats every shard as permanently
// healthy; one persistently faulty device silently eats its affinity-routed
// share of traffic. The HealthTracker closes that gap deterministically:
// the fleet runner serves the arrival stream in *epochs* (a fixed number of
// arrivals each), and at every epoch boundary -- in the serial phase, so
// byte-determinism at any -j is untouched -- it folds each shard's
// completion signals (watchdog aborts, recovery giveups, breaker opens,
// device fail-stops, SLO burn) into an EWMA-style integer score and drives
// a per-device state machine:
//
//   healthy -> suspect -> quarantined -> draining -> probation -> healthy
//
// Quarantine removes the shard from the FleetRouter's candidate sets; its
// failed requests are re-dispatched to survivors under a per-request retry
// budget (typed retry_exhausted when it runs out); probation replays
// readback-verify-then-scrub on every resident area before readmitting at
// reduced routing weight. Scores decay by half per epoch, so a device
// whose faults stop firing (or were repaired) earns its way back.
//
// All tracker state is integer arithmetic over per-epoch signal counts --
// a pure function of the completion stream -- and every decision happens
// serially in device-index order: the whole feedback loop is replayable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/fleet/router.hpp"

namespace rtr::serve::fleet {

/// Knobs of the fleet's device-failure feedback loop. Disabled by default:
/// run_fleet with health.enabled == false serves the whole stream as one
/// epoch and never observes a signal.
struct HealthPolicy {
  bool enabled = false;
  /// Arrivals per epoch: the serial checkpoint cadence. Smaller epochs
  /// react faster but pay more (serial) routing barriers.
  int epoch_arrivals = 100;
  /// Re-dispatches allowed per request before a typed retry_exhausted.
  int retry_budget = 2;
};

/// Score at/above which a device is flagged suspect (still routed).
inline constexpr int kSuspectThreshold = 8;
/// Score at/above which a device is quarantined (drained + unrouted).
inline constexpr int kQuarantineThreshold = 24;
/// Clean epochs on probation before full readmission.
inline constexpr int kProbationEpochs = 2;
/// Router weight penalty (phantom backlog depth) while on probation.
inline constexpr int kProbationPenalty = 4;
// Signal weights (added to the decayed score each epoch, per event).
inline constexpr int kFailStopWeight = 32;    // device refused a dispatch
inline constexpr int kGiveupWeight = 8;       // recovery exhausted (hw path)
inline constexpr int kWatchdogWeight = 6;     // watchdog aborted a transfer
inline constexpr int kBreakerOpenWeight = 6;  // a breaker opened on it
inline constexpr int kDetectedWeight = 2;     // a fault was detected
inline constexpr int kSloBreachWeight = 4;    // an SLO burn alert fired

enum class DeviceState : int {
  kHealthy = 0,
  kSuspect,      // flagged, still routed
  kQuarantined,  // removed from routing; failures being re-dispatched
  kDraining,     // re-dispatches routed; waiting for the score to decay
  kProbation,    // scrubbed and readmitted at reduced weight
};
[[nodiscard]] const char* device_state_name(DeviceState s);

/// One epoch's failure evidence from one shard, distilled from its new
/// completions (and report deltas) in the serial phase.
struct HealthSignals {
  int fail_stops = 0;
  int giveups = 0;
  int watchdogs = 0;
  int breaker_opens = 0;
  int detections = 0;
  int slo_breaches = 0;
  [[nodiscard]] bool any() const {
    return fail_stops + giveups + watchdogs + breaker_opens + detections +
               slo_breaches >
           0;
  }
};

/// A state transition, recorded for the report, the fleet.health.*
/// counters and the FLEET.health trace track.
struct HealthEvent {
  int epoch = 0;
  int device = 0;
  DeviceState from = DeviceState::kHealthy;
  DeviceState to = DeviceState::kHealthy;
  int score = 0;           // score after this epoch's fold
  std::int64_t at_ps = 0;  // stream time of the epoch boundary
};

/// Deterministic per-device health scoring + state machine. The tracker
/// never touches a platform itself: the epoch runner feeds it signals and
/// hands it a probe callback (readback-verify-then-scrub on the device)
/// for the probation gate.
class HealthTracker {
 public:
  HealthTracker(const HealthPolicy& policy, int devices);

  /// Fold one shard's epoch signals in (called once per shard per epoch,
  /// before tick()).
  void observe(int device, const HealthSignals& s);

  /// Epoch boundary: decay scores, apply the observed signals, and walk
  /// every device's state machine in index order. Quarantine decisions
  /// update `router` availability/weights; a device entering probation
  /// must pass `probe(device)` (verify-then-scrub) to be readmitted.
  /// A soft-signal quarantine is refused while the device is the last one
  /// available (fail-stop evidence quarantines unconditionally).
  /// Transitions are appended to `events`.
  void tick(int epoch, std::int64_t at_ps, FleetRouter& router,
            const std::function<bool(int)>& probe,
            std::vector<HealthEvent>* events);

  [[nodiscard]] DeviceState state(int device) const {
    return dev_[static_cast<std::size_t>(device)].state;
  }
  [[nodiscard]] int score(int device) const {
    return dev_[static_cast<std::size_t>(device)].score;
  }
  [[nodiscard]] const HealthPolicy& policy() const { return policy_; }

 private:
  struct Device {
    DeviceState state = DeviceState::kHealthy;
    int score = 0;
    int clean_epochs = 0;     // consecutive signal-free epochs on probation
    HealthSignals pending;    // observed since the last tick
  };

  HealthPolicy policy_;
  std::vector<Device> dev_;
};

}  // namespace rtr::serve::fleet
