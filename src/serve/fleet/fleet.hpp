// FleetServer: fleet-scale serving across N simulated devices.
//
// A fleet run has three phases, and the phase boundaries are what make it
// deterministic at any host worker count (docs/SERVING.md, "Fleet"):
//
//   1. generate: an open-loop arrival stream -- Zipf-popular behaviours,
//      seeded interarrival gaps, globally ordered request ids. Ids are
//      assigned *before* routing, so a request's input seed (and therefore
//      its digest) is invariant under every routing policy: the A/B swap
//      comparison compares identical work.
//   2. route: the FleetRouter serially assigns every arrival to a shard
//      (affinity first, stealing after; see router.hpp). Output: one
//      request script per shard, sorted by submission time.
//   3. serve + merge: each shard is one persistent Platform + TaskServer
//      (its own ModuleManager, plan cache, breakers, watchdogs) replaying
//      its script open-loop on its own simulated clock. Shards share
//      nothing, so they run on a host thread pool; results land in slots
//      fixed by shard index and the per-shard registries merge serially in
//      index order (StatRegistry::merge of accumulators is order-sensitive
//      in the last floating-point bit).
//
// Phases 2 and 3 repeat per *epoch*. With health tracking on
// (docs/FLEET_HEALTH.md) an epoch is a fixed number of arrivals, and at
// each boundary the serial phase folds the shards' failure signals into
// the HealthTracker and re-dispatches failed requests. With it off the
// whole stream is a single epoch and nothing is observed.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "serve/fleet/health.hpp"
#include "serve/fleet/router.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rtr::serve::fleet {

struct FleetOptions {
  int devices = 8;
  /// Device systems (32/64), cycled across shard indices: {64, 32} makes
  /// an alternating XC2VP30/XC2VP7 fleet.
  std::vector<int> mix = {64, 32};
  bool affinity = true;
  int steal_threshold = 4;  // 0 disables work stealing
  bool plan_cache = true;
  /// Co-resident dynamic areas per device (docs/PLACEMENT.md). 64-bit
  /// shards host min(areas, kMaxAreasXc2vp30); 32-bit shards always 1
  /// (the XC2VP7 has no room for a second area).
  int areas = 1;
  std::size_t queue_capacity = 64;  // per-shard admission bound
  /// Per-shard swap-aware batching (docs/SERVING.md "Batching"). Batching
  /// runs inside each serial shard, so any -j remains byte-identical.
  BatchPolicy batch;
  int jobs = 1;                     // host worker threads for shard runs
  std::uint64_t seed = 1;
  /// Device failure model (docs/FLEET_HEALTH.md). Disabled runs the whole
  /// stream as one epoch: no signals, no re-dispatch, no transitions.
  HealthPolicy health;
  /// Chaos plan shared across the fleet: each shard arms the slice
  /// FaultPlan::for_device(shard index) -- device-scoped specs
  /// ("site:trigger:seed:device") hit only that shard.
  fault::FaultPlan fault_plan;
  /// Repair every shard's armed faults at the start of this epoch (models
  /// field repair; -1 = never). With health off the only epoch is 0. The
  /// quarantine-then-recover chaos scenario keys off this.
  int repair_at_epoch = -1;
  /// Per-shard SLO engines (serve/slo.hpp); burn alerts feed the health
  /// score as w_slo_breach signals.
  std::vector<SloSpec> slos;
  /// Optional tracer for the serial FLEET.health track (state transitions
  /// at epoch boundaries, stamped with stream time). Never attached to the
  /// shard platforms -- those run in parallel.
  trace::Tracer* tracer = nullptr;
};

/// Open-loop fleet arrival stream (contrast the closed-loop WorkloadSpec:
/// fleet traffic models independent clients, not a fixed thinking pool).
struct FleetWorkloadSpec {
  int requests = 2000;
  /// Mean interarrival gap, uniform on [0, 2x mean] like draw_think_ps.
  std::int64_t mean_gap_ps = sim::SimTime::from_us(800).ps();
  std::int64_t rel_deadline_ps = sim::SimTime::from_ms(250).ps();
  int zipf_skew = 1;  // popularity skew over fleet_behaviors(); 0 = uniform
};

/// The six hardware behaviours fleet traffic draws from, most popular
/// first (SHA-1 ranked last: only the 64-bit shards can host it).
const std::vector<hw::BehaviorId>& fleet_behaviors();

/// Phase 1: the seeded arrival stream, ids 1..n in submission order.
std::vector<Request> make_fleet_stream(const FleetWorkloadSpec& w,
                                       std::uint64_t seed);

struct ShardOutcome {
  int system = 64;
  std::int64_t routed = 0;
  std::int64_t swaps = 0;     // reconfigurations actually performed
  std::int64_t final_ps = 0;  // shard's simulated clock at drain
  ServeReport report;
  sim::StatRegistry stats;
};

struct FleetReport {
  std::vector<ShardOutcome> shards;
  FleetRouter::Counters route;
  std::int64_t requests = 0;
  std::int64_t served_hw = 0;
  std::int64_t degraded = 0;
  std::int64_t shed = 0;
  std::int64_t expired = 0;
  std::int64_t deadline_miss = 0;
  std::int64_t failed = 0;
  std::int64_t swaps = 0;
  bool digests_ok = true;
  // Health tracking only (zero / empty when health is disabled):
  std::int64_t redispatched = 0;     // drain re-dispatches onto survivors
  std::int64_t retry_exhausted = 0;  // requests whose retry budget ran out
  std::int64_t no_healthy_device = 0;  // typed admission failures: every
                                       // capable shard was quarantined
  std::vector<HealthEvent> health_events;  // state transitions, in order
  /// All shard registries merged (in shard order), plus the fleet.* series:
  /// fleet.latency_ps, fleet.shard.<i>.latency_ps, fleet.route.*, and --
  /// with health enabled -- fleet.health.* / fleet.redispatch.*.
  sim::StatRegistry stats;
};

/// Reconfigurations a shard actually streamed, read back from its merged
/// rtr.ensure.latency_ps.{cached,differential,complete} series.
[[nodiscard]] std::int64_t count_swaps(const sim::StatRegistry& stats);

/// Run the whole fleet: generate, then route and serve on `opts.jobs` host
/// threads epoch by epoch, then merge. Byte-identical output per (opts,
/// spec) at any jobs. With opts.health.enabled each epoch ends with the
/// HealthTracker's serial collect and tick (health.hpp); otherwise the
/// stream is one epoch.
FleetReport run_fleet(const FleetOptions& opts, const FleetWorkloadSpec& w);

}  // namespace rtr::serve::fleet
