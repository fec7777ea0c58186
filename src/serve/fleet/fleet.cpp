#include "serve/fleet/fleet.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "rtr/platform.hpp"
#include "sim/parallel.hpp"

namespace rtr::serve::fleet {

const std::vector<hw::BehaviorId>& fleet_behaviors() {
  static const std::vector<hw::BehaviorId> kRanked = {
      hw::kJenkinsHash, hw::kBrightness, hw::kBlendAdd,
      hw::kFade,        hw::kPatternMatcher, hw::kSha1,
  };
  return kRanked;
}

std::vector<Request> make_fleet_stream(const FleetWorkloadSpec& w,
                                       std::uint64_t seed) {
  const std::vector<TaskMix> mix = zipf_mix(fleet_behaviors(), w.zipf_skew);
  sim::Rng rng{seed};
  std::vector<Request> stream;
  stream.reserve(static_cast<std::size_t>(w.requests));
  std::int64_t at_ps = 0;
  for (int i = 0; i < w.requests; ++i) {
    // Same integer-only uniform-[0, 2x mean] draw as draw_think_ps.
    at_ps += w.mean_gap_ps / 1000 * static_cast<std::int64_t>(rng.below(2001));
    Request r;
    r.id = i + 1;
    r.behavior = draw_mix(rng, mix);
    r.priority = draw_priority(rng);
    r.submitted = sim::SimTime::from_ps(at_ps);
    if (w.rel_deadline_ps > 0) {
      r.deadline = sim::SimTime::from_ps(at_ps + w.rel_deadline_ps);
    }
    stream.push_back(r);
  }
  return stream;
}

std::int64_t count_swaps(const sim::StatRegistry& stats) {
  std::int64_t swaps = 0;
  for (const char* path : {"cached", "differential", "complete"}) {
    const auto it = stats.histograms().find(
        std::string("rtr.ensure.latency_ps.") + path);
    if (it != stats.histograms().end()) swaps += it->second.count();
  }
  return swaps;
}

namespace {

/// Dynamic areas a shard of this system actually hosts: at most its
/// device's cap (one on the XC2VP7, two on the XC2VP30).
int shard_areas(int system, int areas) {
  return std::min(areas, SystemSpec::of(system).max_areas);
}

/// Persistent per-shard simulation: the device (and its clock, faults,
/// residency, breakers) lives across epochs, so quarantine, probation
/// scrubs and repair act on the same hardware state the failures happened
/// on. A shard's epochs are a pure function of (scripts, opts, shard
/// index) -- nothing here may observe another shard or the host.
class ShardRuntime {
 public:
  ShardRuntime(const FleetOptions& opts, int index, int system, int areas) {
    rtr::PlatformOptions po;
    po.dynamic_areas = areas;
    po.fault_plan = opts.fault_plan.for_device(index);
    p_ = std::make_unique<Platform>(SystemSpec::of(system), po);
    ServeOptions so;
    so.plan_cache = opts.plan_cache;
    so.slos = opts.slos;
    so.batch = opts.batch;
    srv_ = std::make_unique<TaskServer<>>(*p_, opts.queue_capacity, so,
                                          opts.seed);
  }

  /// Replay one epoch's script (sorted by submission time) to drain.
  void serve_epoch(const std::vector<Request>& script) {
    std::size_t next = 0;
    while (next < script.size() || srv_->pending()) {
      if (!srv_->pending() && next < script.size() &&
          script[next].submitted.ps() > p_->kernel().now().ps()) {
        p_->cpu().idle_until(script[next].submitted);
      }
      while (next < script.size() &&
             script[next].submitted.ps() <= p_->kernel().now().ps()) {
        (void)srv_->submit(script[next]);
        ++next;
      }
      if (srv_->pending()) (void)srv_->serve_batch();
    }
  }

  [[nodiscard]] const ServeReport& report() const { return srv_->report(); }
  /// The shard's report and registry, moved out: for the final merge,
  /// after which the runtime only gets destroyed.
  [[nodiscard]] ServeReport take_report() { return srv_->take_report(); }
  [[nodiscard]] sim::StatRegistry take_stats() {
    return std::move(p_->sim().stats());
  }
  [[nodiscard]] std::int64_t now_ps() const {
    return p_->kernel().now().ps();
  }

  /// Probation gate: readback-verify-then-scrub every resident area.
  bool probe_scrub() {
    return srv_->manager().verify_and_scrub_residents(p_->dock_width());
  }

  /// Field repair: clear every armed fault on this device.
  void repair_faults() {
    if (p_->faults() != nullptr) p_->faults()->repair_all();
  }

 private:
  std::unique_ptr<Platform> p_;
  std::unique_ptr<TaskServer<>> srv_;
};

/// Distill one shard's new completions (since the previous epoch) into
/// health signals and collect its re-dispatch candidates.
struct EpochDelta {
  HealthSignals signals;
  std::vector<Request> redispatch;   // budget left: route them next epoch
  std::int64_t retry_exhausted = 0;  // budget gone: terminal failures
};

EpochDelta collect_delta(const ServeReport& rep, std::size_t* seen,
                         std::int64_t* slo_seen, int retry_budget) {
  EpochDelta d;
  for (std::size_t i = *seen; i < rep.completions.size(); ++i) {
    const Completion& c = rep.completions[i];
    if (c.fail_stop) ++d.signals.fail_stops;
    if (c.hw_giveup) ++d.signals.giveups;
    if (c.watchdog) ++d.signals.watchdogs;
    if (c.breaker_opened) ++d.signals.breaker_opens;
    if (c.hw_detected) ++d.signals.detections;
    // Device-attributable terminal failures are drain/re-dispatch
    // candidates; sw-degraded completions already carry their answer.
    if (c.outcome == Outcome::kFailed &&
        (c.fail_stop || c.hw_giveup || c.watchdog)) {
      if (c.req.redispatches < retry_budget) {
        Request r = c.req;
        ++r.redispatches;
        d.redispatch.push_back(r);
      } else {
        ++d.retry_exhausted;
      }
    }
  }
  *seen = rep.completions.size();
  const std::int64_t slo_now = rep.slo_breaches;
  d.signals.slo_breaches = static_cast<int>(slo_now - *slo_seen);
  *slo_seen = slo_now;
  return d;
}

}  // namespace

FleetReport run_fleet(const FleetOptions& opts, const FleetWorkloadSpec& w) {
  RTR_CHECK(opts.devices > 0, "fleet needs at least one device");
  RTR_CHECK(!opts.mix.empty(), "fleet needs a device mix");
  RTR_CHECK(opts.areas >= 1, "fleet needs at least one area per device");
  const std::size_t n = static_cast<std::size_t>(opts.devices);
  std::vector<int> systems;
  std::vector<int> areas;
  systems.reserve(n);
  areas.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    systems.push_back(opts.mix[i % opts.mix.size()]);
    areas.push_back(shard_areas(systems.back(), opts.areas));
  }

  // Phase 1: generate (ids pre-assigned, so digests are routing-invariant).
  const std::vector<Request> stream = make_fleet_stream(w, opts.seed);

  // With health off the whole stream is one epoch and nothing is observed:
  // no signals, no re-dispatch, no transitions.
  const HealthPolicy& hp = opts.health;
  const std::size_t per_epoch =
      !hp.enabled ? stream.size()
                  : static_cast<std::size_t>(
                        hp.epoch_arrivals > 0 ? hp.epoch_arrivals : 100);

  FleetRouter router(systems, opts.affinity, opts.steal_threshold, opts.seed,
                     areas);
  HealthTracker tracker(hp, static_cast<int>(n));

  // One pool for the whole run. The shards are built on it too: each
  // constructor writes only its own slot and shares nothing but the const
  // statics (the systems' blank baselines among them).
  sim::WorkerPool workers(opts.jobs, n);
  std::vector<std::unique_ptr<ShardRuntime>> rt(n);
  workers.run(n, [&](std::size_t i) {
    rt[i] = std::make_unique<ShardRuntime>(opts, static_cast<int>(i),
                                           systems[i], areas[i]);
  });

  FleetReport fr;
  fr.shards.resize(n);
  fr.requests = static_cast<std::int64_t>(stream.size());

  std::vector<std::size_t> completions_seen(n, 0);
  std::vector<std::int64_t> slo_seen(n, 0);
  std::vector<std::int64_t> routed_per_shard(n, 0);
  std::vector<Request> pool;  // re-dispatches awaiting the next epoch
  std::vector<std::size_t> order(n);  // this epoch's hand-out order
  const auto probe = [&](int d) {
    const bool ok = rt[static_cast<std::size_t>(d)]->probe_scrub();
    fr.stats.counter(ok ? "fleet.health.probe_ok" : "fleet.health.probe_fail")
        .add();
    return ok;
  };

  std::size_t next_arrival = 0;
  std::int64_t last_ps = 0;
  int epoch = 0;
  while (next_arrival < stream.size() || !pool.empty()) {
    // Field repair hook (the quarantine-then-recover chaos scenario).
    if (opts.repair_at_epoch >= 0 && epoch == opts.repair_at_epoch) {
      for (const auto& r : rt) r->repair_faults();
    }

    const std::size_t end =
        std::min(next_arrival + per_epoch, stream.size());
    const std::int64_t epoch_start_ps =
        next_arrival < stream.size() ? stream[next_arrival].submitted.ps()
                                     : last_ps + w.mean_gap_ps;

    // (a) Serial route: pending re-dispatches first (sorted by id -- the
    // pool was filled in shard order, ids make it canonical), stamped with
    // a fresh submission time and deadline, then this epoch's arrivals.
    std::sort(pool.begin(), pool.end(),
              [](const Request& a, const Request& b) { return a.id < b.id; });
    const std::size_t base = router.assignments().size();
    std::vector<Request> epoch_reqs;
    epoch_reqs.reserve(pool.size() + (end - next_arrival));
    for (Request r : pool) {
      r.submitted = sim::SimTime::from_ps(epoch_start_ps);
      r.deadline = w.rel_deadline_ps > 0
                       ? sim::SimTime::from_ps(epoch_start_ps +
                                               w.rel_deadline_ps)
                       : sim::SimTime{};
      if (router.route(r) < 0) {
        ++fr.no_healthy_device;
        fr.stats.counter("fleet.health.no_healthy_device").add();
      } else {
        ++fr.redispatched;
        fr.stats.counter("fleet.redispatch.attempts").add();
      }
      epoch_reqs.push_back(r);
    }
    pool.clear();
    for (; next_arrival < end; ++next_arrival) {
      const Request& r = stream[next_arrival];
      if (router.route(r) < 0) {
        ++fr.no_healthy_device;
        fr.stats.counter("fleet.health.no_healthy_device").add();
      }
      epoch_reqs.push_back(r);
      last_ps = r.submitted.ps();
    }

    // Scripts from the post-steal assignments, per shard in submission
    // order (re-dispatches share one stamp; ids break the tie).
    std::vector<std::vector<Request>> scripts(n);
    const std::vector<int>& assign = router.assignments();
    for (std::size_t k = 0; k < epoch_reqs.size(); ++k) {
      const int s = assign[base + k];
      if (s < 0) continue;
      scripts[static_cast<std::size_t>(s)].push_back(epoch_reqs[k]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::sort(scripts[i].begin(), scripts[i].end(),
                [](const Request& a, const Request& b) {
                  return a.submitted.ps() != b.submitted.ps()
                             ? a.submitted.ps() < b.submitted.ps()
                             : a.id < b.id;
                });
      routed_per_shard[i] += static_cast<std::int64_t>(scripts[i].size());
    }

    // (b) Parallel serve: persistent runtimes, one slot each, so output is
    // byte-identical at any jobs and in any hand-out order. The longest
    // script goes first (ties by index), so that a long shard does not
    // start last and hold the epoch open alone.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scripts[a].size() != scripts[b].size()
                 ? scripts[a].size() > scripts[b].size()
                 : a < b;
    });
    workers.run(order,
                [&](std::size_t i) { rt[i]->serve_epoch(scripts[i]); });
    router.checkpoint();  // everything routed so far has actually run

    if (hp.enabled) {
      // (c) Serial collect: signals + re-dispatch candidates, shard order.
      for (std::size_t i = 0; i < n; ++i) {
        EpochDelta d = collect_delta(rt[i]->report(), &completions_seen[i],
                                     &slo_seen[i], hp.retry_budget);
        tracker.observe(static_cast<int>(i), d.signals);
        fr.retry_exhausted += d.retry_exhausted;
        if (d.retry_exhausted > 0) {
          fr.stats.counter("fleet.redispatch.retry_exhausted")
              .add(d.retry_exhausted);
        }
        for (Request& r : d.redispatch) pool.push_back(r);
      }

      // (d) Serial tick: decay, transitions, probation probes.
      tracker.tick(epoch, epoch_start_ps, router, probe, &fr.health_events);
    }
    ++epoch;
  }

  // Merge serially in shard order (StatRegistry::merge of accumulators is
  // order-sensitive in the last floating-point bit); fleet.* series on top.
  // Each shard's results move into its outcome, and its runtime goes.
  sim::Histogram& fleet_lat = fr.stats.histogram("fleet.latency_ps");
  for (std::size_t i = 0; i < n; ++i) {
    ShardOutcome& o = fr.shards[i];
    o.system = systems[i];
    o.routed = routed_per_shard[i];
    o.final_ps = rt[i]->now_ps();
    o.report = rt[i]->take_report();
    o.stats = rt[i]->take_stats();
    rt[i].reset();
    o.swaps = count_swaps(o.stats);
    fr.stats.merge(o.stats);
    const auto it = o.stats.histograms().find("serve.latency_ps");
    if (it != o.stats.histograms().end()) {
      fleet_lat.merge(it->second);
      fr.stats
          .histogram("fleet.shard." + std::to_string(i) + ".latency_ps")
          .merge(it->second);
    }
    fr.served_hw += o.report.served_hw;
    fr.degraded += o.report.degraded;
    fr.shed += o.report.shed;
    fr.expired += o.report.expired;
    fr.deadline_miss += o.report.deadline_miss;
    fr.failed += o.report.failed;
    fr.swaps += o.swaps;
    fr.digests_ok = fr.digests_ok && o.report.digests_ok;
  }
  fr.route = router.counters();
  fr.stats.counter("fleet.route.decisions").add(fr.route.decisions);
  fr.stats.counter("fleet.route.affinity_hits").add(fr.route.affinity_hits);
  fr.stats.counter("fleet.route.rebalances").add(fr.route.rebalances);
  fr.stats.counter("fleet.route.steals").add(fr.route.steals);
  fr.stats.counter("fleet.swaps").add(fr.swaps);
  for (const HealthEvent& e : fr.health_events) {
    const char* what = nullptr;
    switch (e.to) {
      case DeviceState::kSuspect: what = "fleet.health.suspects"; break;
      case DeviceState::kQuarantined: what = "fleet.health.quarantines"; break;
      case DeviceState::kDraining: what = "fleet.health.drains"; break;
      case DeviceState::kProbation: what = "fleet.health.probations"; break;
      case DeviceState::kHealthy:
        // Only a probation graduation is a readmission; suspect->healthy
        // decay never left the rotation.
        if (e.from == DeviceState::kProbation) what = "fleet.health.readmits";
        break;
    }
    if (what != nullptr) fr.stats.counter(what).add();
    if (opts.tracer != nullptr && opts.tracer->enabled()) {
      opts.tracer->instant(
          opts.tracer->track("FLEET.health"),
          "dev" + std::to_string(e.device) + ":" +
              device_state_name(e.from) + "->" + device_state_name(e.to),
          sim::SimTime::from_ps(e.at_ps));
    }
  }
  return fr;
}

}  // namespace rtr::serve::fleet
