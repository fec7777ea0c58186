#include "rtr/manager.hpp"

#include "rtr/readback.hpp"

namespace rtr::detail {

EnsureStats ModuleManagerBase::ensure(hw::BehaviorId id, int dock_width) {
  trace::Tracer& tr = p_->sim().tracer();
  int track = -1;
  if (tr.enabled()) {
    track = tr.track("RTR.manager");
    tr.begin(track, "swap:" + std::to_string(id), p_->kernel().now());
    if (const sim::RequestContext* rq = p_->sim().active_request()) {
      // Link the swap into the owning request's flow chain.
      tr.flow(trace::Phase::kFlowStep, track, "req", rq->id,
              p_->kernel().now());
    }
  }
  EnsureStats res = ensure_impl(id, dock_width);
  if (track >= 0) {
    const sim::SimTime now = p_->kernel().now();
    if (res.already_resident) tr.instant(track, "already_resident", now);
    if (res.fell_back) tr.instant(track, "differential_fallback", now);
    if (res.ok && !res.already_resident) tr.instant(track, "activate", now);
    if (res.ok && multi()) {
      // Per-area residency track: which area served the behaviour and how
      // (hit in place / cross-area dock re-bind / reconfiguration load).
      tr.instant(tr.track("RTR.area." + std::to_string(res.area)),
                 res.already_resident ? (res.activated ? "activate" : "hit")
                                      : "load",
                 now);
    }
    tr.end(track, now);
  }
  if (res.ok) {
    // Per-path latency: "cached" means the differential plan came out of
    // the plan cache; "differential"/"complete" are cold-plan loads.
    const char* path = res.already_resident ? "resident"
                       : res.used_differential
                           ? (res.plan_cached ? "cached" : "differential")
                           : "complete";
    p_->sim()
        .stats()
        .histogram(std::string("rtr.ensure.latency_ps.") + path)
        .sample(res.time.ps());
  }
  return res;
}

bool ModuleManagerBase::warm(hw::BehaviorId id, int dock_width) {
  if (!cache_enabled_) return false;
  int area = 0;
  if (multi()) {
    const auto dec = placer_.plan(id, module_footprint(id, dock_width));
    area = dec.compatible ? dec.area : 0;
  }
  std::string err;
  if (cache_.complete(p_->linker(area), id, dock_width, &err, nullptr,
                      area) == nullptr) {
    return false;
  }
  const AreaState& st = areas_[static_cast<std::size_t>(area)];
  if (differential_ && !degraded_ && st.resident >= 0 && st.resident != id &&
      p_->area_generation(area) == st.gen) {
    (void)cache_.differential(p_->linker(area),
                              static_cast<hw::BehaviorId>(st.resident), id,
                              dock_width, &err, nullptr, area);
  }
  return true;
}

bool ModuleManagerBase::verify_and_scrub_residents(int dock_width) {
  bool all_ok = true;
  for (int a = 0; a < static_cast<int>(areas_.size()); ++a) {
    AreaState& st = areas_[static_cast<std::size_t>(a)];
    if (st.resident < 0) continue;
    const auto id = static_cast<hw::BehaviorId>(st.resident);
    ReadbackStats rb = readback_verify(p_->kernel(),
                                       p_->spec().icap.base,
                                       p_->region(a));
    int scrubs = 0;
    while (!rb.ok && scrubs < kMaxScrubs) {
      ++scrubs;
      counter("rtr.recovery.scrubs").add();
      mark("probe_scrub");
      std::string err;
      PlanCache scratch;
      PlanCache& plans = cache_enabled_ ? cache_ : scratch;
      const PlanCache::Plan* plan =
          plans.complete(p_->linker(a), id, dock_width, &err, nullptr, a);
      if (plan == nullptr) continue;  // link failure still costs a scrub
      const ReconfigStats s = load_complete(*plan, a);
      if (!s.ok) continue;  // the scrub load itself failed; costs a scrub
      st.gen = p_->area_generation(a);
      rb = readback_verify(p_->kernel(), p_->spec().icap.base,
                           p_->region(a));
    }
    if (!rb.ok) {
      all_ok = false;
      counter("rtr.recovery.giveups").add();
      mark("probe_giveup");
      clear_area(a);
    }
  }
  return all_ok;
}

EnsureStats ModuleManagerBase::ensure_impl(hw::BehaviorId id, int dock_width) {
  EnsureStats res;
  const sim::SimTime t0 = p_->kernel().now();

  // Residency hit in any area: with one area this is the legacy fast
  // path; with several, a non-active area's warm module is served by
  // re-binding the dock to it -- a few CPU ops, no reconfiguration.
  for (int a = 0; a < static_cast<int>(areas_.size()); ++a) {
    if (areas_[static_cast<std::size_t>(a)].resident == id &&
        p_->area_module(a) != nullptr) {
      if (multi()) {
        (void)placer_.place(id, module_footprint(id, dock_width));
        if (a != p_->active_area()) {
          p_->activate_area(a);
          res.activated = true;
          counter("rtr.place.activations").add();
        }
      }
      res.ok = true;
      res.already_resident = true;
      res.area = a;
      res.time = p_->kernel().now() - t0;
      return res;
    }
  }

  // Placement: pick the target area (decided now, committed only once a
  // load succeeds -- a link failure must leave the placer untouched).
  int area = 0;
  if (multi()) {
    const AreaPlacer::Decision dec =
        placer_.plan(id, module_footprint(id, dock_width));
    if (!dec.compatible) {
      // No area fits the footprint: target the primary area so the link
      // failure carries the legacy "does not fit the region" error.
      counter("rtr.place.incompatible").add();
    } else {
      area = dec.area;
      counter(dec.evicted >= 0 ? "rtr.place.evictions"
                               : "rtr.place.placements")
          .add();
    }
  }
  res.area = area;
  AreaState& st = areas_[static_cast<std::size_t>(area)];

  // Scratch store for the disabled-cache baseline: the same builders run,
  // but every plan is rebuilt from scratch and dropped afterwards.
  PlanCache scratch;
  PlanCache& plans = cache_enabled_ ? cache_ : scratch;

  if (differential_ && st.resident >= 0 && !degraded_) {
    if (p_->area_generation(area) != st.gen) {
      // Something outside the manager wrote the fabric (debugger poke,
      // injected fault, scrub) since residency was established: the
      // assumed base state is stale, so any differential against it would
      // fail the validation gate. Detect it up front -- same fallback
      // bookkeeping as a failed differential load, minus the doomed load.
      detect(res, area);
      counter("rtr.plan_cache.gen_invalidations").add();
      res.fell_back = true;
      counter("rtr.recovery.fallbacks").add();
      mark("fallback:complete");
      if (++diff_failures_ >= kDiffFailuresBeforeDegrade) {
        degraded_ = true;
        res.degraded = true;
        counter("rtr.recovery.degraded").add();
        mark("degrade:complete-only");
      }
    } else {
      bool hit = false;
      const PlanCache::Plan* plan = plans.differential(
          p_->linker(area), static_cast<hw::BehaviorId>(st.resident), id,
          dock_width, &res.error, &hit, area);
      counter(hit ? "rtr.plan_cache.hits" : "rtr.plan_cache.misses").add();
      if (plan == nullptr) {
        res.time = p_->kernel().now() - t0;
        return res;
      }
      const ReconfigStats s = p_->load_plan(*plan, area);
      res.stream_words += s.stream_words;
      if (s.ok) {
        diff_failures_ = 0;
        res.used_differential = true;
        res.plan_cached = hit;
        return finish_load(id, dock_width, res, t0, area);
      }
      detect(res, area);
      if (s.watchdog) {
        // The load deadline expired mid-stream: no time budget remains
        // for the complete fallback either. Give up now; the caller's
        // watchdog owns what happens next (degrade, breaker, ...).
        res.error = s.error;
        return watchdog_giveup(res, t0, area);
      }
      // Stale assumption (or corruption): the validation gate refused to
      // bind. Fall back to the complete configuration.
      res.fell_back = true;
      counter("rtr.recovery.fallbacks").add();
      mark("fallback:complete");
      if (++diff_failures_ >= kDiffFailuresBeforeDegrade) {
        degraded_ = true;
        res.degraded = true;
        counter("rtr.recovery.degraded").add();
        mark("degrade:complete-only");
      }
    }
  }

  // Complete path: bounded retry with exponential backoff.
  for (int attempt = 0;; ++attempt) {
    ++res.attempts;
    bool hit = false;
    ReconfigStats s;
    const PlanCache::Plan* plan = plans.complete(p_->linker(area), id,
                                                 dock_width, &res.error,
                                                 &hit, area);
    counter(hit ? "rtr.plan_cache.hits" : "rtr.plan_cache.misses").add();
    if (plan == nullptr) {
      res.time = p_->kernel().now() - t0;
      return res;
    }
    s = load_complete(*plan, area);
    res.stream_words += s.stream_words;
    if (s.ok) {
      res.error.clear();
      res.plan_cached = hit;
      return finish_load(id, dock_width, res, t0, area);
    }
    res.error = s.error;
    detect(res, area);
    if (s.watchdog) return watchdog_giveup(res, t0, area);
    if (attempt + 1 >= policy_.max_attempts) {
      counter("rtr.recovery.giveups").add();
      mark("giveup");
      incident("rtr_giveup");
      clear_area(area);
      res.time = p_->kernel().now() - t0;
      return res;
    }
    ++res.retries;
    counter("rtr.recovery.retries").add();
    mark("retry");
    p_->kernel().op(static_cast<std::int64_t>(kBackoffCycles) << attempt);
  }
}

EnsureStats ModuleManagerBase::finish_load(hw::BehaviorId id, int dock_width,
                                           EnsureStats& res, sim::SimTime t0,
                                           int area) {
  res.ok = true;
  if (policy_.verify_after_load) {
    ReadbackStats rb =
        readback_verify(p_->kernel(), p_->spec().icap.base,
                        p_->region(area));
    while (!rb.ok && res.scrubs < kMaxScrubs) {
      detect(res, area);
      ++res.scrubs;
      counter("rtr.recovery.scrubs").add();
      mark("scrub");
      std::string scrub_err;
      PlanCache scratch;
      PlanCache& plans = cache_enabled_ ? cache_ : scratch;
      const PlanCache::Plan* plan = plans.complete(
          p_->linker(area), id, dock_width, &scrub_err, nullptr, area);
      if (plan == nullptr) continue;  // link failure still costs a scrub
      const ReconfigStats s = load_complete(*plan, area);
      res.stream_words += s.stream_words;
      if (!s.ok) continue;  // the scrub load itself failed; costs a scrub
      rb = readback_verify(p_->kernel(), p_->spec().icap.base,
                           p_->region(area));
    }
    if (!rb.ok) {
      detect(res, area);
      res.ok = false;
      res.error = "readback verification failed after scrubbing";
      counter("rtr.recovery.giveups").add();
      mark("giveup");
      incident("rtr_giveup");
      clear_area(area);
      res.time = p_->kernel().now() - t0;
      return res;
    }
    res.verified = true;
  }
  AreaState& st = areas_[static_cast<std::size_t>(area)];
  st.resident = id;
  st.gen = p_->area_generation(area);
  if (multi()) {
    (void)placer_.place(id, module_footprint(id, dock_width));
  }
  res.time = p_->kernel().now() - t0;
  return res;
}

}  // namespace rtr::detail
