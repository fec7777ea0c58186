#include "serve/server.hpp"

#include <ostream>
#include <queue>

#include "apps/sw_kernels.hpp"
#include "serve/batch_exec.hpp"
#include "sim/context.hpp"

namespace rtr::serve {
namespace detail {

AdmitError TaskServerBase::submit(const Request& r) {
  ++report_.submitted;
  counter(Stat::kSubmitted).add();
  if (!apps::has_sw_equivalent(r.behavior)) {
    // The serving layer requires a degradation path: a behaviour with no
    // software kernel (test circuits, unknown ids) is refused up front
    // rather than failed after burning reconfiguration time.
    ++report_.unservable;
    counter(Stat::kUnservable).add();
    mark("reject:unservable", r.id);
    return AdmitError::kUnservable;
  }
  const AdmitError e = queue_.admit(r);
  if (e == AdmitError::kNone) {
    ++report_.admitted;
    counter(Stat::kAdmitted).add();
    trace::Tracer& tr = p_->sim().tracer();
    if (tr.enabled()) {
      // The admission slice anchors the request's flow chain: arrows in
      // the Perfetto UI run admission -> serve span -> reconfig -> exec.
      const int t = tr.track("SERVE.admission");
      tr.complete(t,
                  "admit:" + std::string(hw::task_name(r.behavior)) + ":" +
                      std::to_string(r.id),
                  now(), now(), "req", r.id);
      tr.flow(trace::Phase::kFlowStart, t, "req", r.id, now());
      tr.counter("serve.queue.depth",
                 static_cast<std::int64_t>(queue_.size()), now());
    }
  } else {
    ++report_.shed;
    counter(Stat::kShed).add();
    mark("shed", r.id);
    const Completion sc = make_completion(r, Outcome::kShed);
    observe_slos(sc);
    report_.completions.push_back(sc);
  }
  return e;
}

std::vector<Completion> TaskServerBase::serve_batch() {
  // A single-area device has no co-resident module to prefer: the
  // never-resident predicate pops strict (priority, FIFO) order.
  const bool multi_area = p_->area_count() > 1;
  std::vector<Request> batch = queue_.pop_batch(
      [this, multi_area](int b) {
        return multi_area &&
               mgr_.is_resident(static_cast<hw::BehaviorId>(b));
      },
      opts_.affinity_max_bypass, opts_.batch, now());
  if (opts_.batch.max_batch > 1) {
    ++report_.batches;
    report_.coalesced += static_cast<std::int64_t>(batch.size()) - 1;
    counter(Stat::kBatchCount).add();
    if (batch.size() > 1) {
      counter(Stat::kBatchCoalesced)
          .add(static_cast<std::int64_t>(batch.size()) - 1);
    }
    hist(batch_size_, "serve.batch.size")
        .sample(static_cast<std::int64_t>(batch.size()));
  }
  const hw::BehaviorId behavior = batch.front().behavior;
  trace::Tracer& tr = p_->sim().tracer();
  const int track = tr.enabled() ? tr.track("SERVE") : -1;
  if (track >= 0) {
    tr.begin(track,
             batch.size() == 1
                 ? std::string(hw::task_name(behavior)) + ":" +
                       std::to_string(batch.front().id)
                 : std::string("batch:") + hw::task_name(behavior) + ":x" +
                       std::to_string(batch.size()),
             now());
  }

  std::vector<Completion> out;
  out.reserve(batch.size());
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i];
    stage_sample(stages(req.behavior).queue, (now() - req.submitted).ps());
    if (track >= 0) {
      tr.flow(trace::Phase::kFlowStep, track, "req", req.id, now());
    }
    Completion c = make_completion(req, Outcome::kFailed);
    if (req.deadline.ps() > 0 && now() >= req.deadline) {
      ++report_.expired;
      counter(Stat::kExpired).add();
      mark("expired", req.id);
      c.outcome = Outcome::kExpired;
      c.deadline_met = false;
    } else if (fault::FaultInjector* fi = p_->faults();
               fi != nullptr && fi->on_dispatch(now()).fail_stop) {
      // Whole-device fault sites (fail_stop/brownout) get one opportunity
      // per request. A fail-stopped device refuses the request outright --
      // its software kernels run on the same dead device, so there is no
      // degradation path; the fleet's health tracker is the recovery story.
      ++report_.fail_stops;
      ++report_.failed;
      counter(Stat::kFailStop).add();
      counter(Stat::kFailed).add();
      mark("fail_stop", req.id);
      c.fail_stop = true;
      c.error = "device fail-stop";
    } else {
      live.push_back(i);
    }
    out.push_back(c);
  }

  if (!live.empty()) {
    const Request& leader = batch[live.front()];
    Completion& lead_c = out[live.front()];
    CircuitBreaker& br = breaker(behavior);
    // Charge a hardware failure of member i to the breaker; an opening
    // edge is attributed to that member.
    const auto hw_failed = [&](std::size_t i) {
      if (br.record_failure(now())) {
        ++report_.breaker_opens;
        counter(Stat::kBreakerOpens).add();
        mark("breaker:open", batch[i].id);
        incident("breaker_open", batch[i].id);
        out[i].breaker_opened = true;
      }
    };
    const BreakerState before = br.state();
    const bool try_hw = br.allow_hw(now());
    if (try_hw && before == BreakerState::kOpen) {
      // The cooldown elapsed: this batch is the half-open probe.
      ++report_.breaker_probes;
      counter(Stat::kBreakerProbes).add();
      mark("breaker:probe", leader.id);
    }
    bool hw_ready = false;
    if (try_hw) {
      // One watchdog-armed ensure serves the whole batch: the budget is
      // capped by the earliest live member deadline, not just the
      // leader's, so a hung load cannot strand any member past its own
      // deadline.
      sim::SimTime dl = now() + opts_.hw_attempt_budget;
      for (const std::size_t i : live) {
        if (batch[i].deadline.ps() > 0 && batch[i].deadline < dl) {
          dl = batch[i].deadline;
        }
      }
      const sim::RequestContext ctx{leader.id, leader.behavior,
                                    leader.deadline.ps(),
                                    leader.submitted.ps()};
      p_->sim().set_active_request(&ctx);
      p_->set_load_deadline(dl);
      const EnsureStats es = mgr_.ensure(behavior, dock_width());
      p_->set_load_deadline(sim::SimTime{});
      p_->sim().set_active_request(nullptr);
      stage_sample(stages(behavior).reconfig, es.time.ps());
      if (p_->area_count() > 1 && es.ok) {
        area_counter(es.area, es.already_resident).add();
      }
      if (opts_.plan_cache && !es.already_resident) {
        if (prefetch_pending_ == behavior) {
          counter(Stat::kPrefetchHits).add();
          prefetch_pending_ = -1;
        } else {
          counter(Stat::kPrefetchMisses).add();
        }
      }
      if (es.watchdog) {
        ++report_.watchdog_aborts;
        counter(Stat::kWatchdogAborts).add();
        mark("watchdog_abort", leader.id);
        incident("watchdog_abort", leader.id);
      }
      lead_c.watchdog = es.watchdog;
      lead_c.hw_detected = es.detected;
      lead_c.hw_giveup = !es.ok;
      hw_ready = es.ok;
      if (!es.ok) {
        lead_c.error = es.error;
        hw_failed(live.front());
      }
    }

    // Success bookkeeping shared by the chained and per-member paths.
    const auto hw_served = [&](std::size_t i, const ExecResult& r) {
      if (br.record_success()) {
        // Probe succeeded: hardware service is restored. Also lift the
        // manager's diff->complete degradation -- the fault that caused
        // it is evidently gone.
        ++report_.breaker_closes;
        counter(Stat::kBreakerCloses).add();
        mark("breaker:close", batch[i].id);
        mgr_.reset_degraded();
      }
      ++report_.served_hw;
      counter(Stat::kHw).add();
      out[i].outcome = Outcome::kHw;
      out[i].digest = r.digest;
      out[i].golden_ok = r.golden_ok;
    };
    // Graceful degradation: the software kernel, bit-identical to the
    // hardware path (admission guaranteed it exists).
    const auto sw_served = [&](std::size_t i) {
      const sim::RequestContext ctx{batch[i].id, batch[i].behavior,
                                    batch[i].deadline.ps(),
                                    batch[i].submitted.ps()};
      p_->sim().set_active_request(&ctx);
      const ExecResult r = timed_exec(batch[i], /*hw=*/false);
      p_->sim().set_active_request(nullptr);
      if (r.ok) {
        ++report_.degraded;
        counter(Stat::kDegraded).add();
        mark("degrade:sw", batch[i].id);
        out[i].outcome = Outcome::kSw;
        out[i].digest = r.digest;
        out[i].golden_ok = r.golden_ok;
      } else {
        ++report_.failed;
        counter(Stat::kFailed).add();
        mark("failed", batch[i].id);
      }
      out[i].finished = now();
    };

    if (hw_ready) {
      std::vector<BatchMember> ms;
      bool chained = false;
      if (live.size() > 1) {
        ms.resize(live.size());
        for (std::size_t j = 0; j < live.size(); ++j) {
          ms[j].input_seed = input_seed(batch[live[j]]);
        }
        const sim::RequestContext ctx{leader.id, leader.behavior,
                                      leader.deadline.ps(),
                                      leader.submitted.ps()};
        p_->sim().set_active_request(&ctx);
        const sim::SimTime t0 = now();
        chained = exec_image_batch(*p_, behavior, ms);
        if (chained) {
          stage_sample(stages(behavior).exec, (now() - t0).ps());
          if (track >= 0) {
            tr.complete(track, "exec:hw:chain", t0, now(), "req",
                        leader.id);
          }
        }
        p_->sim().set_active_request(nullptr);
      }
      if (chained) {
        const sim::SimTime chain_end = now();
        for (std::size_t j = 0; j < live.size(); ++j) {
          const std::size_t i = live[j];
          if (ms[j].result.golden_ok) {
            hw_served(i, ms[j].result);
            out[i].finished = chain_end;
          } else {
            // A fault corrupted this member's beats mid-chain: degrade
            // only this member to the software kernel (bit-identical
            // digest); the rest of the batch is already done.
            out[i].hw_detected = true;
            counter(Stat::kBatchMemberDegraded).add();
            hw_failed(i);
            sw_served(i);
          }
        }
      } else {
        // Hash / pattern-match protocols (and the 32-bit system) keep
        // their per-member drivers; the batch still amortizes the swap.
        for (const std::size_t i : live) {
          const sim::RequestContext ctx{batch[i].id, batch[i].behavior,
                                        batch[i].deadline.ps(),
                                        batch[i].submitted.ps()};
          p_->sim().set_active_request(&ctx);
          const ExecResult r = timed_exec(batch[i], /*hw=*/true);
          p_->sim().set_active_request(nullptr);
          if (r.ok) {
            hw_served(i, r);
            out[i].finished = now();
          } else {
            out[i].error = "hardware execution produced no result";
            hw_failed(i);
            sw_served(i);
          }
        }
      }
    } else {
      // No hardware path for this batch (breaker open or ensure failed):
      // every live member degrades to the software kernel, none is
      // stranded.
      for (const std::size_t i : live) sw_served(i);
    }
  }

  // The prefetcher warms plans off the simulated clock; the stage
  // histogram pins that invariant (always 0) into the §4 decomposition.
  const sim::SimTime prefetch_start = now();
  prefetch_next(batch.front());
  stage_sample(stages(behavior).prefetch, (now() - prefetch_start).ps());

  for (std::size_t i = 0; i < batch.size(); ++i) {
    Completion& c = out[i];
    if (c.finished.ps() == 0) c.finished = now();
    c.deadline_met =
        c.req.deadline.ps() == 0 || c.finished <= c.req.deadline;
    if (!c.deadline_met &&
        (c.outcome == Outcome::kHw || c.outcome == Outcome::kSw)) {
      ++report_.deadline_miss;
      counter(Stat::kDeadlineMiss).add();
      mark("deadline_miss", c.req.id);
    }
    if (c.outcome == Outcome::kHw || c.outcome == Outcome::kSw) {
      hist(latency_, "serve.latency_ps")
          .sample((c.finished - c.req.submitted).ps());
      if (!c.golden_ok) report_.digests_ok = false;
    }
    observe_slos(c);
    if (track >= 0) {
      tr.instant(track, std::string("done:") + outcome_name(c.outcome),
                 now(), "req", c.req.id);
      tr.flow(trace::Phase::kFlowEnd, track, "req", c.req.id, now());
    }
    report_.completions.push_back(c);
  }
  if (track >= 0) tr.end(track, now());
  return out;
}

void TaskServerBase::prefetch_next(const Request& just_served) {
  const Request* nx = queue_.peek_next_distinct(just_served.behavior);
  if (nx == nullptr) return;
  if (!mgr_.warm(static_cast<hw::BehaviorId>(nx->behavior), dock_width())) {
    return;
  }
  if (prefetch_pending_ >= 0 && prefetch_pending_ != nx->behavior) {
    counter(Stat::kPrefetchWasted).add();
  }
  prefetch_pending_ = nx->behavior;
  mark("prefetch:warm", nx->id);
}

ExecResult TaskServerBase::timed_exec(const Request& req, bool hw) {
  const sim::SimTime t0 = now();
  const ExecResult r = exec_request(*p_, req.behavior, input_seed(req), hw);
  stage_sample(stages(req.behavior).exec, (now() - t0).ps());
  trace::Tracer& tr = p_->sim().tracer();
  if (tr.enabled()) {
    const int track = tr.track("SERVE");
    tr.complete(track, hw ? "exec:hw" : "exec:sw", t0, now(), "req", req.id);
    tr.flow(trace::Phase::kFlowStep, track, "req", req.id, t0);
  }
  return r;
}

TaskServerBase::StageHists& TaskServerBase::stages(hw::BehaviorId behavior) {
  auto it = stage_hists_.find(behavior);
  if (it != stage_hists_.end()) return it->second;
  sim::StatRegistry& st = p_->sim().stats();
  const std::string cls{hw::task_name(behavior)};
  auto pair = [&](const char* stage) {
    const std::string base =
        std::string("serve.stage.") + stage + ".latency_ps";
    return StagePair{&st.histogram(base), &st.histogram(base + "." + cls)};
  };
  const StageHists h{pair("queue"), pair("prefetch"), pair("reconfig"),
                     pair("exec")};
  return stage_hists_.emplace(behavior, h).first->second;
}

void TaskServerBase::observe_slos(const Completion& c) {
  if (slos_.empty()) return;
  for (SloEngine& e : slos_) {
    const SloEngine::Evaluation ev =
        e.observe(now(), slo_good(e.spec(), c));
    counter(Stat::kSloSamples).add();
    if (ev.fired) {
      ++report_.slo_breaches;
      counter(Stat::kSloBreaches).add();
      trace::Tracer& tr = p_->sim().tracer();
      if (tr.enabled()) {
        tr.instant(
            tr.track("SERVE"),
            std::string("slo:burn:") + slo_metric_name(e.spec().metric),
            now(), "req", c.req.id);
      }
      incident("slo_burn", c.req.id);
    }
  }
}

void TaskServerBase::write_state(std::ostream& os) const {
  os << "{\"queue\": {\"depth\": " << queue_.size()
     << ", \"capacity\": " << queue_.capacity() << "}, \"breakers\": {";
  bool first = true;
  for (const auto& [id, br] : breakers_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << hw::task_name(static_cast<hw::BehaviorId>(id)) << "\": \""
       << breaker_state_name(br.state()) << '"';
  }
  os << "}, \"plan_cache\": {\"complete\": "
     << mgr_.plan_cache().complete_plans()
     << ", \"diff\": " << mgr_.plan_cache().diff_plans()
     << "}, \"prefetch_pending\": " << prefetch_pending_ << "}";
}

}  // namespace detail

ServeReport run_workload(Platform& p, const WorkloadSpec& w,
                         std::uint64_t seed, ServeOptions opts,
                         int repair_at_completion) {
  TaskServer srv{p, w.queue_capacity, opts, seed};
  sim::Rng rng{seed};

  struct Pending {
    std::int64_t at_ps;
    int client;
    bool operator>(const Pending& o) const {
      return at_ps != o.at_ps ? at_ps > o.at_ps : client > o.client;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> events;
  std::vector<int> remaining(static_cast<std::size_t>(w.clients), w.rounds);
  for (int cl = 0; cl < w.clients; ++cl) {
    events.push({p.kernel().now().ps() + draw_think_ps(rng, w), cl});
  }

  std::int64_t next_id = 1;
  std::int64_t disposed = 0;
  const auto dispose = [&](int client, std::int64_t at_ps) {
    ++disposed;
    if (repair_at_completion >= 0 && disposed == repair_at_completion &&
        p.faults() != nullptr) {
      p.faults()->repair_all();
    }
    if (remaining[static_cast<std::size_t>(client)] > 0) {
      events.push({at_ps + draw_think_ps(rng, w), client});
    }
  };

  while (!events.empty() || srv.pending()) {
    if (!srv.pending() && !events.empty() &&
        events.top().at_ps > p.kernel().now().ps()) {
      p.cpu().idle_until(sim::SimTime::from_ps(events.top().at_ps));
    }
    while (!events.empty() && events.top().at_ps <= p.kernel().now().ps()) {
      const Pending e = events.top();
      events.pop();
      Request r;
      r.id = next_id++;
      r.client = e.client;
      r.behavior = draw_behavior(rng, w);
      r.priority = draw_priority(rng);
      r.submitted = sim::SimTime::from_ps(e.at_ps);
      if (w.rel_deadline_ps > 0) {
        r.deadline = sim::SimTime::from_ps(e.at_ps + w.rel_deadline_ps);
      }
      --remaining[static_cast<std::size_t>(e.client)];
      if (srv.submit(r) != AdmitError::kNone) {
        // Shed (or refused): the round is lost; the client thinks, then
        // moves on to its next round.
        dispose(e.client, p.kernel().now().ps());
      }
    }
    if (srv.pending()) {
      for (const Completion& c : srv.serve_batch()) {
        dispose(c.req.client, c.finished.ps());
      }
    }
  }
  return srv.report();
}

ServeReport run_open_workload(Platform& p, const OpenLoopSpec& spec,
                              std::uint64_t seed, ServeOptions opts) {
  TaskServer srv{p, spec.queue_capacity, opts, seed};
  const std::vector<Request> stream = make_open_stream(spec, seed);
  std::size_t next = 0;
  while (next < stream.size() || srv.pending()) {
    if (!srv.pending() && next < stream.size() &&
        stream[next].submitted > p.kernel().now()) {
      p.cpu().idle_until(stream[next].submitted);
    }
    while (next < stream.size() &&
           stream[next].submitted <= p.kernel().now()) {
      (void)srv.submit(stream[next]);
      ++next;
    }
    if (srv.pending()) (void)srv.serve_batch();
  }
  return srv.report();
}

}  // namespace rtr::serve
