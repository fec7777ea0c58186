// TaskServer: deterministic request serving on top of the module manager.
//
// One server drives one platform (single-threaded, like the embedded system
// it models). Per request the server:
//
//   1. drops it if its deadline already passed while queued (kExpired);
//   2. consults the behaviour's circuit breaker; if the hardware path is
//      allowed, arms the platform's load-deadline watchdog and asks the
//      ModuleManager to make the module resident;
//   3. on success runs the hardware driver (kHw); on failure records the
//      breaker failure and degrades the request to the matching software
//      kernel (kSw), bit-identical by construction;
//   4. records the outcome on the SERVE trace track and serve.* stats.
//
// The breaker is the piece the manager lacks: the manager recovers one
// load at a time, the breaker remembers *across* requests that a module
// type keeps failing and stops burning reconfiguration time on it until a
// cooldown has passed. A successful half-open probe closes the breaker and
// also lifts the manager's diff->complete degradation, restoring full
// hardware service. See docs/SERVING.md.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "rtr/manager.hpp"
#include "serve/breaker.hpp"
#include "serve/exec.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"
#include "serve/workload.hpp"
#include "trace/flight_recorder.hpp"

namespace rtr::serve {

struct ServeOptions {
  RecoveryPolicy recovery;
  BreakerPolicy breaker;
  /// Watchdog budget for one hardware attempt (module swap): the load
  /// deadline is armed at now + min(budget, time to request deadline).
  /// The default is ~2x the slowest clean reconfiguration (a complete
  /// 64-bit PIO load is ~27 ms), so healthy loads always pass while a
  /// stuck load's retry ladder is cut off mid-stream.
  sim::SimTime hw_attempt_budget = sim::SimTime::from_ms(60);
  /// Memoize reconfiguration plans (and prefetch them for the next queued
  /// distinct behaviour). Host-side only: simulated times and outputs are
  /// byte-identical with the cache off (see docs/PERFORMANCE.md).
  bool plan_cache = true;
  /// Multi-area affinity dispatch (docs/PLACEMENT.md): on a device with
  /// more than one dynamic area, pop the oldest queued request whose
  /// behaviour is already resident in some area. A queued request may be
  /// passed over -- by this path or by batch extraction -- at most this
  /// many times before aging makes it exempt from further bypassing
  /// (RequestQueue's shared starvation guard). Single-area devices pop
  /// strict (priority, FIFO) order unless batching coalesces.
  int affinity_max_bypass = 16;
  /// Swap-aware batching (docs/SERVING.md "Batching"): serve_batch pops up
  /// to batch.max_batch same-behaviour requests per residency, jumping
  /// only requests with at least batch.slack_ps of deadline headroom, and
  /// streams image batches as one multi-buffer scatter-gather chain.
  /// Default max_batch = 1: batching off, every batch is one request.
  BatchPolicy batch;
  /// Declared service-level objectives, one SloEngine each, evaluated per
  /// disposed request (see serve/slo.hpp for grammar and burn semantics).
  std::vector<SloSpec> slos;
};

/// Aggregate disposition counts of one serve run (mirrors the serve.*
/// counters, collected per-run for reports and tests).
struct ServeReport {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;       // queue full at admission
  std::int64_t unservable = 0; // no hw driver and no sw kernel
  std::int64_t expired = 0;    // deadline passed while queued
  std::int64_t served_hw = 0;
  std::int64_t degraded = 0;   // served by the software kernel
  std::int64_t failed = 0;
  std::int64_t deadline_miss = 0;    // served, but past the deadline
  std::int64_t watchdog_aborts = 0;  // loads killed by the load deadline
  std::int64_t fail_stops = 0;       // dispatches refused: device fail-stop
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_probes = 0;
  std::int64_t breaker_closes = 0;
  std::int64_t slo_breaches = 0;  // edge-triggered burn-rate alerts
  std::int64_t batches = 0;    // serve_batch calls; 0 when batching is off
  std::int64_t coalesced = 0;  // members served beyond each batch's leader
  bool digests_ok = true;  // every served output matched its golden model
  std::vector<Completion> completions;
};

namespace detail {

/// The body of TaskServer (below), compiled once in server.cpp.
class TaskServerBase {
 public:
  TaskServerBase(Platform& p, std::size_t queue_capacity,
                 ServeOptions opts = {}, std::uint64_t seed = 1)
      : p_(&p),
        mgr_(p, opts.recovery),
        opts_(opts),
        queue_(queue_capacity),
        seed_(seed) {
    mgr_.set_plan_cache_enabled(opts_.plan_cache);
    for (const SloSpec& s : opts_.slos) slos_.emplace_back(s);
    if (trace::FlightRecorder* fr = p.sim().flight_recorder()) {
      // Replaces any previous server's provider under the same name; the
      // recorder only snapshots during a run, while this server is alive.
      fr->add_state_provider(
          "serve", [this](std::ostream& os) { write_state(os); });
    }
  }

  [[nodiscard]] RequestQueue& queue() { return queue_; }
  [[nodiscard]] ModuleManager<>& manager() { return mgr_; }
  [[nodiscard]] const ServeReport& report() const { return report_; }
  [[nodiscard]] const std::vector<SloEngine>& slos() const { return slos_; }
  [[nodiscard]] CircuitBreaker& breaker(hw::BehaviorId id) {
    auto it = breakers_.find(id);
    if (it == breakers_.end()) {
      it = breakers_.emplace(id, CircuitBreaker{opts_.breaker}).first;
    }
    return it->second;
  }

  /// Admission control: typed rejection, never an unbounded queue.
  AdmitError submit(const Request& r);

  [[nodiscard]] bool pending() const { return !queue_.empty(); }

  /// Pop and serve the next batch: the leader pop_affine picks (the
  /// highest-priority request; on a multi-area device the highest-priority
  /// request warm in some area, with aging -- see
  /// ServeOptions::affinity_max_bypass), extended with slack-bounded
  /// same-behaviour requests when batching is on. One residency (and, for
  /// 64-bit image tasks, one multi-buffer scatter-gather descriptor chain)
  /// serves every member. Expiry, fail-stop, deadline accounting, SLOs and
  /// digests are evaluated per member; the batch shares the breaker
  /// decision, the watchdog-armed module ensure (armed against the earliest
  /// member deadline, so no member's deadline is sacrificed) and the chain
  /// kick. A member whose output fails golden verification (a fault
  /// corrupted its beats mid-chain) is re-run on the software kernel for a
  /// bit-identical digest; the rest of the batch is unaffected. With
  /// batching off (max_batch <= 1) every batch is one request. Advances
  /// simulated time.
  std::vector<Completion> serve_batch();

 private:
  [[nodiscard]] sim::SimTime now() const { return p_->kernel().now(); }
  [[nodiscard]] int dock_width() const { return p_->dock_width(); }

  Completion make_completion(const Request& r, Outcome o) {
    Completion c;
    c.req = r;
    c.outcome = o;
    c.started = now();
    c.finished = now();
    return c;
  }

  /// Input seed for a request: a pure function of the server seed and the
  /// request id, so replays and -j settings cannot disturb it.
  [[nodiscard]] std::uint64_t input_seed(const Request& r) const {
    std::uint64_t h = kFnvOffset;
    h = fnv1a_u32(static_cast<std::uint32_t>(seed_), h);
    h = fnv1a_u32(static_cast<std::uint32_t>(seed_ >> 32), h);
    h = fnv1a_u32(static_cast<std::uint32_t>(r.id), h);
    return h;
  }

  /// Warm the manager's plan cache for the next queued request that would
  /// force a module swap. Pure host-side work between requests (zero
  /// simulated time), so the served outputs cannot observe it; the warm is
  /// traced as a SERVE instant and scored by serve.prefetch.* counters.
  void prefetch_next(const Request& just_served);

  /// Run the request's kernel, timing the execution stage and tracing it
  /// as a flow-linked complete span.
  ExecResult timed_exec(const Request& req, bool hw);

  /// Per-stage latency histograms: one aggregate series per stage plus a
  /// per-request-class series suffixed with the task name (the paper's §4
  /// cost decomposition, per class). Pointers into the registry are cached
  /// per behaviour so the hot path does no string building or map lookups.
  struct StagePair {
    sim::Histogram* all;
    sim::Histogram* cls;
  };
  struct StageHists {
    StagePair queue, prefetch, reconfig, exec;
  };
  static void stage_sample(const StagePair& h, std::int64_t v) {
    h.all->sample(v);
    h.cls->sample(v);
  }
  StageHists& stages(hw::BehaviorId behavior);

  static bool slo_good(const SloSpec& s, const Completion& c) {
    const bool served =
        c.outcome == Outcome::kHw || c.outcome == Outcome::kSw;
    switch (s.metric) {
      case SloSpec::Metric::kDeadline:
        return served && c.deadline_met;
      case SloSpec::Metric::kHwServe:
        return c.outcome == Outcome::kHw;
    }
    return false;
  }

  /// Feed every engine one sample for this disposition. A breach edge
  /// bumps counters, drops a SERVE instant and trips the flight recorder.
  void observe_slos(const Completion& c);

  void incident(const char* kind, std::int64_t req_id) {
    if (trace::FlightRecorder* fr = p_->sim().flight_recorder()) {
      fr->trigger(kind, req_id, now());
    }
  }

  /// The flight recorder's "serve" state provider: queue depth, breaker
  /// states and plan-cache occupancy at snapshot time.
  void write_state(std::ostream& os) const;

  // The serve.* series are looked up on first use and then held by
  // pointer. They are not registered up front: StatRegistry creates a
  // series on lookup, and one that never moves must stay out of the
  // --stats-out export.
  enum class Stat : std::uint8_t {
    kSubmitted, kUnservable, kAdmitted, kShed, kBatchCount, kBatchCoalesced,
    kExpired, kFailStop, kFailed, kBreakerOpens, kBreakerProbes,
    kBreakerCloses, kPrefetchHits, kPrefetchMisses, kPrefetchWasted,
    kWatchdogAborts, kHw, kDegraded, kBatchMemberDegraded, kDeadlineMiss,
    kSloSamples, kSloBreaches, kCount
  };
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(Stat::kCount)>
      kStatNames{
          "serve.submitted", "serve.unservable", "serve.admitted", "serve.shed",
          "serve.batch.count", "serve.batch.coalesced", "serve.expired",
          "serve.fail_stop", "serve.failed", "serve.breaker_opens",
          "serve.breaker_probes", "serve.breaker_closes", "serve.prefetch.hits",
          "serve.prefetch.misses", "serve.prefetch.wasted",
          "serve.watchdog_aborts", "serve.hw", "serve.degraded",
          "serve.batch.member_degraded", "serve.deadline_miss",
          "serve.slo.samples", "serve.slo.breaches",
      };

  sim::Counter& counter(Stat s) {
    const auto i = static_cast<std::size_t>(s);
    if (counters_[i] == nullptr) {
      counters_[i] = &p_->sim().stats().counter(kStatNames[i]);
    }
    return *counters_[i];
  }

  /// serve.area.<i>.hits (module already resident) or .loads.
  sim::Counter& area_counter(int area, bool hit) {
    const auto i = static_cast<std::size_t>(area);
    if (area_counters_.size() <= i) area_counters_.resize(i + 1);
    sim::Counter*& c = area_counters_[i][hit ? 0 : 1];
    if (c == nullptr) {
      c = &p_->sim().stats().counter("serve.area." + std::to_string(area) +
                                     (hit ? ".hits" : ".loads"));
    }
    return *c;
  }

  sim::Histogram& hist(sim::Histogram*& cached, const char* name) {
    if (cached == nullptr) cached = &p_->sim().stats().histogram(name);
    return *cached;
  }

  void mark(const char* what, std::int64_t req_id) {
    trace::Tracer& tr = p_->sim().tracer();
    if (tr.enabled()) {
      tr.instant(tr.track("SERVE"), what, now(), "req", req_id);
    }
  }

  Platform* p_;
  ModuleManager<> mgr_;
  ServeOptions opts_;
  RequestQueue queue_;
  std::uint64_t seed_;
  std::map<int, CircuitBreaker> breakers_;
  std::map<int, StageHists> stage_hists_;
  std::vector<SloEngine> slos_;
  ServeReport report_;
  int prefetch_pending_ = -1;  // behaviour warmed but not yet consumed
  std::array<sim::Counter*, static_cast<std::size_t>(Stat::kCount)>
      counters_{};
  std::vector<std::array<sim::Counter*, 2>> area_counters_;
  sim::Histogram* batch_size_ = nullptr;
  sim::Histogram* latency_ = nullptr;
};

}  // namespace detail

/// The task server. Its template parameter is unused:
/// benchmark/rtrsim_bench.cpp names TaskServer<Platform32> and
/// TaskServer<Platform64>, so the parameter stays until that benchmark stops
/// naming it. Every instantiation is the one compiled body; elsewhere let
/// the constructor deduce TaskServer<> (TaskServer srv{p, capacity}).
template <typename = Platform>
class TaskServer final : public detail::TaskServerBase {
 public:
  using TaskServerBase::TaskServerBase;
};
template <typename... Args>
TaskServer(Platform&, Args&&...) -> TaskServer<>;


/// Drive a closed-loop workload to completion: each client submits its next
/// request a think-time after its previous one was disposed of. When the
/// queue drains, the CPU idles to the next submission (there is no wall
/// clock -- everything, including idle periods, is simulated time).
///
/// `repair_at_completion` models field repair: after that many requests
/// have been disposed of, every armed fault is repaired (FaultInjector::
/// repair_all), so a subsequent half-open probe finds working hardware.
ServeReport run_workload(Platform& p, const WorkloadSpec& w,
                         std::uint64_t seed, ServeOptions opts = {},
                         int repair_at_completion = -1);

/// Replay an open-loop arrival stream to completion: requests arrive at
/// their pre-drawn times whether or not earlier ones have finished, so
/// bursts genuinely pile up in the queue -- the heavy-traffic pressure a
/// closed loop's think-time feedback cannot create, and the regime where
/// slack-bounded batching pays (docs/SERVING.md "Batching").
ServeReport run_open_workload(Platform& p, const OpenLoopSpec& spec,
                              std::uint64_t seed, ServeOptions opts = {});

}  // namespace rtr::serve
