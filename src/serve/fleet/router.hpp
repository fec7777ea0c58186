// FleetRouter: reconfiguration-affinity request routing across N devices.
//
// The router is the fleet's global scheduler, and it is deliberately a
// *planner*, not an oracle: it routes the whole admission stream against
// its own integer model of every shard (predicted resident behaviour, warm
// plan set, estimated backlog), exactly the way a real load balancer
// routes on reported state rather than on the device's internal clock.
// That split is what buys determinism: routing is a serial pure function
// of (stream, shard systems, policy, seed), so the per-shard request
// scripts it emits are byte-identical at any host worker count, and the
// shards can then be simulated embarrassingly parallel.
//
// Placement policy, per arrival:
//   1. affinity: prefer a capable shard whose predicted resident module
//      already is the requested behaviour, then one with a warm
//      (differential-plan-cached) behaviour -- a hit swaps nothing;
//   2. depth guard: an affinity candidate deeper than the least-loaded
//      capable shard by more than `steal_threshold` is rejected (counted
//      as a rebalance) -- a hot behaviour must not serialise behind one
//      device while others idle;
//   3. fallback: least predicted depth, ties to earliest drain then to
//      the lowest shard index.
//
// Work stealing, after every placement (rebalance()):
//   a. deadline rescue: a shard whose *tail* entry is predicted to miss
//      its deadline gives it to a capable shard that is predicted to make
//      it (deadline slack degraded);
//   b. depth gap: while the deepest shard exceeds the shallowest capable
//      one by more than max(steal_threshold, 1), its tail moves over.
// `steal_threshold == 0` disables stealing entirely.
//
// One route() is one O(devices) scan (backlog decay is amortised O(1) per
// routed request) -- BM_FleetRouteDecision pins that cost in CI.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "hw/library.hpp"
#include "serve/request.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rtr::serve::fleet {

/// Coarse integer planning costs (ps). Only their relative magnitude
/// matters -- a swap dwarfs an execution -- and determinism only needs
/// them fixed; the shards' simulated clocks are the ground truth.
constexpr std::int64_t kEstExecPs = sim::SimTime::from_ms(3).ps();
constexpr std::int64_t kEstSwapPs32 = sim::SimTime::from_ms(8).ps();
constexpr std::int64_t kEstSwapPs64 = sim::SimTime::from_ms(9).ps();

/// Geometry fact from hw/library.hpp: every task module fits the 32-bit
/// system's region except SHA-1 and the XL pattern matcher, which only
/// the 64-bit system's region can host. Routing one of those to a 32-bit
/// shard would burn a reconfiguration attempt just to degrade to the
/// software kernel, so the router filters candidates up front. When *no*
/// shard in the fleet can host a behaviour (an all-32-bit mix), the filter
/// is waived and the request goes least-loaded; the shard's server
/// degrades it to the bit-identical software kernel.
[[nodiscard]] inline bool shard_can_host(int system, int behavior) {
  if (system == 64) return true;
  return behavior != hw::kSha1 && behavior != hw::kPatternMatcherXl;
}

class FleetRouter {
 public:
  struct Counters {
    std::int64_t decisions = 0;
    std::int64_t affinity_hits = 0;  // placed by residency or a warm plan
    std::int64_t rebalances = 0;     // affinity rejected by the depth guard
    std::int64_t steals = 0;         // queued entries moved between shards
  };

  /// `areas` is the dynamic-area count per shard (co-resident modules; see
  /// docs/PLACEMENT.md): empty means one area everywhere, the pre-multi-area
  /// model. A shard with N areas keeps up to N behaviours warm at once, so
  /// affinity matches any of them.
  FleetRouter(std::vector<int> systems, bool affinity, int steal_threshold,
              std::uint64_t seed, std::vector<int> areas = {})
      : affinity_(affinity),
        steal_threshold_(steal_threshold),
        rng_(seed),
        shards_(systems.size()) {
    RTR_CHECK(!systems.empty(), "fleet needs at least one device");
    RTR_CHECK(areas.empty() || areas.size() == systems.size(),
              "areas must be empty or one entry per device");
    for (std::size_t i = 0; i < systems.size(); ++i) {
      shards_[i].system = systems[i];
      if (!areas.empty()) {
        RTR_CHECK(areas[i] >= 1, "every shard needs at least one area");
        shards_[i].areas = areas[i];
      }
    }
  }

  [[nodiscard]] std::size_t devices() const { return shards_.size(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // --- health integration (docs/FLEET_HEALTH.md) -------------------------
  /// A quarantined shard is removed from every candidate set (placement,
  /// random arm, stealing) until readmitted.
  void set_available(int shard, bool on) {
    shards_[static_cast<std::size_t>(shard)].available = on;
  }
  [[nodiscard]] bool available(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].available;
  }
  /// Probation: the shard competes with this many phantom backlog entries
  /// added to its predicted depth, so it is eased back into rotation
  /// instead of immediately flooded (0 = full weight).
  void set_weight_penalty(int shard, std::size_t penalty) {
    shards_[static_cast<std::size_t>(shard)].penalty = penalty;
  }
  /// Epoch barrier (fleet runner): everything routed so far has actually
  /// been served, so drop every predicted backlog entry -- a later
  /// rebalance must never steal a request that already ran on its device.
  void checkpoint() {
    for (Shard& s : shards_) s.backlog.clear();
  }

  /// Shard assignment per routed request, index-aligned with the arrival
  /// stream. rebalance() rewrites entries in place when it steals.
  [[nodiscard]] const std::vector<int>& assignments() const {
    return assignments_;
  }

  /// Route the next arrival (streams are routed in submission order) and
  /// rebalance. Returns the shard the request is assigned to *now*; a
  /// later route() may still steal it, so the scripts the fleet hands to
  /// its shards must come from assignments() after the full stream.
  /// Returns -1 (a typed no_healthy_device admission failure upstream)
  /// when every shard is unavailable -- the capability filter is never
  /// waived onto a quarantined device.
  int route(const Request& r) {
    RTR_CHECK(assignments_.size() ==
                  static_cast<std::size_t>(counters_.decisions),
              "arrival stream must be routed in order");
    ++counters_.decisions;
    const std::int64_t now = r.submitted.ps();
    advance(now);

    const std::size_t idx = assignments_.size();
    const int shard = pick(r);
    if (shard < 0) {
      assignments_.push_back(-1);
      return -1;
    }
    place(shard, idx, r.behavior, r.deadline.ps(), now);
    assignments_.push_back(shard);
    if (steal_threshold_ > 0) rebalance(now);
    return assignments_[idx];
  }

 private:
  struct Planned {
    std::size_t req_index;
    int behavior;
    std::int64_t deadline_ps;  // 0 = none
    std::int64_t est_cost_ps;
    std::int64_t est_finish_ps;
  };

  struct Shard {
    int system = 64;
    int areas = 1;              // co-resident dynamic areas on the device
    bool available = true;      // false while quarantined/draining
    std::size_t penalty = 0;    // probation: phantom depth added in pick()
    /// Predicted resident behaviours after drain, most recent first,
    /// capped at `areas` -- mirrors the device-side LRU placer. With one
    /// area this is the legacy single resident.
    std::vector<int> resident;
    std::uint64_t plans = 0;    // bit (behaviour - 100): warm plan expected
    std::int64_t ready_ps = 0;  // predicted backlog drain time
    std::deque<Planned> backlog;
  };

  [[nodiscard]] static bool is_resident(const Shard& s, int behavior) {
    return std::find(s.resident.begin(), s.resident.end(), behavior) !=
           s.resident.end();
  }

  /// Move `behavior` to the front of the shard's residency MRU, evicting
  /// the least recent entry past the area count -- the router-side mirror
  /// of the placer's LRU eviction.
  static void touch_resident(Shard& s, int behavior) {
    auto it = std::find(s.resident.begin(), s.resident.end(), behavior);
    if (it != s.resident.end()) s.resident.erase(it);
    s.resident.insert(s.resident.begin(), behavior);
    if (static_cast<int>(s.resident.size()) > s.areas) {
      s.resident.resize(static_cast<std::size_t>(s.areas));
    }
  }

  [[nodiscard]] static std::uint64_t plan_bit(int behavior) {
    const int b = behavior - hw::kPatternMatcher;  // lowest behaviour id
    return (b >= 0 && b < 64) ? (1ULL << b) : 0;
  }

  [[nodiscard]] std::int64_t est_swap_ps(const Shard& s) const {
    return s.system == 32 ? kEstSwapPs32 : kEstSwapPs64;
  }

  /// Whether the capability filter applies for this behaviour: only if at
  /// least one *available* shard can actually host it (otherwise everyone
  /// degrades to software and load is the only thing left to balance).
  /// Quarantined shards never count -- the filter is not waived onto a
  /// known-dead device.
  [[nodiscard]] bool filter_for(int behavior) const {
    for (const Shard& s : shards_) {
      if (s.available && shard_can_host(s.system, behavior)) return true;
    }
    return false;
  }

  /// Drop backlog entries predicted served by `now` from every shard.
  void advance(std::int64_t now) {
    for (Shard& s : shards_) {
      while (!s.backlog.empty() && s.backlog.front().est_finish_ps <= now) {
        s.backlog.pop_front();
      }
    }
  }

  /// One O(devices) scan: affinity candidate (resident, then warm plan),
  /// least-loaded fallback, depth guard between them. Only available
  /// shards are candidates; a probation penalty counts as extra depth.
  /// Returns -1 when no shard is available at all.
  int pick(const Request& r) {
    const bool filter = filter_for(r.behavior);
    int least = -1, resident = -1, warm = -1;
    std::size_t least_d = 0, resident_d = 0, warm_d = 0;
    for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
      const Shard& s = shards_[static_cast<std::size_t>(i)];
      if (!s.available) continue;
      if (filter && !shard_can_host(s.system, r.behavior)) continue;
      const std::size_t d = s.backlog.size() + s.penalty;
      if (least < 0 || d < least_d ||
          (d == least_d &&
           s.ready_ps < shards_[static_cast<std::size_t>(least)].ready_ps)) {
        least = i;
        least_d = d;
      }
      if (is_resident(s, r.behavior) && (resident < 0 || d < resident_d)) {
        resident = i;
        resident_d = d;
      }
      if ((s.plans & plan_bit(r.behavior)) != 0 && (warm < 0 || d < warm_d)) {
        warm = i;
        warm_d = d;
      }
    }
    if (least < 0) return -1;  // every shard quarantined
    if (!affinity_) {
      // Random sharding (the --no-affinity A/B arm): uniform over capable
      // available shards, seeded, still deterministic because routing is
      // serial.
      int n = 0;
      for (const Shard& s : shards_) {
        if (!s.available) continue;
        if (!filter || shard_can_host(s.system, r.behavior)) ++n;
      }
      auto pick_n = static_cast<int>(rng_.below(static_cast<std::uint64_t>(n)));
      for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
        const Shard& s = shards_[static_cast<std::size_t>(i)];
        if (!s.available) continue;
        if (filter && !shard_can_host(s.system, r.behavior)) continue;
        if (pick_n-- == 0) return i;
      }
    }
    const std::size_t slack = static_cast<std::size_t>(
        steal_threshold_ > 0 ? steal_threshold_ : 0);
    const int cand = resident >= 0 ? resident : warm;
    const std::size_t cand_d = resident >= 0 ? resident_d : warm_d;
    if (cand >= 0) {
      if (cand_d <= least_d + slack) {
        ++counters_.affinity_hits;
        return cand;
      }
      ++counters_.rebalances;  // hot shard too deep: spread the behaviour
    }
    return least;
  }

  /// Append to the shard's predicted backlog and update its model.
  void place(int shard, std::size_t req_index, int behavior,
             std::int64_t deadline_ps, std::int64_t now) {
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    std::int64_t cost = kEstExecPs;
    if (!is_resident(s, behavior)) cost += est_swap_ps(s);
    const std::int64_t start = s.ready_ps > now ? s.ready_ps : now;
    const std::int64_t finish = start + cost;
    s.backlog.push_back({req_index, behavior, deadline_ps, cost, finish});
    s.ready_ps = finish;
    touch_resident(s, behavior);
    s.plans |= plan_bit(behavior);
  }

  /// Remove the tail of `victim`'s backlog and roll its model back.
  Planned unplace(Shard& victim) {
    const Planned tail = victim.backlog.back();
    victim.backlog.pop_back();
    victim.ready_ps =
        victim.backlog.empty() ? 0 : victim.backlog.back().est_finish_ps;
    if (!victim.backlog.empty()) {
      // Rebuild the residency MRU: backlogged behaviours newest first,
      // then what the previous prediction still remembers, capped at the
      // area count. (An empty backlog leaves the prediction untouched,
      // matching the single-area model.)
      std::vector<int> rebuilt;
      for (auto it = victim.backlog.rbegin();
           it != victim.backlog.rend() &&
           static_cast<int>(rebuilt.size()) < victim.areas;
           ++it) {
        if (std::find(rebuilt.begin(), rebuilt.end(), it->behavior) ==
            rebuilt.end()) {
          rebuilt.push_back(it->behavior);
        }
      }
      for (const int b : victim.resident) {
        if (static_cast<int>(rebuilt.size()) >= victim.areas) break;
        if (std::find(rebuilt.begin(), rebuilt.end(), b) == rebuilt.end()) {
          rebuilt.push_back(b);
        }
      }
      victim.resident = std::move(rebuilt);
    }
    return tail;
  }

  /// Best shard to re-place a stolen tail on: least depth among capable
  /// shards excluding the victim, ties to earliest drain then index.
  int thief_for(int victim, int behavior) const {
    const bool filter = filter_for(behavior);
    int best = -1;
    for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
      if (i == victim) continue;
      const Shard& s = shards_[static_cast<std::size_t>(i)];
      if (!s.available) continue;
      if (filter && !shard_can_host(s.system, behavior)) continue;
      if (best < 0 ||
          s.backlog.size() <
              shards_[static_cast<std::size_t>(best)].backlog.size() ||
          (s.backlog.size() ==
               shards_[static_cast<std::size_t>(best)].backlog.size() &&
           s.ready_ps < shards_[static_cast<std::size_t>(best)].ready_ps)) {
        best = i;
      }
    }
    return best;
  }

  [[nodiscard]] std::int64_t placed_finish(const Shard& s, int behavior,
                                           std::int64_t now) const {
    std::int64_t cost = kEstExecPs;
    if (!is_resident(s, behavior)) cost += est_swap_ps(s);
    return (s.ready_ps > now ? s.ready_ps : now) + cost;
  }

  void steal(int victim, int thief, std::int64_t now) {
    Shard& v = shards_[static_cast<std::size_t>(victim)];
    const Planned tail = unplace(v);
    place(thief, tail.req_index, tail.behavior, tail.deadline_ps, now);
    assignments_[tail.req_index] = thief;
    ++counters_.steals;
  }

  /// Work stealing, bounded at O(devices) moves per arrival.
  void rebalance(std::int64_t now) {
    // (a) Deadline rescue: a tail predicted late moves to a shard
    // predicted to make it (strictly earlier at minimum).
    for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
      Shard& s = shards_[static_cast<std::size_t>(i)];
      if (s.backlog.empty()) continue;
      const Planned& tail = s.backlog.back();
      if (tail.deadline_ps <= 0 || tail.est_finish_ps <= tail.deadline_ps) {
        continue;
      }
      const int t = thief_for(i, tail.behavior);
      if (t < 0) continue;
      const std::int64_t alt = placed_finish(
          shards_[static_cast<std::size_t>(t)], tail.behavior, now);
      // Any strictly earlier predicted finish is an improvement (and each
      // successive move is strictly earlier again, so rescues terminate).
      if (alt < tail.est_finish_ps) steal(i, t, now);
    }
    // (b) Depth gap: moving one entry only helps while the gap is >= 2,
    // so the floor of 1 also keeps a 0-1 imbalance from ping-ponging.
    const std::size_t gap_limit = static_cast<std::size_t>(
        steal_threshold_ > 1 ? steal_threshold_ : 1);
    for (std::size_t moves = 0; moves < shards_.size(); ++moves) {
      int deep = -1;
      for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
        if (deep < 0 ||
            shards_[static_cast<std::size_t>(i)].backlog.size() >
                shards_[static_cast<std::size_t>(deep)].backlog.size()) {
          deep = i;
        }
      }
      Shard& v = shards_[static_cast<std::size_t>(deep)];
      if (v.backlog.empty()) return;
      const int t = thief_for(deep, v.backlog.back().behavior);
      if (t < 0) return;
      if (v.backlog.size() <=
          shards_[static_cast<std::size_t>(t)].backlog.size() + gap_limit) {
        return;
      }
      steal(deep, t, now);
    }
  }

  bool affinity_;
  int steal_threshold_;
  sim::Rng rng_;
  std::vector<Shard> shards_;
  std::vector<int> assignments_;
  Counters counters_;
};

}  // namespace rtr::serve::fleet
