// Fleet serving: Zipf workload generation, reconfiguration-affinity
// routing, work stealing, per-shard registry merging and whole-fleet
// determinism across host worker counts.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/fleet/router.hpp"
#include "serve/workload.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace {

using namespace rtr;
using namespace rtr::serve;
using namespace rtr::serve::fleet;

Request arrival(std::int64_t id, hw::BehaviorId b, std::int64_t at_ms,
                std::int64_t deadline_ms = 0) {
  Request r;
  r.id = id;
  r.behavior = b;
  r.submitted = sim::SimTime::from_ms(at_ms);
  if (deadline_ms > 0) r.deadline = sim::SimTime::from_ms(deadline_ms);
  return r;
}

// ---------------------------------------------------------------------------
// Zipf behaviour popularity (workload.hpp).
// ---------------------------------------------------------------------------

TEST(ZipfMix, WeightsFollowTheRankLaw) {
  const std::vector<TaskMix> mix = zipf_mix(fleet_behaviors(), 1);
  ASSERT_EQ(mix.size(), 6u);
  for (std::size_t k = 0; k < mix.size(); ++k) {
    EXPECT_EQ(mix[k].weight, kZipfScale / static_cast<int>(k + 1));
  }
  // Rank order matches the given behaviour order.
  EXPECT_EQ(mix.front().behavior, hw::kJenkinsHash);
  EXPECT_EQ(mix.back().behavior, hw::kSha1);
}

TEST(ZipfMix, SkewZeroIsUniformAndWeightsNeverVanish) {
  for (const TaskMix& m : zipf_mix(fleet_behaviors(), 0)) {
    EXPECT_EQ(m.weight, kZipfScale);
  }
  // 6^4 > kZipfScale: integer division would zero the tail weight, which
  // would make the behaviour undrawable; the floor of 1 keeps it alive.
  for (const TaskMix& m : zipf_mix(fleet_behaviors(), 4)) {
    EXPECT_GE(m.weight, 1);
  }
}

TEST(ZipfMix, DrawsAreSeededAndSkewedTowardTheHead) {
  const std::vector<TaskMix> mix = zipf_mix(fleet_behaviors(), 1);
  sim::Rng a{7}, b{7};
  int head = 0, tail = 0;
  for (int i = 0; i < 2000; ++i) {
    const hw::BehaviorId d = draw_mix(a, mix);
    ASSERT_EQ(d, draw_mix(b, mix));  // replayable
    if (d == hw::kJenkinsHash) ++head;
    if (d == hw::kSha1) ++tail;
  }
  // Zipf(1) over 6 ranks: head probability 1/H6 ~ 0.41, tail ~ 0.068.
  EXPECT_GT(head, 4 * tail);
}

// ---------------------------------------------------------------------------
// Arrival stream (fleet.cpp).
// ---------------------------------------------------------------------------

TEST(FleetStream, DeterministicOrderedAndIdsPreassigned) {
  FleetWorkloadSpec w;
  w.requests = 300;
  const std::vector<Request> a = make_fleet_stream(w, 42);
  const std::vector<Request> b = make_fleet_stream(w, 42);
  ASSERT_EQ(a.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i + 1));
    EXPECT_EQ(a[i].behavior, b[i].behavior);
    EXPECT_EQ(a[i].submitted.ps(), b[i].submitted.ps());
    if (i > 0) {
      EXPECT_GE(a[i].submitted.ps(), a[i - 1].submitted.ps());
    }
    EXPECT_EQ(a[i].deadline.ps(), a[i].submitted.ps() + w.rel_deadline_ps);
  }
  const std::vector<Request> c = make_fleet_stream(w, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].behavior != c[i].behavior ||
              a[i].submitted.ps() != c[i].submitted.ps();
  }
  EXPECT_TRUE(differs);  // the seed actually matters
}

// ---------------------------------------------------------------------------
// FleetRouter policy.
// ---------------------------------------------------------------------------

TEST(FleetRouter, AffinityRoutesRepeatsToTheResidentShard) {
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/4, 1);
  const int first = r.route(arrival(1, hw::kBrightness, 0));
  // Spaced-out repeats: each arrives after the previous drained, so only
  // residency (not load) can explain the placement.
  EXPECT_EQ(r.route(arrival(2, hw::kBrightness, 100)), first);
  EXPECT_EQ(r.route(arrival(3, hw::kBrightness, 200)), first);
  EXPECT_EQ(r.counters().affinity_hits, 2);
  EXPECT_EQ(r.counters().steals, 0);
}

TEST(FleetRouter, CapabilityFilterKeepsSha1OffThe32BitShard) {
  // hw/library.hpp: SHA-1 does not fit the 32-bit system's dynamic area.
  FleetRouter r({32, 64, 32}, /*affinity=*/true, /*steal_threshold=*/4, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.route(arrival(i + 1, hw::kSha1, i)), 1);
  }
  // The no-affinity arm keeps the filter too: the A/B isolates affinity.
  FleetRouter nr({32, 64, 32}, /*affinity=*/false, /*steal_threshold=*/4, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(nr.route(arrival(i + 1, hw::kSha1, i)), 1);
  }
}

TEST(FleetRouter, DepthGuardSpreadsAHotBehavior) {
  // threshold 0: zero slack (and no stealing), so the resident shard may
  // never be deeper than the least-loaded one. A same-instant burst of one
  // behaviour must spill over instead of serialising behind one device.
  FleetRouter r({64, 64, 64}, /*affinity=*/true, /*steal_threshold=*/0, 1);
  std::vector<int> used(3, 0);
  for (int i = 0; i < 9; ++i) {
    ++used[static_cast<std::size_t>(r.route(arrival(i + 1, hw::kFade, 0)))];
  }
  EXPECT_GT(r.counters().rebalances, 0);
  EXPECT_EQ(r.counters().steals, 0);
  int busy = 0;
  for (const int u : used) busy += u > 0 ? 1 : 0;
  EXPECT_EQ(busy, 3);
}

TEST(FleetRouter, UnhostableEverywhereFallsBackToLeastLoaded) {
  // All-32-bit fleet: nothing can host SHA-1, so the capability filter is
  // waived and the stream load-balances; the shards degrade to software.
  FleetRouter r({32, 32}, /*affinity=*/true, /*steal_threshold=*/4, 1);
  std::vector<int> used(2, 0);
  for (int i = 0; i < 6; ++i) {
    ++used[static_cast<std::size_t>(r.route(arrival(i + 1, hw::kSha1, 0)))];
  }
  EXPECT_GT(used[0], 0);
  EXPECT_GT(used[1], 0);
}

TEST(FleetRouter, StealRescuesATailPredictedToMissItsDeadline) {
  // Big threshold: the depth guard stays quiet, so requests 1..4 pile on
  // shard 0 by affinity. Request 4's predicted finish (4 x est cost) blows
  // its deadline while shard 1 sits idle -- the rebalance pass must move
  // it (deadline slack degraded => work stealing).
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/50, 1);
  const int s0 = r.route(arrival(1, hw::kBlendAdd, 0, 1000));
  EXPECT_EQ(r.route(arrival(2, hw::kBlendAdd, 0, 1000)), s0);
  EXPECT_EQ(r.route(arrival(3, hw::kBlendAdd, 0, 1000)), s0);
  ASSERT_EQ(r.counters().steals, 0);
  // ~12 ms predicted backlog ahead of it; deadline at 14 ms cannot hold.
  (void)r.route(arrival(4, hw::kBlendAdd, 0, 14));
  EXPECT_EQ(r.counters().steals, 1);
  EXPECT_EQ(r.assignments().back(), 1 - s0);
}

TEST(FleetRouter, ThresholdZeroDisablesStealing) {
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/0, 1);
  (void)r.route(arrival(1, hw::kBlendAdd, 0, 1000));
  (void)r.route(arrival(2, hw::kBlendAdd, 0, 1000));
  (void)r.route(arrival(3, hw::kBlendAdd, 0, 1000));
  (void)r.route(arrival(4, hw::kBlendAdd, 0, 14));  // doomed, but no rescue
  EXPECT_EQ(r.counters().steals, 0);
}

// ---------------------------------------------------------------------------
// StatRegistry::merge with concurrently built per-shard registries.
// ---------------------------------------------------------------------------

TEST(StatMerge, ConcurrentShardRegistriesMergeExactly) {
  // The fleet's aggregation model: each shard owns a private registry,
  // built on its own thread; the merge happens serially afterwards.
  // Counters must sum and histogram buckets must add exactly.
  constexpr int kShards = 8;
  constexpr int kSamples = 500;
  std::vector<sim::StatRegistry> regs(kShards);
  std::vector<std::thread> pool;
  pool.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    pool.emplace_back([s, &regs] {
      sim::StatRegistry& reg = regs[static_cast<std::size_t>(s)];
      sim::Rng rng{static_cast<std::uint64_t>(s + 1)};
      for (int i = 0; i < kSamples; ++i) {
        reg.counter("serve.hw").add();
        reg.histogram("serve.latency_ps")
            .sample(static_cast<std::int64_t>(rng.below(1u << 20)));
      }
      reg.counter("shard.only." + std::to_string(s)).add(s);
    });
  }
  for (std::thread& t : pool) t.join();

  sim::StatRegistry agg;
  std::int64_t expect_sum = 0, expect_min = -1, expect_max = -1;
  for (const sim::StatRegistry& reg : regs) {
    agg.merge(reg);
    const sim::Histogram& h = reg.histograms().at("serve.latency_ps");
    expect_sum += h.sum();
    expect_min = expect_min < 0 ? h.min() : std::min(expect_min, h.min());
    expect_max = std::max(expect_max, h.max());
  }
  EXPECT_EQ(agg.counters().at("serve.hw").value(), kShards * kSamples);
  const sim::Histogram& merged = agg.histograms().at("serve.latency_ps");
  EXPECT_EQ(merged.count(), kShards * kSamples);
  EXPECT_EQ(merged.sum(), expect_sum);
  EXPECT_EQ(merged.min(), expect_min);
  EXPECT_EQ(merged.max(), expect_max);
  // Stats unique to one shard survive the merge untouched.
  EXPECT_EQ(agg.counters().at("shard.only.3").value(), 3);
  // Merging is reproducible: the same fold gives the same percentiles.
  sim::StatRegistry again;
  for (const sim::StatRegistry& reg : regs) again.merge(reg);
  EXPECT_EQ(merged.percentile(99.0),
            again.histograms().at("serve.latency_ps").percentile(99.0));
}

// ---------------------------------------------------------------------------
// Whole-fleet runs.
// ---------------------------------------------------------------------------

FleetOptions small_fleet(int devices, int jobs) {
  FleetOptions fo;
  fo.devices = devices;
  fo.jobs = jobs;
  return fo;
}

FleetWorkloadSpec small_load(int requests) {
  FleetWorkloadSpec w;
  w.requests = requests;
  return w;
}

/// Everything deterministic about a report, flattened for comparison.
std::string fingerprint(const FleetReport& fr) {
  std::ostringstream os;
  os << fr.requests << '/' << fr.served_hw << '/' << fr.degraded << '/'
     << fr.shed << '/' << fr.expired << '/' << fr.deadline_miss << '/'
     << fr.failed << '/' << fr.swaps << '/' << fr.digests_ok << '/'
     << fr.route.decisions << '/' << fr.route.affinity_hits << '/'
     << fr.route.rebalances << '/' << fr.route.steals << '\n';
  os << fr.redispatched << '/' << fr.retry_exhausted << '/'
     << fr.no_healthy_device << '\n';
  for (const HealthEvent& e : fr.health_events) {
    os << e.epoch << ':' << e.device << ':' << static_cast<int>(e.from)
       << "->" << static_cast<int>(e.to) << ':' << e.score << '@' << e.at_ps
       << '\n';
  }
  for (const ShardOutcome& s : fr.shards) {
    os << s.system << ':' << s.routed << ':' << s.swaps << ':' << s.final_ps
       << ':' << s.report.completions.size();
    for (const Completion& c : s.report.completions) {
      os << ' ' << c.req.id << '=' << c.digest << '@' << c.finished.ps();
    }
    os << '\n';
  }
  fr.stats.export_json(os);
  return os.str();
}

TEST(FleetServer, EveryRequestIsRoutedAndServedExactlyOnce) {
  const FleetReport fr = run_fleet(small_fleet(4, 1), small_load(120));
  EXPECT_EQ(fr.requests, 120);
  std::int64_t routed = 0;
  for (const ShardOutcome& s : fr.shards) routed += s.routed;
  EXPECT_EQ(routed, 120);
  EXPECT_EQ(fr.served_hw + fr.degraded + fr.shed + fr.expired + fr.failed,
            120);
  EXPECT_TRUE(fr.digests_ok);
  EXPECT_EQ(fr.failed, 0);
  // The merged registry carries the fleet.* series.
  EXPECT_EQ(fr.stats.counters().at("fleet.route.decisions").value(), 120);
  EXPECT_EQ(fr.stats.histograms().at("fleet.latency_ps").count(),
            fr.served_hw + fr.degraded);
}

TEST(FleetServer, ByteIdenticalAcrossHostWorkerCounts) {
  const FleetReport j1 = run_fleet(small_fleet(5, 1), small_load(150));
  const FleetReport j4 = run_fleet(small_fleet(5, 4), small_load(150));
  const FleetReport j9 = run_fleet(small_fleet(5, 9), small_load(150));
  const std::string fp = fingerprint(j1);
  EXPECT_EQ(fp, fingerprint(j4));
  EXPECT_EQ(fp, fingerprint(j9));
}

TEST(FleetServer, SeedsChangeTheRunDeterministically) {
  FleetOptions fo = small_fleet(4, 2);
  const FleetReport a = run_fleet(fo, small_load(100));
  const FleetReport b = run_fleet(fo, small_load(100));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  fo.seed = 2;
  EXPECT_NE(fingerprint(a), fingerprint(run_fleet(fo, small_load(100))));
}

TEST(FleetServer, AffinityBeatsRandomShardingOnSwapsForIdenticalWork) {
  FleetOptions fo = small_fleet(6, 2);
  const FleetWorkloadSpec w = small_load(200);
  const FleetReport aff = run_fleet(fo, w);
  fo.affinity = false;
  const FleetReport rnd = run_fleet(fo, w);
  // Ids are assigned before routing, so both arms serve the same requests
  // with the same input seeds -- the swap counts compare identical work.
  EXPECT_EQ(aff.requests, rnd.requests);
  EXPECT_LT(aff.swaps, rnd.swaps);
  EXPECT_GT(aff.route.affinity_hits, 0);
  EXPECT_EQ(rnd.route.affinity_hits, 0);
  EXPECT_TRUE(aff.digests_ok);
  EXPECT_TRUE(rnd.digests_ok);
}

TEST(FleetServer, BatchingIsByteIdenticalAcrossWorkerCounts) {
  // Batch extraction runs inside each shard's serial epoch slice, so
  // enabling it must not disturb the fleet's -j determinism guarantee.
  FleetOptions fo = small_fleet(4, 1);
  fo.batch.max_batch = 8;
  const FleetReport j1 = run_fleet(fo, small_load(150));
  fo.jobs = 4;
  const FleetReport j4 = run_fleet(fo, small_load(150));
  EXPECT_EQ(fingerprint(j1), fingerprint(j4));
  EXPECT_TRUE(j1.digests_ok);
}

TEST(FleetServer, BatchingReducesFleetSwapsOnIdenticalWork) {
  // Ids are assigned before routing, so both arms serve the same requests
  // with the same input seeds -- the swap counts compare identical work.
  FleetOptions fo = small_fleet(3, 2);
  const FleetWorkloadSpec w = small_load(300);
  const FleetReport unbatched = run_fleet(fo, w);
  fo.batch.max_batch = 8;
  const FleetReport batched = run_fleet(fo, w);
  EXPECT_EQ(batched.requests, unbatched.requests);
  EXPECT_TRUE(batched.digests_ok);
  EXPECT_EQ(batched.failed, 0);
  EXPECT_LT(batched.swaps, unbatched.swaps);
  EXPECT_LE(batched.deadline_miss, unbatched.deadline_miss);
}

// ---------------------------------------------------------------------------
// FleetRouter health integration (availability, penalty, checkpoint).
// ---------------------------------------------------------------------------

TEST(FleetRouterHealth, UnavailableShardIsNeverACandidate) {
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/4, 1);
  r.set_available(0, false);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(r.route(arrival(i + 1, hw::kFade, i * 10)), 1);
  }
  EXPECT_TRUE(r.available(1));
  EXPECT_FALSE(r.available(0));
}

TEST(FleetRouterHealth, AllShardsDownIsATypedAdmissionFailure) {
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/4, 1);
  r.set_available(0, false);
  r.set_available(1, false);
  EXPECT_EQ(r.route(arrival(1, hw::kFade, 0)), -1);
  EXPECT_EQ(r.assignments().back(), -1);
  // Readmission restores normal routing; the -1 slot stays on record.
  r.set_available(1, true);
  EXPECT_EQ(r.route(arrival(2, hw::kFade, 10)), 1);
  EXPECT_EQ(r.assignments().front(), -1);
}

TEST(FleetRouterHealth, CapabilityFilterIsNotWaivedOntoAQuarantinedShard) {
  // With the only SHA-1-capable shard quarantined, the filter is waived
  // onto the *available* 32-bit shard (software degrade) -- never onto the
  // known-dead 64-bit one.
  FleetRouter r({32, 64}, /*affinity=*/true, /*steal_threshold=*/4, 1);
  r.set_available(1, false);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.route(arrival(i + 1, hw::kSha1, i * 10)), 0);
  }
}

TEST(FleetRouterHealth, ProbationPenaltyBiasesPlacementAway) {
  // steal 0: no stealing, zero depth-guard slack. Four phantom entries on
  // shard 0 make shard 1 the least-loaded pick for a same-instant burst of
  // distinct behaviours until its real backlog catches up.
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/0, 1);
  r.set_weight_penalty(0, 4);
  EXPECT_EQ(r.route(arrival(1, hw::kFade, 0)), 1);
  EXPECT_EQ(r.route(arrival(2, hw::kBrightness, 0)), 1);
  EXPECT_EQ(r.route(arrival(3, hw::kBlendAdd, 0)), 1);
  EXPECT_EQ(r.route(arrival(4, hw::kJenkinsHash, 0)), 1);
  // Depth 4 each now; the tie breaks to shard 0's earlier drain estimate.
  EXPECT_EQ(r.route(arrival(5, hw::kPatternMatcher, 0)), 0);
}

TEST(FleetRouterHealth, CheckpointDropsThePredictedBacklog) {
  // After an epoch barrier everything routed has actually run: the same
  // same-instant repeat that would have tripped the zero-slack depth guard
  // is an affinity hit again.
  FleetRouter r({64, 64}, /*affinity=*/true, /*steal_threshold=*/0, 1);
  const int s0 = r.route(arrival(1, hw::kFade, 0));
  r.checkpoint();
  EXPECT_EQ(r.route(arrival(2, hw::kFade, 0)), s0);
  EXPECT_EQ(r.counters().affinity_hits, 1);
  EXPECT_EQ(r.counters().rebalances, 0);
}

// ---------------------------------------------------------------------------
// HealthTracker state machine (health.hpp).
// ---------------------------------------------------------------------------

HealthSignals one_fail_stop() {
  HealthSignals s;
  s.fail_stops = 1;
  return s;
}

const std::function<bool(int)> kProbeOk = [](int) { return true; };
const std::function<bool(int)> kProbeFail = [](int) { return false; };

TEST(HealthTracker, FailStopWalksQuarantineDrainProbationHealthy) {
  HealthPolicy hp;  // defaults: quarantine at 24, suspect at 8, 2 clean epochs
  FleetRouter router({64, 64}, true, 4, 1);
  HealthTracker t(hp, 2);
  std::vector<HealthEvent> ev;

  t.observe(0, one_fail_stop());
  t.tick(0, 10, router, kProbeOk, &ev);  // score 32: straight to quarantine
  EXPECT_EQ(t.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(t.score(0), 32);
  EXPECT_FALSE(router.available(0));

  t.tick(1, 20, router, kProbeOk, &ev);  // drain done
  EXPECT_EQ(t.state(0), DeviceState::kDraining);
  t.tick(2, 30, router, kProbeOk, &ev);  // score 8: not yet below suspect
  EXPECT_EQ(t.state(0), DeviceState::kDraining);
  EXPECT_FALSE(router.available(0));
  t.tick(3, 40, router, kProbeOk, &ev);  // score 4: probe gates readmission
  EXPECT_EQ(t.state(0), DeviceState::kProbation);
  EXPECT_TRUE(router.available(0));
  t.tick(4, 50, router, kProbeOk, &ev);  // clean epoch 1
  EXPECT_EQ(t.state(0), DeviceState::kProbation);
  t.tick(5, 60, router, kProbeOk, &ev);  // clean epoch 2: readmitted
  EXPECT_EQ(t.state(0), DeviceState::kHealthy);

  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].to, DeviceState::kQuarantined);
  EXPECT_EQ(ev[0].epoch, 0);
  EXPECT_EQ(ev[1].to, DeviceState::kDraining);
  EXPECT_EQ(ev[2].to, DeviceState::kProbation);
  EXPECT_EQ(ev[2].epoch, 3);
  EXPECT_EQ(ev[3].from, DeviceState::kProbation);
  EXPECT_EQ(ev[3].to, DeviceState::kHealthy);
  EXPECT_EQ(ev[3].epoch, 5);
  // The untouched neighbour never left healthy.
  EXPECT_EQ(t.state(1), DeviceState::kHealthy);
  for (const HealthEvent& e : ev) EXPECT_EQ(e.device, 0);
}

TEST(HealthTracker, FailedProbeKeepsTheDeviceOutAndResetsItsScore) {
  HealthPolicy hp;
  FleetRouter router({64, 64}, true, 4, 1);
  HealthTracker t(hp, 2);
  t.observe(0, one_fail_stop());
  t.tick(0, 0, router, kProbeFail, nullptr);  // quarantined (32)
  t.tick(1, 0, router, kProbeFail, nullptr);  // draining (16)
  t.tick(2, 0, router, kProbeFail, nullptr);  // 8: gate not reached
  t.tick(3, 0, router, kProbeFail, nullptr);  // 4: probe fails -> score 24
  EXPECT_EQ(t.state(0), DeviceState::kDraining);
  EXPECT_EQ(t.score(0), 24);
  EXPECT_FALSE(router.available(0));
  // The reset score re-earns the gate: two more decays, then a good probe.
  t.tick(4, 0, router, kProbeOk, nullptr);  // 12
  EXPECT_EQ(t.state(0), DeviceState::kDraining);
  t.tick(5, 0, router, kProbeOk, nullptr);  // 6: probe passes
  EXPECT_EQ(t.state(0), DeviceState::kProbation);
  EXPECT_TRUE(router.available(0));
}

TEST(HealthTracker, SoftSignalsNeverQuarantineTheLastAvailableDevice) {
  HealthPolicy hp;
  FleetRouter router({64, 64}, true, 4, 1);
  HealthTracker t(hp, 2);
  HealthSignals soft;
  soft.watchdogs = 10;  // score 60: far past the quarantine threshold
  t.observe(0, soft);
  t.observe(1, soft);
  t.tick(0, 0, router, kProbeOk, nullptr);
  // Device 0 (walked first) is quarantined; device 1 is then the last one
  // available, so soft evidence only flags it suspect.
  EXPECT_EQ(t.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(t.state(1), DeviceState::kSuspect);
  EXPECT_TRUE(router.available(1));
}

TEST(HealthTracker, FailStopEvidenceQuarantinesEvenTheLastDevice) {
  HealthPolicy hp;
  FleetRouter router({64}, true, 4, 1);
  HealthTracker t(hp, 1);
  t.observe(0, one_fail_stop());
  t.tick(0, 0, router, kProbeOk, nullptr);
  EXPECT_EQ(t.state(0), DeviceState::kQuarantined);
  EXPECT_FALSE(router.available(0));
}

TEST(HealthTracker, AnySignalOnProbationRequarantines) {
  HealthPolicy hp;
  FleetRouter router({64, 64}, true, 4, 1);
  HealthTracker t(hp, 2);
  t.observe(0, one_fail_stop());
  t.tick(0, 0, router, kProbeOk, nullptr);
  t.tick(1, 0, router, kProbeOk, nullptr);
  t.tick(2, 0, router, kProbeOk, nullptr);
  t.tick(3, 0, router, kProbeOk, nullptr);
  ASSERT_EQ(t.state(0), DeviceState::kProbation);
  HealthSignals relapse;
  relapse.detections = 1;
  t.observe(0, relapse);
  t.tick(4, 0, router, kProbeOk, nullptr);
  EXPECT_EQ(t.state(0), DeviceState::kQuarantined);
  EXPECT_FALSE(router.available(0));
}

TEST(HealthTracker, SuspectDecaysBackToHealthyWithoutLeavingRotation) {
  HealthPolicy hp;
  FleetRouter router({64, 64}, true, 4, 1);
  HealthTracker t(hp, 2);
  std::vector<HealthEvent> ev;
  HealthSignals mild;
  mild.giveups = 1;  // score 8: suspect, below quarantine
  t.observe(0, mild);
  t.tick(0, 0, router, kProbeOk, &ev);
  EXPECT_EQ(t.state(0), DeviceState::kSuspect);
  EXPECT_TRUE(router.available(0));
  t.tick(1, 0, router, kProbeOk, &ev);  // score 4: clean again
  EXPECT_EQ(t.state(0), DeviceState::kHealthy);
  // suspect->healthy decay is not a readmission event trail through
  // quarantine: exactly the two flagged transitions, both in rotation.
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[1].from, DeviceState::kSuspect);
  EXPECT_EQ(ev[1].to, DeviceState::kHealthy);
}

// ---------------------------------------------------------------------------
// Whole-fleet runs with the health runner and device-scoped chaos.
// ---------------------------------------------------------------------------

FleetOptions health_fleet(int devices, int jobs) {
  FleetOptions fo = small_fleet(devices, jobs);
  fo.mix = {64};
  fo.health.enabled = true;
  fo.health.epoch_arrivals = 40;
  return fo;
}

/// Below-saturation arrival stream: an overloaded fleet arms watchdogs
/// against request deadlines on fault-free devices, which is congestion,
/// not device failure (see docs/FLEET_HEALTH.md).
FleetWorkloadSpec health_load(int requests) {
  FleetWorkloadSpec w = small_load(requests);
  w.mean_gap_ps = sim::SimTime::from_us(2500).ps();
  return w;
}

fault::FaultSpec chaos_spec(const char* text) {
  fault::FaultSpec s;
  EXPECT_TRUE(fault::FaultSpec::parse(text, &s)) << text;
  return s;
}

TEST(FleetHealth, FailStopIsQuarantinedAndGoodputHolds) {
  FleetOptions fo = health_fleet(3, 2);
  fo.fault_plan.add(chaos_spec("fail_stop:stuck@8:1:0"));
  const FleetReport fr = run_fleet(fo, health_load(200));

  bool quarantined0 = false;
  std::int64_t quarantines = 0;
  for (const HealthEvent& e : fr.health_events) {
    if (e.to == DeviceState::kQuarantined) {
      ++quarantines;
      if (e.device == 0) quarantined0 = true;
    }
  }
  EXPECT_TRUE(quarantined0);
  EXPECT_GT(fr.redispatched, 0);
  const std::int64_t completed = fr.served_hw + fr.degraded;
  EXPECT_GE(completed * 100, fr.requests * 90);
  EXPECT_TRUE(fr.digests_ok);
  // Counters agree with the report.
  EXPECT_EQ(fr.stats.counters().at("fleet.health.quarantines").value(),
            quarantines);
  EXPECT_EQ(fr.stats.counters().at("fleet.redispatch.attempts").value(),
            fr.redispatched);

  // A/B: same stream without the tracker loses every request the dead
  // device eats, and reports no health activity at all.
  FleetOptions naive = fo;
  naive.health.enabled = false;
  const FleetReport nr = run_fleet(naive, health_load(200));
  EXPECT_GT(completed, nr.served_hw + nr.degraded);
  EXPECT_TRUE(nr.health_events.empty());
  EXPECT_EQ(nr.redispatched, 0);
  EXPECT_EQ(nr.stats.counters().count("fleet.health.quarantines"), 0u);
}

TEST(FleetHealth, ByteIdenticalAcrossWorkerCountsUnderChaos) {
  // A run that quarantines device 0, probes it and readmits it, on shards
  // of unequal scripts: the pool hands them out longest first, not in index
  // order, and every worker count must still give the same bytes.
  FleetOptions fo = health_fleet(6, 1);
  fo.fault_plan.add(chaos_spec("fail_stop:stuck@2:1:0"));
  fo.repair_at_epoch = 2;
  const FleetReport j1 = run_fleet(fo, health_load(400));
  EXPECT_GE(j1.stats.counters().at("fleet.health.quarantines").value(), 1);
  EXPECT_GE(j1.stats.counters().at("fleet.health.probe_ok").value(), 1);
  EXPECT_GE(j1.stats.counters().at("fleet.health.readmits").value(), 1);
  std::vector<std::int64_t> routed;
  for (const ShardOutcome& s : j1.shards) routed.push_back(s.routed);
  EXPECT_NE(*std::min_element(routed.begin(), routed.end()),
            *std::max_element(routed.begin(), routed.end()));
  const std::string fp = fingerprint(j1);
  for (const int jobs : {2, 3, 8}) {
    fo.jobs = jobs;
    EXPECT_EQ(fingerprint(run_fleet(fo, health_load(400))), fp) << jobs;
  }
}

TEST(FleetHealth, RetryBudgetZeroIsTypedExhaustionNotRedispatch) {
  FleetOptions fo = health_fleet(3, 2);
  fo.health.retry_budget = 0;
  fo.fault_plan.add(chaos_spec("fail_stop:stuck@8:1:0"));
  const FleetReport fr = run_fleet(fo, health_load(200));
  EXPECT_GT(fr.retry_exhausted, 0);
  EXPECT_EQ(fr.redispatched, 0);
  EXPECT_EQ(fr.stats.counters().at("fleet.redispatch.retry_exhausted").value(),
            fr.retry_exhausted);
}

TEST(FleetHealth, WholeFleetDownYieldsTypedNoHealthyDevice) {
  FleetOptions fo = health_fleet(2, 2);
  // Untargeted: every device crashes at its 5th dispatch.
  fo.fault_plan.add(chaos_spec("fail_stop:stuck@5:1"));
  const FleetReport fr = run_fleet(fo, health_load(160));
  EXPECT_GT(fr.no_healthy_device, 0);
  EXPECT_EQ(fr.stats.counters().at("fleet.health.no_healthy_device").value(),
            fr.no_healthy_device);
  int quarantined = 0;
  for (const HealthEvent& e : fr.health_events) {
    if (e.to == DeviceState::kQuarantined) ++quarantined;
  }
  EXPECT_EQ(quarantined, 2);  // hard evidence overrides the last-device guard
}

TEST(FleetHealth, FieldRepairReadmitsThroughProbation) {
  FleetOptions fo = health_fleet(3, 2);
  fo.fault_plan.add(chaos_spec("fail_stop:stuck@8:1:0"));
  fo.repair_at_epoch = 2;
  const FleetReport fr = run_fleet(fo, health_load(400));
  bool readmitted = false;
  for (const HealthEvent& e : fr.health_events) {
    if (e.device == 0 && e.from == DeviceState::kProbation &&
        e.to == DeviceState::kHealthy) {
      readmitted = true;
    }
  }
  EXPECT_TRUE(readmitted);
  EXPECT_GE(fr.stats.counters().at("fleet.health.readmits").value(), 1);
  EXPECT_GE(fr.stats.counters().at("fleet.health.probe_ok").value(), 1);
  const std::int64_t completed = fr.served_hw + fr.degraded;
  EXPECT_GE(completed * 100, fr.requests * 90);
}

TEST(FleetServer, All32BitFleetDegradesSha1InsteadOfFailing) {
  FleetOptions fo = small_fleet(2, 1);
  fo.mix = {32};
  FleetWorkloadSpec w = small_load(150);
  w.zipf_skew = 0;  // uniform: plenty of SHA-1 arrivals
  const FleetReport fr = run_fleet(fo, w);
  EXPECT_EQ(fr.failed, 0);
  EXPECT_GT(fr.degraded, 0);  // SHA-1 cannot be placed: software kernel
  EXPECT_TRUE(fr.digests_ok);
}

}  // namespace
