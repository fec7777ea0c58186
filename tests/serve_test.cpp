// Serving-layer suite: queue/breaker units, hardware-vs-software digest
// equality (the degradation bit-exactness guarantee), and the full
// watchdog -> breaker -> degrade -> half-open-probe recovery story on a
// platform with an injected stuck fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "fault/fault.hpp"
#include "rtr/platform.hpp"
#include "serve/batch_exec.hpp"
#include "serve/exec.hpp"
#include "serve/server.hpp"
#include "sim/random.hpp"
#include "trace/flight_recorder.hpp"

namespace rtr {
namespace {

using serve::AdmitError;
using serve::BreakerPolicy;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::Outcome;
using serve::Priority;
using serve::Request;
using serve::RequestQueue;
using serve::ServeOptions;
using serve::ServeReport;
using serve::TaskServer;
using sim::SimTime;

Request make_request(std::int64_t id, hw::BehaviorId b,
                     Priority pr = Priority::kNormal) {
  Request r;
  r.id = id;
  r.behavior = b;
  r.priority = pr;
  return r;
}

// --- bounded priority queue ---------------------------------------------------

// The baseline (priority, FIFO) pop: pop_affine with nothing resident, the
// order TaskServer pops on a single-area device.
Request pop_head(RequestQueue& q) {
  return q.pop_affine([](int) { return false; }, 16);
}

TEST(RequestQueue, PopsByPriorityThenFifo) {
  RequestQueue q{8};
  ASSERT_EQ(q.admit(make_request(1, hw::kJenkinsHash, Priority::kLow)),
            AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(2, hw::kJenkinsHash, Priority::kNormal)),
            AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kJenkinsHash, Priority::kHigh)),
            AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(4, hw::kJenkinsHash, Priority::kHigh)),
            AdmitError::kNone);
  EXPECT_EQ(pop_head(q).id, 3);  // high, FIFO within the class
  EXPECT_EQ(pop_head(q).id, 4);
  EXPECT_EQ(pop_head(q).id, 2);  // then normal
  EXPECT_EQ(pop_head(q).id, 1);  // then low
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, FullQueueShedsWithTypedError) {
  RequestQueue q{2};
  EXPECT_EQ(q.admit(make_request(1, hw::kJenkinsHash)), AdmitError::kNone);
  EXPECT_EQ(q.admit(make_request(2, hw::kJenkinsHash)), AdmitError::kNone);
  EXPECT_EQ(q.admit(make_request(3, hw::kJenkinsHash, Priority::kHigh)),
            AdmitError::kQueueFull);  // bounded even for high priority
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, PopOnEmptyDies) {
  RequestQueue q{1};
  EXPECT_DEATH((void)pop_head(q), "empty request queue");
}

// --- circuit breaker ----------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterKConsecutiveFailures) {
  CircuitBreaker br{BreakerPolicy{.failures_to_open = 3,
                                  .cooldown = SimTime::from_ms(5)}};
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_FALSE(br.record_failure(SimTime::from_ms(1)));
  EXPECT_FALSE(br.record_failure(SimTime::from_ms(2)));
  EXPECT_TRUE(br.allow_hw(SimTime::from_ms(2)));  // still closed
  EXPECT_TRUE(br.record_failure(SimTime::from_ms(3)));  // trips
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.opens(), 1);
  EXPECT_FALSE(br.allow_hw(SimTime::from_ms(4)));  // inside the cooldown
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureCount) {
  CircuitBreaker br{BreakerPolicy{.failures_to_open = 3,
                                  .cooldown = SimTime::from_ms(5)}};
  br.record_failure(SimTime::from_ms(1));
  br.record_failure(SimTime::from_ms(2));
  EXPECT_FALSE(br.record_success());  // already closed: not a transition
  EXPECT_EQ(br.consecutive_failures(), 0);
  br.record_failure(SimTime::from_ms(3));
  br.record_failure(SimTime::from_ms(4));
  EXPECT_EQ(br.state(), BreakerState::kClosed);  // streak was broken
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  CircuitBreaker br{BreakerPolicy{.failures_to_open = 1,
                                  .cooldown = SimTime::from_ms(5)}};
  EXPECT_TRUE(br.record_failure(SimTime::from_ms(10)));
  EXPECT_FALSE(br.allow_hw(SimTime::from_ms(14)));  // cooldown not elapsed
  EXPECT_TRUE(br.allow_hw(SimTime::from_ms(15)));   // admitted as the probe
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(br.record_success());  // probe success closes
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  CircuitBreaker br{BreakerPolicy{.failures_to_open = 1,
                                  .cooldown = SimTime::from_ms(5)}};
  br.record_failure(SimTime::from_ms(10));
  ASSERT_TRUE(br.allow_hw(SimTime::from_ms(15)));
  EXPECT_TRUE(br.record_failure(SimTime::from_ms(16)));  // probe failed
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.opens(), 2);
  EXPECT_FALSE(br.allow_hw(SimTime::from_ms(20)));  // new cooldown from 16
  EXPECT_TRUE(br.allow_hw(SimTime::from_ms(21)));
}

// --- workload draws -----------------------------------------------------------

TEST(Workload, DrawsAreSeedDeterministic) {
  const serve::WorkloadSpec* w = serve::workload_by_name("mixed");
  ASSERT_NE(w, nullptr);
  sim::Rng a{99}, b{99};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(serve::draw_think_ps(a, *w), serve::draw_think_ps(b, *w));
    EXPECT_EQ(serve::draw_behavior(a, *w), serve::draw_behavior(b, *w));
    EXPECT_EQ(serve::draw_priority(a), serve::draw_priority(b));
  }
}

TEST(Workload, UnknownNameReturnsNull) {
  EXPECT_EQ(serve::workload_by_name("nope"), nullptr);
  ASSERT_NE(serve::workload_by_name("steady"), nullptr);
}

// --- hw/sw bit-identity (the degradation guarantee) ---------------------------

TEST(ExecPaths, HwAndSwDigestsAreBitIdentical32) {
  // Same (behavior, input seed) executed on the hardware path and on the
  // software kernel must hash to the same FNV digest -- that is what makes
  // degradation transparent to the client.
  Platform32 p;
  ModuleManager mgr{p};
  const hw::BehaviorId tasks[] = {hw::kJenkinsHash, hw::kPatternMatcher,
                                  hw::kBrightness, hw::kBlendAdd, hw::kFade};
  for (const hw::BehaviorId id : tasks) {
    ASSERT_TRUE(mgr.ensure(id, 32).ok) << hw::task_name(id);
    const auto hw_res = serve::exec_request(p, id, 0xD00D + id, /*hw=*/true);
    const auto sw_res = serve::exec_request(p, id, 0xD00D + id, /*hw=*/false);
    ASSERT_TRUE(hw_res.ok && sw_res.ok) << hw::task_name(id);
    EXPECT_TRUE(hw_res.golden_ok) << hw::task_name(id);
    EXPECT_TRUE(sw_res.golden_ok) << hw::task_name(id);
    EXPECT_EQ(hw_res.digest, sw_res.digest) << hw::task_name(id);
  }
}

TEST(ExecPaths, HwAndSwDigestsAreBitIdentical64Sha1) {
  Platform64 p;  // SHA-1 only fits the 64-bit system's region
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kSha1, 64).ok);
  const auto hw_res = serve::exec_request(p, hw::kSha1, 0xFEED, /*hw=*/true);
  const auto sw_res = serve::exec_request(p, hw::kSha1, 0xFEED, /*hw=*/false);
  ASSERT_TRUE(hw_res.ok && sw_res.ok);
  EXPECT_TRUE(hw_res.golden_ok && sw_res.golden_ok);
  EXPECT_EQ(hw_res.digest, sw_res.digest);
}

// --- the one pass against the reference path -------------------------------

/// A request's data as the reference path builds it: drawn with sim::Rng
/// into vectors in the serve layer's order, checked with the apps:: golden
/// models and hashed with the FNV-1a digests.
struct Reference {
  std::vector<std::uint8_t> in, in_b;  // the staged sources
  std::vector<std::uint8_t> out;       // golden output (image tasks)
  std::uint64_t digest = 0;            // digest of the golden result
};

Reference reference_request(hw::BehaviorId id, std::uint64_t seed) {
  const serve::TaskParams tp = serve::params_for(id);
  sim::Rng rng{seed};
  Reference ref;
  switch (id) {
    case hw::kJenkinsHash:
    case hw::kSha1: {
      ref.in.resize(tp.bytes);
      for (auto& b : ref.in) b = rng.next_u8();
      if (id == hw::kJenkinsHash) {
        ref.digest = serve::fnv1a_u32(apps::jenkins_hash(ref.in));
      } else {
        ref.digest = serve::kFnvOffset;
        for (const std::uint32_t w : apps::sha1(ref.in)) {
          ref.digest = serve::fnv1a_u32(w, ref.digest);
        }
      }
      return ref;
    }
    case hw::kPatternMatcher:
    case hw::kPatternMatcherXl: {
      apps::BinaryImage img = apps::BinaryImage::make(tp.img_w, tp.img_h);
      for (auto& w : img.words) {
        const std::uint32_t x = rng.next_u32();
        w = x & rng.next_u32();
      }
      apps::Pattern8x8 pat;
      for (auto& row : pat) row = rng.next_u8();
      ref.in = apps::to_bytes(img);
      for (int i = 0; i < 64; ++i) {
        ref.in_b.push_back((pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) &
                           1);
      }
      const apps::MatchResult m = apps::pattern_match(img, pat);
      ref.digest = serve::fnv1a_u32(static_cast<std::uint32_t>(m.best_count));
      ref.digest =
          serve::fnv1a_u32(static_cast<std::uint32_t>(m.best_row), ref.digest);
      ref.digest =
          serve::fnv1a_u32(static_cast<std::uint32_t>(m.best_col), ref.digest);
      return ref;
    }
    default: {
      apps::GrayImage a = apps::GrayImage::make(tp.img_w, tp.img_h);
      for (auto& px : a.pixels) px = rng.next_u8();
      ref.in = a.pixels;
      if (id == hw::kBrightness) {
        ref.out = apps::brightness(a, 60).pixels;
      } else {
        apps::GrayImage b = apps::GrayImage::make(tp.img_w, tp.img_h);
        for (auto& px : b.pixels) px = rng.next_u8();
        ref.in_b = b.pixels;
        ref.out = id == hw::kBlendAdd ? apps::blend_add(a, b).pixels
                                      : apps::fade(a, b, 160).pixels;
      }
      ref.digest = serve::fnv1a(ref.out.data(), ref.out.size());
      return ref;
    }
  }
}

/// The staged sources at `off` into the staging regions equal the
/// reference's.
void expect_staged(Platform& p, const Reference& ref, bus::Addr off,
                   const char* what) {
  const serve::Staging s{p};
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), s.in + off, ref.in.size()),
            ref.in)
      << what;
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), s.in_b + off, ref.in_b.size()),
            ref.in_b)
      << what;
}

constexpr hw::BehaviorId kServed[] = {
    hw::kJenkinsHash, hw::kSha1,     hw::kPatternMatcher, hw::kPatternMatcherXl,
    hw::kBrightness,  hw::kBlendAdd, hw::kFade};
constexpr hw::BehaviorId kImageTasks[] = {hw::kBrightness, hw::kBlendAdd,
                                          hw::kFade};

void one_pass_matches_reference(Platform& p) {
  ModuleManager mgr{p};
  for (const hw::BehaviorId id : kServed) {
    const bool wide = id == hw::kSha1 || id == hw::kPatternMatcherXl;
    const bool placed = mgr.ensure(id, p.dock_width()).ok;
    // SHA-1 and the wide matcher fit only the 64-bit system's region.
    ASSERT_EQ(placed, p.dock_width() == 64 || !wide) << hw::task_name(id);
    for (const bool hw : {true, false}) {
      if (hw && !placed) continue;
      for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const std::string what = std::string(hw::task_name(id)) +
                                 (hw ? " hw" : " sw") + " seed " +
                                 std::to_string(seed);
        const Reference ref = reference_request(id, seed);
        const serve::ExecResult r = serve::exec_request(p, id, seed, hw);
        ASSERT_TRUE(r.ok) << what;
        ASSERT_TRUE(r.golden_ok) << what;
        ASSERT_EQ(r.digest, ref.digest) << what;
        expect_staged(p, ref, 0, what.c_str());
      }
    }
  }
}

TEST(ExecPaths, OnePassMatchesTheReferencePath) {
  // Every behaviour exec_request serves, on both systems and both paths:
  // the one pass draws, stages, checks and digests exactly as the
  // reference path's separate draws, golden models and digests do.
  Platform32 p32;
  one_pass_matches_reference(p32);
  Platform64 p64;
  one_pass_matches_reference(p64);

  // The batched chain: every member of 1-8 member batches of each image
  // behaviour stages, checks and digests as the reference does, so a
  // batched member is bit-identical to the unbatched request.
  ModuleManager mgr{p64};
  std::uint64_t seed = 1000;
  for (const hw::BehaviorId id : kImageTasks) {
    ASSERT_TRUE(mgr.ensure(id, 64).ok) << hw::task_name(id);
    for (std::size_t size = 1; size <= 8; ++size) {
      std::vector<serve::BatchMember> members(size);
      for (auto& m : members) m.input_seed = ++seed;
      ASSERT_TRUE(serve::exec_image_batch(p64, id, members));
      for (std::size_t m = 0; m < size; ++m) {
        const std::string what = std::string(hw::task_name(id)) +
                                 " batch of " + std::to_string(size) +
                                 " member " + std::to_string(m);
        const Reference ref = reference_request(id, members[m].input_seed);
        EXPECT_TRUE(members[m].result.ok) << what;
        EXPECT_TRUE(members[m].result.golden_ok) << what;
        EXPECT_EQ(members[m].result.digest, ref.digest) << what;
        expect_staged(p64, ref, static_cast<bus::Addr>(m) * serve::kBatchStride,
                      what.c_str());
      }
    }
  }
}

/// The output bytes an image request left at `out`.
std::vector<std::uint8_t> image_output(Platform& p, bus::Addr out) {
  return apps::fetch_bytes(p.cpu().plb(), out, serve::kImagePixels);
}

TEST(ExecPaths, CorruptedOutputFailsGoldenAndHashesTheDeviceBytes) {
  // A dock left unbound: the driver reads back nothing the module made.
  // The check fails, and the digest is the device's bytes, not the golden
  // output's.
  Platform64 p;
  const serve::Staging s{p};
  for (const hw::BehaviorId id : kImageTasks) {
    const serve::ExecResult r = serve::exec_request(p, id, 7, /*hw=*/true);
    const std::vector<std::uint8_t> got = image_output(p, s.out);
    EXPECT_TRUE(r.ok) << hw::task_name(id);
    EXPECT_FALSE(r.golden_ok) << hw::task_name(id);
    EXPECT_EQ(r.digest, serve::fnv1a(got.data(), got.size()))
        << hw::task_name(id);
    EXPECT_NE(r.digest, reference_request(id, 7).digest) << hw::task_name(id);
  }

  // A DMA fault corrupts beats mid-chain: exactly the members whose output
  // differs from the golden one fail, each hashed over its own bytes.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("dma:every@40:1", &spec));
  PlatformOptions po;
  po.fault_plan.add(spec);
  Platform64 pf{po};
  ModuleManager mgr{pf};
  int corrupted = 0;
  for (const hw::BehaviorId id : kImageTasks) {
    ASSERT_TRUE(mgr.ensure(id, 64).ok) << hw::task_name(id);
    std::vector<serve::BatchMember> members(8);
    for (std::size_t m = 0; m < members.size(); ++m) {
      members[m].input_seed = 50 + m;
    }
    ASSERT_TRUE(serve::exec_image_batch(pf, id, members));
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Reference ref = reference_request(id, members[m].input_seed);
      const std::vector<std::uint8_t> got = image_output(
          pf, s.out + static_cast<bus::Addr>(m) * serve::kBatchStride);
      const serve::ExecResult& r = members[m].result;
      EXPECT_EQ(r.golden_ok, got == ref.out) << hw::task_name(id) << " " << m;
      EXPECT_EQ(r.digest, serve::fnv1a(got.data(), got.size()))
          << hw::task_name(id) << " " << m;
      corrupted += r.golden_ok ? 0 : 1;
    }
  }
  EXPECT_GT(corrupted, 0);  // the plan did corrupt some members
}

TEST(BatchingDeathTest, OversizedImageBatchAborts) {
  // Member m stages m strides into regions 4 MiB apart: member 256 would
  // land on member 0's second source.
  EXPECT_EQ(serve::kMaxBatchMembers, 256u);
  Platform64 p;
  std::vector<serve::BatchMember> members(serve::kMaxBatchMembers + 1);
  EXPECT_DEATH((void)serve::exec_image_batch(p, hw::kFade, members),
               "staging regions");
}

TEST(Batching, FullSizeBatchStaysInsideItsRegions) {
  // The largest batch the bound admits, two-source so that the scratch
  // interleave fills its region's last stride: every member checks out.
  Platform64 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kFade, 64).ok);
  std::vector<serve::BatchMember> members(serve::kMaxBatchMembers);
  for (std::size_t m = 0; m < members.size(); ++m) members[m].input_seed = m;
  ASSERT_TRUE(serve::exec_image_batch(p, hw::kFade, members));
  for (std::size_t m = 0; m < members.size(); ++m) {
    ASSERT_TRUE(members[m].result.golden_ok) << "member " << m;
    ASSERT_EQ(members[m].result.digest,
              reference_request(hw::kFade, m).digest)
        << "member " << m;
  }
}

// --- server dispositions ------------------------------------------------------

TEST(TaskServerTest, UnservableBehaviorRefusedAtAdmission) {
  Platform32 p;
  TaskServer srv{p, 4};
  // Loopback has a hardware circuit but no software kernel: the serving
  // layer refuses it up front rather than losing it later.
  EXPECT_EQ(srv.submit(make_request(1, hw::kLoopback)),
            AdmitError::kUnservable);
  EXPECT_FALSE(srv.pending());
  EXPECT_EQ(srv.report().unservable, 1);
}

TEST(TaskServerTest, ExpiredRequestIsDroppedBeforeExecution) {
  Platform32 p;
  TaskServer srv{p, 4};
  Request r = make_request(1, hw::kJenkinsHash);
  r.deadline = SimTime::from_ns(100);
  ASSERT_EQ(srv.submit(r), AdmitError::kNone);
  p.kernel().op(1'000'000);  // time passes while the request queues
  const auto c = srv.serve_batch().front();
  EXPECT_EQ(c.outcome, Outcome::kExpired);
  EXPECT_FALSE(c.deadline_met);
  EXPECT_EQ(srv.report().expired, 1);
}

TEST(TaskServerTest, UnplaceableModuleDegradesToSoftware) {
  // SHA-1 cannot be placed on the 32-bit system: the hardware path fails,
  // the breaker records it, and the request is served by the software
  // kernel with a golden-verified result.
  Platform32 p;
  TaskServer srv{p, 4};
  ASSERT_EQ(srv.submit(make_request(1, hw::kSha1)), AdmitError::kNone);
  const auto c = srv.serve_batch().front();
  EXPECT_EQ(c.outcome, Outcome::kSw);
  EXPECT_TRUE(c.golden_ok);
  EXPECT_EQ(srv.report().degraded, 1);
  EXPECT_EQ(srv.breaker(hw::kSha1).consecutive_failures(), 1);
  EXPECT_EQ(p.sim().stats().counter("serve.degraded").value(), 1);
}

TEST(TaskServerTest, BreakerOpensAfterRepeatedFailuresAndSkipsHardware) {
  Platform32 p;
  ServeOptions so;
  so.breaker.failures_to_open = 2;
  TaskServer srv{p, 8, so};
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(srv.submit(make_request(i, hw::kSha1)), AdmitError::kNone);
  }
  (void)srv.serve_batch();
  (void)srv.serve_batch();  // second failure trips the breaker
  EXPECT_EQ(srv.breaker(hw::kSha1).state(), BreakerState::kOpen);
  EXPECT_EQ(srv.report().breaker_opens, 1);
  // With the breaker open the request never touches the manager: served
  // in pure software time, no reconfiguration attempt.
  const SimTime t0 = p.kernel().now();
  const auto c = srv.serve_batch().front();
  EXPECT_EQ(c.outcome, Outcome::kSw);
  EXPECT_LT((p.kernel().now() - t0).ps(), SimTime::from_ms(20).ps());
}

// --- closed-loop workloads ----------------------------------------------------

TEST(RunWorkload, CleanRunServesEverythingInHardware) {
  Platform32 p;
  const serve::WorkloadSpec* w = serve::workload_by_name("mixed");
  ASSERT_NE(w, nullptr);
  const ServeReport r = serve::run_workload(p, *w, 1);
  EXPECT_EQ(r.submitted, static_cast<std::int64_t>(w->clients) * w->rounds);
  EXPECT_EQ(r.served_hw, r.submitted);
  EXPECT_EQ(r.degraded, 0);
  EXPECT_EQ(r.shed, 0);
  EXPECT_TRUE(r.digests_ok);
  for (const auto& c : r.completions) EXPECT_TRUE(c.golden_ok);
}

TEST(RunWorkload, IdenticalSeedsAreBitIdentical) {
  auto run = [](std::uint64_t seed) {
    Platform32 p;
    const ServeReport r =
        serve::run_workload(p, *serve::workload_by_name("mixed"), seed);
    std::vector<std::uint64_t> digests;
    for (const auto& c : r.completions) digests.push_back(c.digest);
    return std::tuple{r.served_hw, digests, p.kernel().now().ps()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<1>(run(7)), std::get<1>(run(8)));
}

TEST(RunWorkload, PlanCacheAndPrefetchDoNotPerturbSimulatedResults) {
  // The plan cache and the prefetcher are host-side optimizations: a run
  // with them off must be bit-identical in every simulated quantity.
  auto run = [](bool plan_cache) {
    Platform32 p;
    serve::ServeOptions so;
    so.plan_cache = plan_cache;
    const ServeReport r =
        serve::run_workload(p, *serve::workload_by_name("mixed"), 7, so);
    std::vector<std::uint64_t> digests;
    std::vector<std::int64_t> finishes;
    for (const auto& c : r.completions) {
      digests.push_back(c.digest);
      finishes.push_back(c.finished.ps());
    }
    return std::tuple{r.served_hw, r.degraded, digests, finishes,
                      p.kernel().now().ps()};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(RunWorkload, PrefetchWarmsPlansAndScoresItself) {
  Platform32 p;
  serve::ServeOptions so;
  const serve::WorkloadSpec* w = serve::workload_by_name("mixed");
  ASSERT_NE(w, nullptr);
  const ServeReport r = serve::run_workload(p, *w, 7, so);
  ASSERT_TRUE(r.digests_ok);
  auto& stats = p.sim().stats();
  // The mixed workload swaps modules constantly: the prefetcher must both
  // fire and land (a hit means the swap consumed a plan warmed for it).
  EXPECT_GT(stats.counter("serve.prefetch.hits").value(), 0);
  EXPECT_GT(stats.counter("rtr.plan_cache.hits").value(), 0);
  // Disabled cache: the prefetch machinery stays silent.
  Platform32 q;
  serve::ServeOptions off;
  off.plan_cache = false;
  (void)serve::run_workload(q, *w, 7, off);
  EXPECT_EQ(q.sim().stats().counter("serve.prefetch.hits").value(), 0);
  EXPECT_EQ(q.sim().stats().counter("serve.prefetch.misses").value(), 0);
}

TEST(RequestQueue, PeekNextDistinctSkipsRepeatsInPopOrder) {
  RequestQueue q{8};
  EXPECT_EQ(q.peek_next_distinct(hw::kBrightness), nullptr);
  ASSERT_EQ(q.admit(make_request(1, hw::kBrightness)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(2, hw::kBrightness)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kFade)), AdmitError::kNone);
  // Repeats of the resident behaviour are skipped...
  const Request* nx = q.peek_next_distinct(hw::kBrightness);
  ASSERT_NE(nx, nullptr);
  EXPECT_EQ(nx->id, 3);
  // ...and a higher-priority distinct request wins, matching pop order.
  ASSERT_EQ(q.admit(make_request(4, hw::kJenkinsHash, Priority::kHigh)),
            AdmitError::kNone);
  nx = q.peek_next_distinct(hw::kBrightness);
  ASSERT_NE(nx, nullptr);
  EXPECT_EQ(nx->id, 4);
}

TEST(RequestQueue, PeekNextDistinctWithOneDistinctBehaviorQueued) {
  // A queue full of repeats of the resident behaviour has nothing worth
  // prefetching: the peek must come back empty, not return a repeat.
  RequestQueue q{8};
  for (std::int64_t id = 1; id <= 5; ++id) {
    ASSERT_EQ(q.admit(make_request(id, hw::kBrightness)), AdmitError::kNone);
  }
  EXPECT_EQ(q.peek_next_distinct(hw::kBrightness), nullptr);
  // Against any *other* resident behaviour the same queue is all distinct:
  // the first request in pop order is the prefetch candidate.
  const Request* nx = q.peek_next_distinct(hw::kFade);
  ASSERT_NE(nx, nullptr);
  EXPECT_EQ(nx->id, 1);
}

TEST(RunWorkload, BurstWorkloadShedsAtTheAdmissionBound) {
  Platform32 p;
  const serve::WorkloadSpec* w = serve::workload_by_name("burst");
  ASSERT_NE(w, nullptr);
  const ServeReport r = serve::run_workload(p, *w, 1);
  EXPECT_GT(r.shed, 0);
  EXPECT_EQ(r.submitted, r.admitted + r.shed);
  // Shed requests appear as completions too, so clients can account for
  // every round they played.
  std::int64_t shed_completions = 0;
  for (const auto& c : r.completions) {
    if (c.outcome == Outcome::kShed) ++shed_completions;
  }
  EXPECT_EQ(shed_completions, r.shed);
}

TEST(RunWorkload, StuckIcapWatchdogsBreaksAndRecoversThroughProbe) {
  // The acceptance scenario of docs/SERVING.md: a stuck ICAP fault makes
  // every load hang past its deadline; the watchdog aborts them, the
  // breaker opens after K consecutive failures, requests degrade to
  // software instead of hanging, and -- after the fault is repaired in the
  // field -- a half-open probe restores hardware service.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("icap:stuck@15000:1", &spec));
  PlatformOptions opts;
  opts.fault_plan.add(spec);
  Platform32 p{opts};
  ServeOptions so;
  so.hw_attempt_budget = SimTime::from_ms(40);
  const ServeReport r = serve::run_workload(
      p, *serve::workload_by_name("steady"), 1, so, /*repair_at=*/6);
  EXPECT_GT(r.watchdog_aborts, 0);
  EXPECT_GT(r.breaker_opens, 0);
  EXPECT_GT(r.degraded, 0);
  EXPECT_GT(r.breaker_probes, 0);
  EXPECT_GT(r.breaker_closes, 0);  // the probe succeeded after repair
  EXPECT_GT(r.served_hw, 0);       // hardware service resumed
  EXPECT_EQ(r.failed, 0);          // nothing hung, nothing lost
  EXPECT_TRUE(r.digests_ok);
  // Ordering: every degraded completion precedes the last hardware one
  // only if the breaker cycle actually restored service -- check the tail
  // request went to hardware.
  ASSERT_FALSE(r.completions.empty());
  EXPECT_EQ(r.completions.back().outcome, Outcome::kHw);
  // The stats surface saw the same story.
  EXPECT_EQ(p.sim().stats().counter("serve.watchdog_aborts").value(),
            r.watchdog_aborts);
  EXPECT_EQ(p.sim().stats().counter("serve.breaker_closes").value(),
            r.breaker_closes);
}

TEST(RunWorkload, ProbeSuccessLiftsManagerDegradation) {
  // The breaker-close path also resets the manager's diff->complete
  // degradation, so the differential fast path comes back with the
  // hardware.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("icap:stuck@15000:1", &spec));
  PlatformOptions opts;
  opts.fault_plan.add(spec);
  Platform32 p{opts};
  TaskServer srv{p, 4};
  // Three failing requests open the breaker (watchdog-aborted loads).
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(srv.submit(make_request(i, hw::kJenkinsHash)),
              AdmitError::kNone);
    (void)srv.serve_batch();
  }
  ASSERT_EQ(srv.breaker(hw::kJenkinsHash).state(), BreakerState::kOpen);
  // Field repair, then wait out the cooldown.
  p.faults()->repair_all();
  p.kernel().op(50'000'000);  // >> 5 ms at 300 MHz
  ASSERT_EQ(srv.submit(make_request(4, hw::kJenkinsHash)), AdmitError::kNone);
  const auto c = srv.serve_batch().front();
  EXPECT_EQ(c.outcome, Outcome::kHw);
  EXPECT_EQ(srv.breaker(hw::kJenkinsHash).state(), BreakerState::kClosed);
  EXPECT_FALSE(srv.manager().degraded());
}

// --- SLO specs and burn-rate engine ------------------------------------------

TEST(SloSpecTest, ParsesFullGrammar) {
  serve::SloSpec s;
  ASSERT_TRUE(serve::SloSpec::parse("deadline:0.99@10ms/50ms:burn=2", &s));
  EXPECT_EQ(s.metric, serve::SloSpec::Metric::kDeadline);
  EXPECT_DOUBLE_EQ(s.target, 0.99);
  EXPECT_EQ(s.short_window, SimTime::from_ms(10));
  EXPECT_EQ(s.long_window, SimTime::from_ms(50));
  EXPECT_DOUBLE_EQ(s.burn_threshold, 2.0);
  EXPECT_EQ(s.to_string(), "deadline:0.99@10ms/50ms:burn=2");

  ASSERT_TRUE(serve::SloSpec::parse("hw:0.5", &s));
  EXPECT_EQ(s.metric, serve::SloSpec::Metric::kHwServe);
  EXPECT_DOUBLE_EQ(s.target, 0.5);
  // Defaults survive when the optional fields are absent.
  EXPECT_EQ(s.short_window, SimTime::from_ms(10));
  EXPECT_DOUBLE_EQ(s.burn_threshold, 1.0);

  ASSERT_TRUE(serve::SloSpec::parse("deadline:0.999@500us/2s", &s));
  EXPECT_EQ(s.short_window, SimTime::from_us(500));
  EXPECT_EQ(s.long_window, SimTime::from_ms(2000));
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  serve::SloSpec s;
  const char* bad[] = {
      "",                          // empty
      "deadline",                  // no target
      "latency:0.99",              // unknown metric
      "deadline:0",                // target must be in (0,1)
      "deadline:1",                // open interval
      "deadline:1.5",              //
      "deadline:0.99@10/50",       // durations need a unit suffix
      "deadline:0.99@10ms",       // both windows or none
      "deadline:0.99@50ms/10ms",   // short must be <= long
      "deadline:0.99@10ms/50ms:burn=0.5",  // burn must be >= 1
      "deadline:0.99:burn=",       // empty burn
      "deadline:0.99junk",         // trailing garbage
      "deadline:0.99@10ms/50msx",  //
  };
  for (const char* text : bad) {
    EXPECT_FALSE(serve::SloSpec::parse(text, &s)) << text;
  }
}

TEST(SloEngineTest, BurnFiresOnceAndRearmsAfterRecovery) {
  serve::SloSpec spec;
  ASSERT_TRUE(serve::SloSpec::parse("deadline:0.9@1ms/5ms:burn=1", &spec));
  spec.min_samples = 10;
  serve::SloEngine eng{spec};

  // 20 good samples: no breach possible.
  SimTime t;
  for (int i = 0; i < 20; ++i) {
    t = t + SimTime::from_us(100);
    const auto ev = eng.observe(t, true);
    EXPECT_FALSE(ev.breached) << i;
  }
  // A run of failures pushes the error rate over budget in both windows.
  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    t = t + SimTime::from_us(100);
    fired += eng.observe(t, false).fired ? 1 : 0;
  }
  EXPECT_EQ(fired, 1);  // edge-triggered: entering the state fires once
  EXPECT_TRUE(eng.breached());
  EXPECT_EQ(eng.breaches(), 1);

  // Good samples age the failures out of the short window first; the
  // engine re-arms, and a fresh failure burst can fire again.
  for (int i = 0; i < 60; ++i) {
    t = t + SimTime::from_us(100);
    (void)eng.observe(t, true);
  }
  EXPECT_FALSE(eng.breached());
  for (int i = 0; i < 20; ++i) {
    t = t + SimTime::from_us(100);
    fired += eng.observe(t, false).fired ? 1 : 0;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.breaches(), 2);
}

TEST(SloEngineTest, MinSamplesGateSuppressesColdStart) {
  serve::SloSpec spec;
  ASSERT_TRUE(serve::SloSpec::parse("deadline:0.99@1ms/5ms", &spec));
  spec.min_samples = 10;
  serve::SloEngine eng{spec};
  // The very first request failing is 100% error rate, but with fewer
  // than min_samples in the long window nothing may fire.
  SimTime t;
  for (int i = 0; i < 9; ++i) {
    t = t + SimTime::from_us(10);
    EXPECT_FALSE(eng.observe(t, false).breached);
  }
  t = t + SimTime::from_us(10);
  EXPECT_TRUE(eng.observe(t, false).breached);  // 10th sample crosses the gate
}

TEST(RunWorkload, SloBreachCountsAreSeedDeterministic) {
  // A stuck ICAP degrades service to software, so the hardware-serve SLO
  // must breach (degraded requests still meet their deadlines -- that is
  // the point of degradation -- so the deadline SLO alone stays green).
  // The breach count must be a pure function of the seed.
  auto run = [] {
    fault::FaultSpec spec;
    RTR_CHECK(fault::FaultSpec::parse("icap:stuck@15000:42", &spec),
              "spec parses");
    PlatformOptions opts;
    opts.fault_plan.add(spec);
    Platform32 p{opts};
    ServeOptions so;
    so.hw_attempt_budget = SimTime::from_ms(40);
    serve::SloSpec slo;
    RTR_CHECK(serve::SloSpec::parse("hw:0.9@5ms/20ms", &slo), "slo parses");
    slo.min_samples = 4;
    so.slos.push_back(slo);
    const ServeReport r = serve::run_workload(
        p, *serve::workload_by_name("steady"), 42, so, 6);
    return std::pair<std::int64_t, std::int64_t>{
        r.slo_breaches, p.sim().stats().counter("serve.slo.samples").value()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first, 0);
  EXPECT_GT(a.second, 0);
}

// --- per-request stage histograms --------------------------------------------

TEST(RunWorkload, StageHistogramsDecomposePerClass) {
  Platform32 p;
  ServeOptions so;
  const ServeReport r = serve::run_workload(
      p, *serve::workload_by_name("mixed"), 7, so);
  ASSERT_GT(r.submitted, 0);
  auto& stats = p.sim().stats();
  const auto& queue = stats.histogram("serve.stage.queue.latency_ps");
  const auto& exec = stats.histogram("serve.stage.exec.latency_ps");
  const auto& reconfig = stats.histogram("serve.stage.reconfig.latency_ps");
  // Every dispatched request passes the queue and exec stages; reconfig
  // only fires when a swap is needed.
  EXPECT_EQ(queue.count(), exec.count());
  EXPECT_GT(exec.count(), 0);
  EXPECT_GT(reconfig.count(), 0);
  EXPECT_LE(reconfig.count(), exec.count());
  // The per-class slices partition the totals.
  std::int64_t class_execs = 0;
  for (const auto& [name, h] : stats.histograms()) {
    if (name.rfind("serve.stage.exec.latency_ps.", 0) == 0) {
      class_execs += h.count();
    }
  }
  EXPECT_EQ(class_execs, exec.count());
  // Prefetch is timed but costless in simulated time (pure host-side
  // planning): the histogram exists and is all zeros.
  const auto& prefetch = stats.histogram("serve.stage.prefetch.latency_ps");
  EXPECT_EQ(prefetch.max(), 0);
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingEnforcesRetentionAndCap) {
  trace::Tracer tr;
  tr.enable();
  tr.set_store_events(false);
  trace::FlightRecorderOptions fo;
  fo.retention = SimTime::from_us(100);
  fo.max_events = 16;
  trace::FlightRecorder rec{tr, fo};
  const int t = tr.track("unit");
  for (int i = 0; i < 100; ++i) {
    tr.instant(t, "tick", SimTime::from_us(i));
  }
  // Cap wins over retention here: 16 <= 100us worth of events.
  EXPECT_LE(rec.ring_size(), 16u);
  // A late burst evicts everything older than the retention window.
  tr.instant(t, "late", SimTime::from_ms(10));
  EXPECT_EQ(rec.ring_size(), 1u);
}

TEST(FlightRecorderTest, CooldownCollapsesCascades) {
  trace::Tracer tr;
  tr.enable();
  trace::FlightRecorderOptions fo;
  fo.cooldown = SimTime::from_ms(1);
  trace::FlightRecorder rec{tr, fo};
  const int t = tr.track("unit");
  tr.instant(t, "anomaly", SimTime::from_us(10));
  EXPECT_TRUE(rec.trigger("watchdog_abort", 1, SimTime::from_us(10)));
  // The same incident's cascade (breaker opens, recovery gives up) lands
  // within the cooldown and must not dump again.
  EXPECT_FALSE(rec.trigger("breaker_open", 1, SimTime::from_us(11)));
  EXPECT_FALSE(rec.trigger("rtr_giveup", 1, SimTime::from_us(12)));
  ASSERT_EQ(rec.incidents().size(), 1u);
  EXPECT_EQ(rec.triggers(), 3);
  EXPECT_EQ(rec.suppressed(), 2);
  // A genuinely separate incident after the cooldown dumps a new snapshot.
  EXPECT_TRUE(rec.trigger("watchdog_abort", 2, SimTime::from_ms(5)));
  ASSERT_EQ(rec.incidents().size(), 2u);
  EXPECT_EQ(rec.incidents()[1].index, 2);
}

TEST(FlightRecorderTest, MaxIncidentsBoundsSnapshots) {
  trace::Tracer tr;
  tr.enable();
  trace::FlightRecorderOptions fo;
  fo.cooldown = SimTime::from_us(1);
  fo.max_incidents = 2;
  trace::FlightRecorder rec{tr, fo};
  for (int i = 0; i < 5; ++i) {
    rec.trigger("breach", i, SimTime::from_ms(i + 1));
  }
  EXPECT_EQ(rec.incidents().size(), 2u);
  EXPECT_EQ(rec.triggers(), 5);
  EXPECT_EQ(rec.suppressed(), 3);
}

TEST(FlightRecorderTest, SnapshotEmbedsStateProvidersAndIsDeterministic) {
  auto capture = [] {
    trace::Tracer tr;
    tr.enable();
    trace::FlightRecorder rec{tr};
    rec.add_state_provider(
        "unit", [](std::ostream& os) { os << "{\"answer\": 42}"; });
    const int t = tr.track("SERVE");
    tr.begin(t, "request", SimTime::from_us(1));
    tr.flow(trace::Phase::kFlowStart, t, "req", 1, SimTime::from_us(1));
    tr.end(t, SimTime::from_us(2));
    rec.trigger("watchdog_abort", 1, SimTime::from_us(2));
    RTR_CHECK(rec.incidents().size() == 1, "one snapshot");
    return rec.incidents()[0].json;
  };
  const std::string a = capture();
  EXPECT_EQ(a, capture());
  EXPECT_NE(a.find("\"schema\": \"rtrsim-incident-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"answer\": 42"), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"watchdog_abort\""), std::string::npos);
  EXPECT_NE(a.find("request"), std::string::npos);  // ring carries the span
  // Re-registering a provider under the same name replaces it, so a
  // rebuilt TaskServer cannot leave a dangling provider behind.
}

TEST(RunWorkload, StuckIcapTriggersExactlyOneIncident) {
  // The acceptance path: a stuck ICAP mid-run must produce exactly one
  // snapshot (the give-up), with the rest of the cascade suppressed by
  // the cooldown, and the snapshot must be byte-identical per seed.
  auto run = [] {
    trace::Tracer tr;
    tr.enable();
    tr.set_store_events(false);
    trace::FlightRecorder rec{tr};
    fault::FaultSpec spec;
    RTR_CHECK(fault::FaultSpec::parse("icap:stuck@15000:42", &spec),
              "spec parses");
    PlatformOptions opts;
    opts.fault_plan.add(spec);
    opts.tracer = &tr;
    Platform32 p{opts};
    p.sim().attach_flight_recorder(rec);
    ServeOptions so;
    so.hw_attempt_budget = SimTime::from_ms(40);
    (void)serve::run_workload(p, *serve::workload_by_name("steady"), 42, so,
                              6);
    RTR_CHECK(rec.incidents().size() == 1, "exactly one incident");
    return rec.incidents()[0].kind + "|" + rec.incidents()[0].json;
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_EQ(a.substr(0, a.find('|')), "rtr_giveup");
}

// --- swap-aware batching (docs/SERVING.md "Batching") -------------------------

TEST(RequestQueue, AgedRequestIsExemptFromAffinityBypass) {
  // The shared starvation guard: once a request has been passed over
  // max_bypass times, pop_affine must stop bypassing it -- even when a
  // warm-behaviour request is queued behind it.
  RequestQueue q{8};
  ASSERT_EQ(q.admit(make_request(1, hw::kSha1)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(2, hw::kJenkinsHash)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kJenkinsHash)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(4, hw::kJenkinsHash)), AdmitError::kNone);
  const auto warm = [](int b) { return b == hw::kJenkinsHash; };
  EXPECT_EQ(q.pop_affine(warm, 2).id, 2);  // sha1 bypassed once
  EXPECT_EQ(q.pop_affine(warm, 2).id, 3);  // sha1 bypassed twice -> aged
  EXPECT_EQ(q.pop_affine(warm, 2).id, 1);  // aged head pops despite warm 4
  EXPECT_EQ(q.pop_affine(warm, 2).id, 4);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, PopBatchCoalescesSameBehaviorWithinSlack) {
  RequestQueue q{8};
  ASSERT_EQ(q.admit(make_request(1, hw::kJenkinsHash)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(2, hw::kSha1)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kJenkinsHash)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(4, hw::kSha1)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(5, hw::kJenkinsHash)), AdmitError::kNone);
  const auto cold = [](int) { return false; };
  serve::BatchPolicy pol;
  pol.max_batch = 8;
  const std::vector<Request> batch =
      q.pop_batch(cold, 16, pol, SimTime::zero());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 3);
  EXPECT_EQ(batch[2].id, 5);
  // The jumped-over sha1 requests remain, in order, with a bypass charged.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(pop_head(q).id, 2);
  EXPECT_EQ(pop_head(q).id, 4);
}

TEST(RequestQueue, PopBatchHonorsMaxBatch) {
  RequestQueue q{8};
  for (int i = 1; i <= 5; ++i) {
    ASSERT_EQ(q.admit(make_request(i, hw::kJenkinsHash)), AdmitError::kNone);
  }
  const auto cold = [](int) { return false; };
  serve::BatchPolicy pol;
  pol.max_batch = 3;
  EXPECT_EQ(q.pop_batch(cold, 16, pol, SimTime::zero()).size(), 3u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, PopBatchFencesAtTightDeadlineNonMember) {
  // A non-member whose deadline slack is exhausted may not be jumped: the
  // batch ends at the fence, so no member's deadline is sacrificed.
  RequestQueue q{8};
  ASSERT_EQ(q.admit(make_request(1, hw::kJenkinsHash)), AdmitError::kNone);
  Request tight = make_request(2, hw::kSha1);
  tight.deadline = SimTime::from_ms(5);  // < now + slack
  ASSERT_EQ(q.admit(tight), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kJenkinsHash)), AdmitError::kNone);
  const auto cold = [](int) { return false; };
  serve::BatchPolicy pol;
  pol.max_batch = 8;
  pol.slack_ps = SimTime::from_ms(20).ps();
  const std::vector<Request> batch =
      q.pop_batch(cold, 16, pol, SimTime::zero());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, PopBatchFencesAtAgedNonMember) {
  // Batch extraction obeys the same starvation guard as pop_affine: an
  // aged entry may not be jumped, so coalescing stops there.
  RequestQueue q{8};
  ASSERT_EQ(q.admit(make_request(1, hw::kSha1)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(2, hw::kJenkinsHash)), AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kJenkinsHash)), AdmitError::kNone);
  const auto warm = [](int b) { return b == hw::kJenkinsHash; };
  // Age the sha1 head: one warm pop with max_bypass=1 charges its bypass.
  EXPECT_EQ(q.pop_affine(warm, 1).id, 2);
  serve::BatchPolicy pol;
  pol.max_batch = 8;
  // Leader: the aged sha1 head (exempt from further bypass). Coalescing
  // looks for more sha1 but the queue holds none, so the batch is just it.
  std::vector<Request> batch = q.pop_batch(warm, 1, pol, SimTime::zero());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1);
  // The remaining jenkins request batches normally.
  batch = q.pop_batch(warm, 1, pol, SimTime::zero());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 3);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, PopBatchCoalescesAcrossPriorityClasses) {
  RequestQueue q{8};
  ASSERT_EQ(q.admit(make_request(1, hw::kJenkinsHash, Priority::kHigh)),
            AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(2, hw::kSha1, Priority::kNormal)),
            AdmitError::kNone);
  ASSERT_EQ(q.admit(make_request(3, hw::kJenkinsHash, Priority::kNormal)),
            AdmitError::kNone);
  const auto cold = [](int) { return false; };
  serve::BatchPolicy pol;
  pol.max_batch = 8;
  const std::vector<Request> batch =
      q.pop_batch(cold, 16, pol, SimTime::zero());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1);  // high-priority leader
  EXPECT_EQ(batch[1].id, 3);  // same behaviour from the normal class
  EXPECT_EQ(pop_head(q).id, 2);
}

TEST(Batching, BatchedDigestsMatchUnbatchedPerRequest) {
  // The core bit-exactness guarantee: for every request id, the digest a
  // batched chain produces equals the unbatched (PIO/software) digest.
  // "image" covers chained members (brightness/blend/fade) and the
  // non-chained per-member path (patmatch).
  const serve::WorkloadSpec* w = serve::workload_by_name("image");
  ASSERT_NE(w, nullptr);
  auto run = [&](int max_batch) {
    Platform64 p;
    ServeOptions so;
    so.batch.max_batch = max_batch;
    const ServeReport r = serve::run_workload(p, *w, 5, so);
    EXPECT_TRUE(r.digests_ok);
    EXPECT_EQ(r.failed, 0);
    std::map<std::int64_t, std::uint64_t> by_id;
    for (const serve::Completion& c : r.completions) {
      if (c.outcome == Outcome::kHw || c.outcome == Outcome::kSw) {
        by_id[c.req.id] = c.digest;
      }
    }
    return by_id;
  };
  const auto unbatched = run(1);
  const auto batched = run(4);
  EXPECT_EQ(unbatched, batched);
}

TEST(Batching, HeavyWorkloadBatchingReducesSwapsWithoutDeadlineCost) {
  const serve::WorkloadSpec* w = serve::workload_by_name("heavy");
  ASSERT_NE(w, nullptr);
  struct Arm {
    std::int64_t swaps = 0;
    std::int64_t miss = 0;
    std::int64_t expired = 0;
    std::int64_t batches = 0;
    std::int64_t coalesced = 0;
  };
  auto run = [&](int max_batch) {
    PlatformOptions po;
    po.dynamic_areas = 2;
    Platform64 p{po};
    ServeOptions so;
    so.batch.max_batch = max_batch;
    const ServeReport r = serve::run_workload(p, *w, 1, so);
    EXPECT_TRUE(r.digests_ok);
    EXPECT_EQ(r.failed, 0);
    Arm a;
    for (const char* path : {"cached", "differential", "complete"}) {
      const auto& hists = p.sim().stats().histograms();
      const auto it =
          hists.find(std::string("rtr.ensure.latency_ps.") + path);
      if (it != hists.end()) a.swaps += it->second.count();
    }
    a.miss = r.deadline_miss;
    a.expired = r.expired;
    a.batches = r.batches;
    a.coalesced = r.coalesced;
    return a;
  };
  const Arm unbatched = run(1);
  const Arm batched = run(8);
  // The CI amortization gate's claim, asserted at the library level:
  // batching at least halves heavy-workload swaps...
  EXPECT_LE(2 * batched.swaps, unbatched.swaps);
  // ...without sacrificing any member's deadline.
  EXPECT_LE(batched.miss, unbatched.miss);
  EXPECT_LE(batched.expired, unbatched.expired);
  EXPECT_GT(batched.batches, 0);
  EXPECT_GT(batched.coalesced, 0);
}

TEST(Batching, MidChainDmaFaultDegradesOnlyAffectedMembers) {
  // A DMA fault corrupts beats inside the scatter-gather chain: the
  // members whose buffers they landed in must re-run on the software
  // kernel (bit-identical digest), and the rest of the batch must be
  // unaffected -- nobody is stranded, no digest drifts.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("dma:every@40:1", &spec));
  PlatformOptions po;
  po.fault_plan.add(spec);
  Platform64 p{po};
  ServeOptions so;
  so.batch.max_batch = 4;
  const serve::WorkloadSpec* w = serve::workload_by_name("image");
  ASSERT_NE(w, nullptr);
  const ServeReport r = serve::run_workload(p, *w, 5, so);
  EXPECT_TRUE(r.digests_ok);
  EXPECT_EQ(r.failed, 0);
  EXPECT_GT(r.degraded, 0);   // corrupted members fell back to software
  EXPECT_GT(r.served_hw, 0);  // the rest of their batches did not
  for (const serve::Completion& c : r.completions) {
    EXPECT_TRUE(c.outcome == Outcome::kHw || c.outcome == Outcome::kSw ||
                c.outcome == Outcome::kExpired)
        << "request " << c.req.id << " stranded as "
        << serve::outcome_name(c.outcome);
  }
}

TEST(Batching, IcapFaultFailsTheLoadAndWholeBatchDegrades) {
  // The ensure (reconfiguration) fails mid-run: every live member of the
  // affected batch degrades to the software kernel -- bit-identical
  // digests, nobody stranded past its slack.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("icap:stuck@15000:1", &spec));
  PlatformOptions po;
  po.fault_plan.add(spec);
  Platform64 p{po};
  ServeOptions so;
  so.batch.max_batch = 4;
  so.hw_attempt_budget = SimTime::from_ms(40);
  const serve::WorkloadSpec* w = serve::workload_by_name("image");
  ASSERT_NE(w, nullptr);
  const ServeReport r = serve::run_workload(p, *w, 5, so);
  EXPECT_TRUE(r.digests_ok);
  EXPECT_EQ(r.failed, 0);
  EXPECT_GT(r.degraded, 0);
  EXPECT_GT(r.watchdog_aborts, 0);
}

TEST(Batching, OpenLoopStreamsAreSeedDeterministicAndOrdered) {
  const serve::OpenLoopSpec* spec = serve::open_workload_by_name("open-bursty");
  ASSERT_NE(spec, nullptr);
  const std::vector<Request> a = serve::make_open_stream(*spec, 3);
  const std::vector<Request> b = serve::make_open_stream(*spec, 3);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(spec->requests));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].behavior, b[i].behavior);
    EXPECT_EQ(a[i].submitted.ps(), b[i].submitted.ps());
    if (i > 0) {
      EXPECT_GE(a[i].submitted.ps(), a[i - 1].submitted.ps());
    }
  }
  // A different seed reshuffles the stream.
  const std::vector<Request> c = serve::make_open_stream(*spec, 4);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].behavior != c[i].behavior ||
              a[i].submitted.ps() != c[i].submitted.ps();
  }
  EXPECT_TRUE(differs);
}

TEST(Batching, OpenLoopBurstyWorkloadServesCleanlyBatched) {
  const serve::OpenLoopSpec* spec = serve::open_workload_by_name("open-bursty");
  ASSERT_NE(spec, nullptr);
  PlatformOptions po;
  po.dynamic_areas = 2;
  Platform64 p{po};
  ServeOptions so;
  so.batch.max_batch = 8;
  const ServeReport r = serve::run_open_workload(p, *spec, 2, so);
  EXPECT_TRUE(r.digests_ok);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.submitted + r.shed,
            static_cast<std::int64_t>(spec->requests));
  EXPECT_GT(r.batches, 0);
}

}  // namespace
}  // namespace rtr
