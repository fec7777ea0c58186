// Tests for the ModuleManager's safe differential reconfiguration: fast
// path, fallback on stale assumptions, and functional correctness of
// modules loaded through differentials.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "bitstream/partial_config.hpp"
#include "rtr/manager.hpp"
#include "rtr/plan_cache.hpp"
#include "rtr/platform.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

template <typename P>
class ManagerTest : public ::testing::Test {};
using BothPlatforms = ::testing::Types<Platform32, Platform64>;
TYPED_TEST_SUITE(ManagerTest, BothPlatforms);

TYPED_TEST(ManagerTest, FirstLoadIsCompleteThenDifferentials) {
  TypeParam p;
  ModuleManager mgr{p};
  const int w = p.dock_width();

  const auto first = mgr.ensure(hw::kBrightness, w);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.used_differential);  // nothing to diff against yet
  EXPECT_FALSE(first.already_resident);

  const auto second = mgr.ensure(hw::kFade, w);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.used_differential);
  EXPECT_FALSE(second.fell_back);
  // Differential streams are much smaller than complete ones.
  EXPECT_LT(second.stream_words * 2, first.stream_words);
  EXPECT_LT(second.time, first.time);

  const auto again = mgr.ensure(hw::kFade, w);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.already_resident);
  EXPECT_EQ(again.stream_words, 0);
}

TYPED_TEST(ManagerTest, DifferentialLoadsAreFunctionallyComplete) {
  TypeParam p;
  ModuleManager mgr{p};
  const int w = p.dock_width();
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, w).ok);
  const auto s = mgr.ensure(hw::kJenkinsHash, w);
  ASSERT_TRUE(s.ok);
  ASSERT_TRUE(s.used_differential);

  const auto key = std::vector<std::uint8_t>(77, 0x44);
  const Addr key_at = p.config_staging() - 0x10000;
  apps::store_bytes(p.cpu().plb(), key_at, key);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), p.dock_data(), key_at, 77),
            apps::jenkins_hash(key));
}

TEST(ManagerFallback, StaleAssumptionFallsBackToComplete) {
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);

  // Someone else rewrites part of the region behind the manager's back (a
  // debugger, scrubber repair, another software component).
  std::vector<std::uint32_t> junk(
      static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x77777);
  bitstream::PartialConfig rogue{p.region().device()};
  // The frame sits in a column neither assembly touches, so a differential
  // would not rewrite it and the stale state would survive it. The write
  // moves the generation tag, so the manager refuses the differential
  // before loading it; had it loaded, the payload-hash walk would have
  // refused to bind.
  rogue.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                      p.region().rect().col0 + 15, 2},
                 1, junk});
  for (std::uint32_t word : bitstream::serialize(rogue)) {
    p.cpu().store32(Platform32::kIcapRange.base, word);
  }

  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.fell_back);           // differential refused
  EXPECT_FALSE(s.used_differential);  // the complete config did the job
  EXPECT_EQ(
      p.sim().stats().counter("rtr.plan_cache.gen_invalidations").value(), 1);
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kFade);
}

TEST(ManagerFallback, InvalidateForcesCompletePath) {
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  mgr.invalidate();
  EXPECT_EQ(mgr.resident(), -1);
  const auto s = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.used_differential);
  EXPECT_FALSE(s.already_resident);
}

TEST(ManagerFallback, DisabledDifferentialAlwaysLoadsComplete) {
  Platform32 p;
  ModuleManager mgr{p, /*enable_differential=*/false};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.used_differential);
}

TEST(ManagerSavings, AlternationIsMuchCheaperWithDifferentials) {
  // The module_swap scenario, managed: after warmup every swap ships only
  // the frames that differ between the two assemblies.
  Platform32 managed;
  ModuleManager mgr{managed};
  ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 32).ok);
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);  // warmup pair
  SimTime diff_time;
  for (int i = 0; i < 3; ++i) {
    auto a = mgr.ensure(hw::kJenkinsHash, 32);
    auto b = mgr.ensure(hw::kBrightness, 32);
    ASSERT_TRUE(a.ok && b.ok);
    ASSERT_TRUE(a.used_differential && b.used_differential);
    diff_time += a.time + b.time;
  }

  Platform32 plain;
  SimTime full_time;
  for (int i = 0; i < 3; ++i) {
    auto a = plain.load_module(hw::kJenkinsHash);
    auto b = plain.load_module(hw::kBrightness);
    ASSERT_TRUE(a.ok && b.ok);
    full_time += a.duration() + b.duration();
  }
  EXPECT_LT(diff_time.ps() * 2, full_time.ps());
}

TYPED_TEST(ManagerTest, CachedAndUncachedRunsAreByteIdentical) {
  // The plan cache removes host-side work only: simulated times, stream
  // word counts and the bound signature must not depend on it.
  const hw::BehaviorId seq[] = {hw::kBrightness, hw::kFade, hw::kBrightness,
                                hw::kJenkinsHash, hw::kFade, hw::kFade,
                                hw::kBrightness};

  TypeParam pc;
  ModuleManager cached{pc};
  TypeParam pu;
  ModuleManager uncached{pu};
  uncached.set_plan_cache_enabled(false);
  const int w = pc.dock_width();

  for (const hw::BehaviorId id : seq) {
    const auto a = cached.ensure(id, w);
    const auto b = uncached.ensure(id, w);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.time.ps(), b.time.ps());
    EXPECT_EQ(a.stream_words, b.stream_words);
    EXPECT_EQ(a.used_differential, b.used_differential);
    EXPECT_FALSE(b.plan_cached);  // the uncached manager never reports one
  }
  EXPECT_EQ(pc.kernel().now().ps(), pu.kernel().now().ps());
  EXPECT_EQ(pc.region().scan_signature(pc.fabric_state()),
            pu.region().scan_signature(pu.fabric_state()));
}

TEST(ManagerPlanCache, RepeatSwapsHitTheDifferentialCache) {
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const auto cold = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(cold.ok);
  EXPECT_TRUE(cold.used_differential);
  EXPECT_FALSE(cold.plan_cached);  // first time this pair is diffed

  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const auto warm = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.used_differential);
  EXPECT_TRUE(warm.plan_cached);
  EXPECT_EQ(warm.stream_words, cold.stream_words);
  EXPECT_EQ(mgr.plan_cache().diff_plans(), 2u);  // both directions built

  EXPECT_GT(p.sim().stats().counter("rtr.plan_cache.hits").value(), 0);
  EXPECT_GT(
      p.sim().stats().histogram("rtr.ensure.latency_ps.cached").count(), 0);
  EXPECT_GT(
      p.sim().stats().histogram("rtr.ensure.latency_ps.complete").count(), 0);
}

TEST(ManagerPlanCache, WarmMakesTheNextSwapAPlanHit) {
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const sim::SimTime before = p.kernel().now();
  ASSERT_TRUE(mgr.warm(hw::kFade, 32));
  EXPECT_EQ(p.kernel().now().ps(), before.ps());  // warming is host-only
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_TRUE(s.used_differential);
  EXPECT_TRUE(s.plan_cached);
}

TEST(ManagerPlanCache, InvalidateBumpsGenerationAndForcesColdPath) {
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  ASSERT_TRUE(mgr.warm(hw::kFade, 32));  // plan warmed against current state
  const std::uint64_t gen = p.fabric_state().generation();
  mgr.invalidate();
  EXPECT_GT(p.fabric_state().generation(), gen);
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.used_differential);  // residency dropped: complete path
}

TEST(ManagerPlanCache, ExternalFabricWriteFailsTheGenerationTag) {
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const std::uint64_t gen = p.fabric_state().generation();

  // Any external write moves the tag, even one the differential would not
  // touch; the manager must refuse the cached plan and fall back.
  std::vector<std::uint32_t> junk(
      static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x77777);
  bitstream::PartialConfig rogue{p.region().device()};
  rogue.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                      p.region().rect().col0 + 15, 2},
                 1, junk});
  for (std::uint32_t word : bitstream::serialize(rogue)) {
    p.cpu().store32(Platform32::kIcapRange.base, word);
  }
  EXPECT_GT(p.fabric_state().generation(), gen);

  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.fell_back);
  EXPECT_FALSE(s.used_differential);
  EXPECT_GT(
      p.sim().stats().counter("rtr.plan_cache.gen_invalidations").value(), 0);
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kFade);
}

TEST(PlanCache, DifferentialEqualsTheStateDiff) {
  // For every ordered pair of fitting behaviours on the XC2VP7, the XC2VP30
  // and its second area, the cached differential -- diffed plan against
  // plan -- equals PartialConfig::diff over the two complete plans applied
  // to blank fabric: runs, payload bytes and serialized words.
  struct Layout {
    fabric::DynamicRegion region;
    int width;
    int area;
  };
  const Layout layouts[] = {{fabric::DynamicRegion::xc2vp7_region(), 32, 0},
                            {fabric::DynamicRegion::xc2vp30_region(), 64, 0},
                            {fabric::DynamicRegion::xc2vp30_region_b(), 64, 1}};
  constexpr hw::BehaviorId kBehaviors[] = {
      hw::kPatternMatcher, hw::kJenkinsHash, hw::kSha1,
      hw::kPatternMatcherXl, hw::kBrightness, hw::kBlendAdd,
      hw::kFade,           hw::kLoopback,    hw::kSink};
  for (const Layout& l : layouts) {
    const fabric::Device& dev = l.region.device();
    const fabric::ConfigMemory baseline{dev};
    const bitlinker::BitLinker linker{
        l.region, busmacro::ConnectionInterface::for_width(l.width), baseline};
    PlanCache cache;
    std::vector<hw::BehaviorId> ids;
    for (const hw::BehaviorId id : kBehaviors) {
      if (cache.complete(linker, id, l.width, nullptr, nullptr, l.area)) {
        ids.push_back(id);
      }
    }
    ASSERT_GE(ids.size(), 4u);
    for (const hw::BehaviorId from : ids) {
      for (const hw::BehaviorId to : ids) {
        SCOPED_TRACE(l.region.name() + ": " + hw::task_name(from) + " -> " +
                     hw::task_name(to));
        const PlanCache::Plan* plan = cache.differential(
            linker, from, to, l.width, nullptr, nullptr, l.area);
        ASSERT_NE(plan, nullptr);
        fabric::ConfigMemory from_state{dev};
        fabric::ConfigMemory to_state{dev};
        bitstream::parse(
            cache.complete(linker, from, l.width, nullptr, nullptr, l.area)
                ->words,
            dev)
            .apply_to(from_state);
        bitstream::parse(
            cache.complete(linker, to, l.width, nullptr, nullptr, l.area)
                ->words,
            dev)
            .apply_to(to_state);
        const bitstream::PartialConfig want =
            bitstream::PartialConfig::diff(from_state, to_state);
        const std::vector<bitstream::FrameSpan> runs = plan->runs();
        ASSERT_EQ(runs.size(), want.runs().size());
        for (std::size_t r = 0; r < want.runs().size(); ++r) {
          EXPECT_EQ(runs[r].start, want.runs()[r].start);
          EXPECT_EQ(runs[r].frame_count, want.runs()[r].frame_count);
          EXPECT_TRUE(std::ranges::equal(runs[r].words, want.runs()[r].words));
        }
        EXPECT_EQ(plan->payload_bytes, want.payload_bytes());
        EXPECT_EQ(plan->words, bitstream::serialize(want));
        if (from == to) {
          EXPECT_EQ(want.total_frames(), 0);
        }
      }
    }
  }
}

/// Run for run, `got` (a stream parsed back) equals `want`.
void expect_same_runs(const bitstream::PartialConfig& got,
                      const bitstream::PartialConfig& want) {
  ASSERT_EQ(got.runs().size(), want.runs().size());
  for (std::size_t r = 0; r < want.runs().size(); ++r) {
    EXPECT_EQ(got.runs()[r].start, want.runs()[r].start) << "run " << r;
    EXPECT_EQ(got.runs()[r].frame_count, want.runs()[r].frame_count)
        << "run " << r;
    EXPECT_EQ(got.runs()[r].words, want.runs()[r].words) << "run " << r;
  }
}

TEST(PlanCache, StreamsParseBackToTheirConfigurations) {
  // A plan keeps only its stream: parsed back, a complete plan is the
  // configuration BitLinker linked, and a differential one the diff of the
  // two linked configurations. swap_storm's five behaviours on the
  // XC2VP30, every complete plan and ordered pair; jenkins and the pattern
  // matcher on the XC2VP7.
  struct Case {
    const SystemSpec* spec;
    std::vector<hw::BehaviorId> ids;
  };
  const Case cases[] = {
      {&SystemSpec::k64,
       {hw::kJenkinsHash, hw::kBrightness, hw::kBlendAdd, hw::kFade,
        hw::kPatternMatcher}},
      {&SystemSpec::k32, {hw::kJenkinsHash, hw::kPatternMatcher}}};
  for (const Case& c : cases) {
    Platform p{*c.spec};
    const fabric::Device& dev = p.region().device();
    const int width = p.dock_width();
    PlanCache cache;
    std::map<hw::BehaviorId, bitstream::PartialConfig> linked;
    for (const hw::BehaviorId id : c.ids) {
      SCOPED_TRACE(std::to_string(width) + ": " + hw::task_name(id));
      auto link = p.linker().link_single(hw::component_for(id, width));
      ASSERT_TRUE(link.ok());
      const PlanCache::Plan* plan =
          cache.complete(p.linker(), id, width, nullptr, nullptr);
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->device, &dev);
      EXPECT_EQ(plan->payload_bytes, link.config->payload_bytes());
      expect_same_runs(bitstream::parse(plan->words, dev), *link.config);
      linked.emplace(id, std::move(*link.config));
    }
    for (const hw::BehaviorId from : c.ids) {
      for (const hw::BehaviorId to : c.ids) {
        SCOPED_TRACE(std::to_string(width) + ": " + hw::task_name(from) +
                     " -> " + hw::task_name(to));
        const PlanCache::Plan* plan =
            cache.differential(p.linker(), from, to, width, nullptr, nullptr);
        ASSERT_NE(plan, nullptr);
        const bitstream::PartialConfig want =
            bitstream::PartialConfig::diff(linked.at(from), linked.at(to));
        EXPECT_EQ(plan->payload_bytes, want.payload_bytes());
        expect_same_runs(bitstream::parse(plan->words, dev), want);
      }
    }
  }
}

TEST(Platform, SystemsShareOneBlankBaseline) {
  // Every platform of one system, in every area, links against the same
  // all-zero baseline, and two platforms build word-identical plans.
  PlatformOptions two;
  two.dynamic_areas = 2;
  Platform64 a{two};
  Platform64 b;
  Platform32 c;
  const fabric::ConfigMemory& blank = a.linker(0).baseline();
  EXPECT_EQ(&a.linker(1).baseline(), &blank);
  EXPECT_EQ(&b.linker().baseline(), &blank);
  EXPECT_EQ(&c.linker().baseline(), &Platform32{}.linker().baseline());
  EXPECT_NE(&c.linker().baseline(), &blank);
  for (const fabric::ConfigMemory* base : {&blank, &c.linker().baseline()}) {
    EXPECT_EQ(base->touched_frames(), 0);
    EXPECT_EQ(fabric::ConfigMemory::diff_frames(
                  *base, fabric::ConfigMemory{base->device()}),
              0);
  }
  for (const hw::BehaviorId id : {hw::kBrightness, hw::kSha1}) {
    const auto from_a = PlanCache::build_complete(a.linker(), id, 64, nullptr);
    const auto from_b = PlanCache::build_complete(b.linker(), id, 64, nullptr);
    ASSERT_TRUE(from_a && from_b) << hw::task_name(id);
    EXPECT_EQ(from_a->words, from_b->words) << hw::task_name(id);
    EXPECT_EQ(from_a->hash, from_b->hash) << hw::task_name(id);
  }
}

TEST(PlanCache, PlanDiffRejectsConfigurationsOfDifferentFrames) {
  const fabric::Device& dev = fabric::Device::xc2vp7();
  const std::vector<std::uint32_t> frame(
      static_cast<std::size_t>(dev.words_per_frame()), 1u);
  bitstream::PartialConfig a{dev};
  a.add_run({fabric::FrameAddress{fabric::ColumnType::kClb, 3, 0}, 1, frame});
  bitstream::PartialConfig b{dev};
  b.add_run({fabric::FrameAddress{fabric::ColumnType::kClb, 4, 0}, 1, frame});
  EXPECT_DEATH((void)bitstream::PartialConfig::diff(a, b), "different frames");
}

TEST(PlanCache, EveryOrderedPairMissesOnce) {
  // swap_storm's five behaviours on the XC2VP30. Four Hamiltonian cycles
  // of the five (steps 1-4 from jenkins) are one closed walk over all 20
  // ordered pairs; three rounds of it must build each differential once.
  Platform64 p;
  ModuleManager mgr{p};
  constexpr hw::BehaviorId kMix[] = {hw::kJenkinsHash, hw::kBrightness,
                                     hw::kBlendAdd, hw::kFade,
                                     hw::kPatternMatcher};
  constexpr std::size_t n = std::size(kMix);
  std::vector<hw::BehaviorId> walk;
  for (std::size_t step = 1; step < n; ++step) {
    for (std::size_t i = 0; i < n; ++i) walk.push_back(kMix[i * step % n]);
  }
  ASSERT_TRUE(mgr.ensure(walk.front(), 64).ok);  // a complete-plan miss
  std::set<std::pair<int, int>> pairs;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 1; i <= walk.size(); ++i) {
      const hw::BehaviorId from = walk[i - 1];
      const hw::BehaviorId to = walk[i % walk.size()];
      const EnsureStats s = mgr.ensure(to, 64);
      ASSERT_TRUE(s.ok) << s.error;
      EXPECT_TRUE(s.used_differential);
      EXPECT_EQ(s.plan_cached, round > 0)
          << hw::task_name(from) << " -> " << hw::task_name(to);
      pairs.emplace(from, to);
    }
  }
  EXPECT_EQ(pairs.size(), n * (n - 1));
  EXPECT_EQ(mgr.plan_cache().diff_plans(), n * (n - 1));
  EXPECT_EQ(mgr.plan_cache().complete_plans(), n);
  EXPECT_EQ(mgr.plan_cache().links(), static_cast<std::int64_t>(n));
  sim::StatRegistry& stats = p.sim().stats();
  EXPECT_EQ(stats.counter("rtr.plan_cache.misses").value(),
            static_cast<std::int64_t>(1 + n * (n - 1)));
  EXPECT_EQ(stats.counter("rtr.plan_cache.hits").value(),
            static_cast<std::int64_t>(2 * n * (n - 1)));
}

TEST(PlanCache, FailedLinkIsLinkedOnceAndStillAMiss) {
  // SHA-1 does not fit the XC2VP7's area: its link error is remembered.
  Platform32 p;
  PlanCache cache;
  std::string first;
  bool hit = true;
  EXPECT_EQ(cache.complete(p.linker(), hw::kSha1, 32, &first, &hit), nullptr);
  EXPECT_FALSE(hit);
  EXPECT_NE(first.find("does not fit"), std::string::npos) << first;
  for (int i = 0; i < 3; ++i) {
    std::string again;
    hit = true;
    EXPECT_EQ(cache.complete(p.linker(), hw::kSha1, 32, &again, &hit),
              nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(again, first);
    again.clear();
    EXPECT_EQ(cache.differential(p.linker(), hw::kBrightness, hw::kSha1, 32,
                                 &again, &hit),
              nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(cache.links(), 2);  // SHA-1 once, brightness once
  EXPECT_EQ(cache.complete_plans(), 1u);
  EXPECT_EQ(cache.diff_plans(), 0u);

  // Through the manager: every ensure fails with the error and counts a
  // miss, and SHA-1 is linked once.
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  for (int i = 0; i < 3; ++i) {
    const EnsureStats s = mgr.ensure(hw::kSha1, 32);
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(s.error, first);
  }
  EXPECT_EQ(mgr.plan_cache().links(), 2);
  EXPECT_EQ(p.sim().stats().counter("rtr.plan_cache.misses").value(), 4);
  EXPECT_EQ(p.sim().stats().counter("rtr.plan_cache.hits").value(), 0);
}

// --- the validation shortcut against the reference walk ---------------------

/// Seeded random plan loads, ensures and fabric perturbations on one
/// platform. After every load, detail::region_validates on the live fabric
/// must agree with the load's outcome: bound or not, the bound id and the
/// error. A load is provably exact when no fault plan is armed and the plan
/// is complete, or a differential whose base the area holds by a plan load
/// nothing has written over since; such a load must take the shortcut, and
/// every other load that reaches validation must re-walk the area.
class ShortcutOracle {
 public:
  ShortcutOracle(int system, int areas, const char* fault_spec,
                 std::uint64_t seed)
      : p_(SystemSpec::of(system), options(areas, fault_spec)),
        mgr_(p_),
        faults_(fault_spec != nullptr),
        stale_(static_cast<std::size_t>(areas), false),
        rng_(seed) {}

  void run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure();
         ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int area = static_cast<int>(rng_.below(
          static_cast<std::uint64_t>(p_.area_count())));
      switch (rng_.below(10)) {
        case 0: case 1: case 2: plan_load(area); break;
        case 3: case 4: ensure(); break;
        case 5: rogue_icap_write(area); probe(area); break;
        case 6: invalidate(); probe(area); break;
        case 7: raw_load_module(area); probe(area); break;
        case 8: raw_differential_onto_wrong_base(area); probe(area); break;
        default: watchdog_abort(area); probe(area); break;
      }
    }
  }

  int shortcuts = 0;  // validated loads that took the shortcut
  int walks = 0;      // validated loads that re-walked the area

 private:
  static PlatformOptions options(int areas, const char* fault_spec) {
    PlatformOptions o;
    o.dynamic_areas = areas;
    if (fault_spec != nullptr) {
      fault::FaultSpec spec;
      RTR_CHECK(fault::FaultSpec::parse(fault_spec, &spec), "bad fault spec");
      o.fault_plan.add(spec);
    }
    return o;
  }

  int width() const { return p_.dock_width(); }
  int held(int area) {
    const hw::HwModule* m = p_.area_module(area);
    return m == nullptr ? -1 : m->behavior_id();
  }
  /// A behaviour that links into `area`, other than `not_this`.
  hw::BehaviorId pick(int area, int not_this = -1) {
    static constexpr hw::BehaviorId kIds[] = {
        hw::kPatternMatcher, hw::kJenkinsHash, hw::kSha1,
        hw::kBrightness,     hw::kBlendAdd,    hw::kFade};
    for (;;) {
      const hw::BehaviorId id = kIds[rng_.below(std::size(kIds))];
      if (id != not_this && complete(area, id) != nullptr) return id;
    }
  }
  const PlanCache::Plan* complete(int area, hw::BehaviorId id) {
    return plans_.complete(p_.linker(area), id, width(), nullptr, nullptr,
                           area);
  }
  const PlanCache::Plan* differential(int area, hw::BehaviorId from,
                                      hw::BehaviorId to) {
    return plans_.differential(p_.linker(area), from, to, width(), nullptr,
                               nullptr, area);
  }
  void stale_all() { stale_.assign(stale_.size(), true); }

  /// Check one finished load of `area` against the walk.
  void check(const ReconfigStats& s, int area, bool provable) {
    if (s.watchdog || !p_.icap_ctl().done()) {
      // Validation never ran, on either path.
      EXPECT_FALSE(s.ok);
      EXPECT_FALSE(s.rehashed);
    } else {
      int id = -1;
      const bool valid =
          detail::region_validates(p_.fabric_state(), p_.region(area), &id);
      EXPECT_EQ(s.ok, valid) << s.error;
      if (valid) {
        EXPECT_EQ(held(area), id);
        EXPECT_EQ(s.error, "");
      } else {
        EXPECT_EQ(s.error, "region signature/payload validation failed");
      }
      EXPECT_EQ(s.rehashed, !provable);
      ++(s.rehashed ? walks : shortcuts);
    }
    if (!s.ok) stale_[static_cast<std::size_t>(area)] = true;
  }

  /// A cached plan through the manager's platform entry: complete, or
  /// mostly a differential from what the area holds, sometimes from a
  /// wrong base.
  void plan_load(int area) {
    const hw::BehaviorId to = pick(area);
    int base = -1;
    if (rng_.below(4) != 0) {
      base = held(area);
      if (base < 0 || base == to || rng_.below(5) == 0) {
        base = pick(area, to);
      }
    }
    const PlanCache::Plan* plan =
        base < 0 ? complete(area, to)
                 : differential(area, static_cast<hw::BehaviorId>(base), to);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->target, to);
    EXPECT_EQ(plan->base, base);
    EXPECT_EQ(plan->hash, complete(area, to)->hash);
    const bool provable =
        !faults_ && (base < 0 || (!stale_[static_cast<std::size_t>(area)] &&
                                  base == held(area)));
    const bool dma = p_.has_dma() && rng_.below(3) == 0;
    SCOPED_TRACE(std::string("plan load -> ") + hw::task_name(to) +
                 " base " + std::to_string(base) + (dma ? " by DMA" : ""));
    const ReconfigStats s = p_.load_plan(*plan, area, dma);
    check(s, area, provable);
    if (s.ok) stale_[static_cast<std::size_t>(area)] = false;
  }

  /// After a perturbation: a differential plan load onto what the area
  /// holds must re-walk it.
  void probe(int area) {
    SCOPED_TRACE("probe");
    plan_load(area);
  }

  void ensure() {
    const hw::BehaviorId id = pick(0);
    SCOPED_TRACE(std::string("ensure ") + hw::task_name(id));
    const EnsureStats e = mgr_.ensure(id, width());
    if (!e.ok) {
      stale_[static_cast<std::size_t>(e.area)] = true;
      return;
    }
    if (e.already_resident) return;
    int bound = -1;
    EXPECT_TRUE(detail::region_validates(p_.fabric_state(),
                                         p_.region(e.area), &bound));
    EXPECT_EQ(bound, id);
    EXPECT_EQ(held(e.area), id);
    stale_[static_cast<std::size_t>(e.area)] = false;
  }

  /// Junk written to one frame of `area` through the HWICAP, behind the
  /// platform's back (as in ManagerFallback.StaleAssumptionFallsBackToComplete).
  void rogue_icap_write(int area) {
    SCOPED_TRACE("rogue ICAP write");
    const fabric::DynamicRegion& r = p_.region(area);
    const std::vector<std::uint32_t> junk(
        static_cast<std::size_t>(p_.fabric_state().words_per_frame()),
        0x77777u);
    bitstream::PartialConfig rogue{r.device()};
    rogue.add_run(
        {fabric::FrameAddress{
             fabric::ColumnType::kClb,
             r.rect().col0 + static_cast<int>(rng_.below(
                                 static_cast<std::uint64_t>(r.rect().cols))),
             static_cast<int>(rng_.below(fabric::kFramesPerClbColumn))},
         1, junk});
    for (const std::uint32_t word : bitstream::serialize(rogue)) {
      p_.cpu().store32(p_.spec().icap.base, word);
    }
    stale_all();
  }

  void invalidate() {
    mgr_.invalidate();
    stale_all();
  }

  void raw_load_module(int area) {
    const hw::BehaviorId id = pick(area);
    SCOPED_TRACE(std::string("raw load_module ") + hw::task_name(id));
    check(p_.load_module(id, area), area, /*provable=*/false);
    stale_all();
  }

  /// A differential stream built for another base, loaded raw.
  void raw_differential_onto_wrong_base(int area) {
    const hw::BehaviorId from = pick(area, held(area));
    const hw::BehaviorId to = pick(area, from);
    SCOPED_TRACE(std::string("raw differential ") + hw::task_name(from) +
                 " -> " + hw::task_name(to));
    const PlanCache::Plan* plan = differential(area, from, to);
    ASSERT_NE(plan, nullptr);
    check(p_.load_stream(plan->words, plan->payload_bytes,
                         /*differential=*/true, area),
          area, /*provable=*/false);
    stale_all();
  }

  /// A plan load cut short by the load deadline.
  void watchdog_abort(int area) {
    SCOPED_TRACE("watchdog abort");
    p_.set_load_deadline(p_.kernel().now() + SimTime::from_us(300));
    const ReconfigStats s =
        p_.load_plan(*complete(area, pick(area)), area,
                     p_.has_dma() && rng_.below(2) == 0);
    p_.set_load_deadline(SimTime{});
    EXPECT_TRUE(s.watchdog);
    check(s, area, /*provable=*/false);
  }

  Platform p_;
  ModuleManager<> mgr_;
  bool faults_;
  std::vector<bool> stale_;  // per area: its proven record cannot hold
  sim::Rng rng_;
  PlanCache plans_;
};

TEST(LoadValidation, ShortcutAgreesWithTheWalk) {
  struct Case {
    int system;
    int areas;
    const char* faults;
  };
  const Case cases[] = {{32, 1, nullptr},
                        {64, 1, nullptr},
                        {64, 2, nullptr},
                        {32, 1, "storage:every@3:5"},
                        {32, 1, "icap:every@40009:3"},
                        {64, 2, "storage:every@4:9"}};
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("system " + std::to_string(c.system) + ", " +
                   std::to_string(c.areas) + " areas, faults " +
                   (c.faults ? c.faults : "none") + ", seed " +
                   std::to_string(seed));
      ShortcutOracle oracle{c.system, c.areas, c.faults, seed};
      oracle.run(60);
      if (HasFailure()) return;
      EXPECT_GT(oracle.walks, 0);
      if (c.faults == nullptr) {
        EXPECT_GT(oracle.shortcuts, 0);
      } else {
        EXPECT_EQ(oracle.shortcuts, 0);
      }
    }
  }
}

}  // namespace
}  // namespace rtr
