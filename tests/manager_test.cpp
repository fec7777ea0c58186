// Tests for the ModuleManager's safe differential reconfiguration: fast
// path, fallback on stale assumptions, and functional correctness of
// modules loaded through differentials.
#include <gtest/gtest.h>

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
  // The frame sits in a column neither assembly touches, so the
  // differential will not rewrite it -- the stale state survives the
  // differential load and only the payload-hash gate can catch it.
  rogue.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                      p.region().rect().col0 + 15, 2},
                 1, junk});
  for (std::uint32_t word : bitstream::serialize(rogue)) {
    p.cpu().store32(Platform32::kIcapRange.base, word);
  }

  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.fell_back);           // differential refused to bind
  EXPECT_FALSE(s.used_differential);  // the complete config did the job
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
        cache.complete(linker, from, l.width, nullptr, nullptr, l.area)
            ->config.apply_to(from_state);
        cache.complete(linker, to, l.width, nullptr, nullptr, l.area)
            ->config.apply_to(to_state);
        const bitstream::PartialConfig want =
            bitstream::PartialConfig::diff(from_state, to_state);
        ASSERT_EQ(plan->config.runs().size(), want.runs().size());
        for (std::size_t r = 0; r < want.runs().size(); ++r) {
          EXPECT_EQ(plan->config.runs()[r].start, want.runs()[r].start);
          EXPECT_EQ(plan->config.runs()[r].frame_count,
                    want.runs()[r].frame_count);
          EXPECT_EQ(plan->config.runs()[r].words, want.runs()[r].words);
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

}  // namespace
}  // namespace rtr
