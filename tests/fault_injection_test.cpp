// Failure-injection tests: corrupted configuration storage, failed loads,
// recovery, and the safety properties the runtime must keep under faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "fault/fault.hpp"
#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "rtr/readback.hpp"

namespace rtr {
namespace {

using sim::SimTime;

// Storage corruption pinned to one staged word: bit 8 of configuration
// word `word` is flipped before every load, so the ICAP's CRC must catch it.
PlatformOptions corrupt_word_options(std::int64_t word) {
  fault::FaultSpec s;
  s.site = fault::Site::kConfigStorage;
  s.kind = fault::TriggerKind::kStuck;
  s.n = 0;
  s.word = word;
  s.mask = 0x0100;
  PlatformOptions opts;
  opts.fault_plan.add(s);
  return opts;
}

TEST(FaultInjection, CorruptedConfigIsCaughtByTheCrc) {
  // Word 5000 lies deep inside the frame payload.
  Platform32 p{corrupt_word_options(5000)};
  const ReconfigStats s = p.load_module(hw::kJenkinsHash);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("CRC"), std::string::npos) << s.error;
  // Nothing was bound: the dock answers with poison.
  EXPECT_EQ(p.active_module(), nullptr);
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 0xDEADBEEFu);
}

TEST(FaultInjection, CorruptionInTheHeaderAlsoFails) {
  Platform32 p{corrupt_word_options(2)};  // the IDCODE packet area
  EXPECT_FALSE(p.load_module(hw::kBrightness).ok);
  EXPECT_EQ(p.active_module(), nullptr);
}

TEST(FaultInjection, RecoveryAfterACorruptLoad) {
  // One corrupt load, then field repair and a retry on the same platform
  // must succeed: the load path resets the ICAP before streaming, so the
  // failed stream leaves nothing behind that blocks the next one.
  Platform32 p{corrupt_word_options(9000)};
  ASSERT_FALSE(p.load_module(hw::kFade).ok);
  ASSERT_EQ(p.cpu().load32(Platform32::dock_data()), 0xDEADBEEFu);

  p.faults()->repair_all();
  const ReconfigStats s = p.load_module(hw::kFade);
  ASSERT_TRUE(s.ok) << s.error;
  ASSERT_NE(p.active_module(), nullptr);
  EXPECT_EQ(p.active_module()->behavior_id(), hw::kFade);
  EXPECT_NE(p.cpu().load32(Platform32::dock_data()), 0xDEADBEEFu);
}

TEST(FaultInjection, FailedFitLeavesPriorModuleRunning) {
  // A load that fails *before* touching the fabric (fit check) must leave
  // the previously loaded module bound and operational.
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  const ReconfigStats s = p.load_module(hw::kSha1);  // does not fit
  ASSERT_FALSE(s.ok);
  ASSERT_NE(p.active_module(), nullptr);
  EXPECT_EQ(p.active_module()->behavior_id(), hw::kLoopback);
  p.cpu().store32(Platform32::dock_data(), 4242);
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 4242u);
}

TEST(FaultInjection, FailedStreamLeavesNothingBound) {
  // A load that fails *during* streaming (CRC) has already torn down the
  // prior module -- the region content is undefined, so nothing may stay
  // bound. Safety over availability.
  Platform32 p{corrupt_word_options(8000)};
  // First load succeeds? No -- corruption applies to every load on this
  // platform, so load a module whose stream is shorter than the corrupt
  // index... all streams here are ~33k words, so every load fails.
  ASSERT_FALSE(p.load_module(hw::kLoopback).ok);
  EXPECT_EQ(p.active_module(), nullptr);
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 0xDEADBEEFu);
}

TEST(FaultInjection, CorruptLoadOn64ViaDmaAlsoCaught) {
  Platform64 p{corrupt_word_options(4000)};
  const ReconfigStats s = p.load_module(hw::kBrightness);
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(p.active_module(), nullptr);
}

TEST(FaultInjection, ReadbackCatchesPostLoadCorruption) {
  // Clean load, then a fabric upset (rogue frame through the ICAP): the
  // module keeps running (the model cannot know), but the scrub pass
  // detects the damage -- the recovery signal for a reload.
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);
  ASSERT_TRUE(readback_verify(p.kernel(), Platform32::kIcapRange.base,
                              p.region())
                  .ok);

  std::vector<std::uint32_t> junk(
      static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x5EE5EE);
  bitstream::PartialConfig upset{p.region().device()};
  upset.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                      p.region().rect().col0 + 2, 11},
                 1, junk});
  for (std::uint32_t w : bitstream::serialize(upset)) {
    p.cpu().store32(Platform32::kIcapRange.base, w);
  }
  EXPECT_FALSE(readback_verify(p.kernel(), Platform32::kIcapRange.base,
                               p.region())
                   .ok);

  // Reload restores a verified state.
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);
  EXPECT_TRUE(readback_verify(p.kernel(), Platform32::kIcapRange.base,
                              p.region())
                  .ok);
}

// --- seeded FaultPlan injection + ModuleManager recovery --------------------

fault::FaultSpec spec_of(const char* text) {
  fault::FaultSpec s;
  RTR_CHECK(fault::FaultSpec::parse(text, &s), "bad spec in test");
  return s;
}

// Full-device configuration snapshot of a clean platform after loading
// `id`: the golden state recovery must converge to. Comparing whole-device
// snapshots proves both halves of the recovery invariant at once -- the
// dynamic area matches the golden linker output AND the static region was
// never touched.
template <typename P>
std::vector<std::uint32_t> golden_snapshot(hw::BehaviorId id) {
  P q;
  RTR_CHECK(q.load_module(id).ok, "golden load failed");
  return q.fabric_state().snapshot();
}

TEST(FaultRecovery, IcapBitFlipIsDetectedRetriedAndVerified) {
  PlatformOptions opts;
  opts.fault_plan.add(spec_of("icap:once@20000:1"));
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};

  const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.detected);
  EXPECT_GE(res.retries, 1);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(p.faults()->injected(fault::Site::kIcap), 1);
  EXPECT_GT(res.detected_at, SimTime::zero());
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform32>(hw::kBrightness));
}

TEST(FaultRecovery, BusTransactionFaultIsDetectedAndRecovered) {
  PlatformOptions opts;
  opts.fault_plan.add(spec_of("bus:once@60000:1"));
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};

  const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.detected);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(p.faults()->injected(fault::Site::kBus), 1);
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform32>(hw::kBrightness));
}

TEST(FaultRecovery, StorageFaultWithPinnedWordIsDetectedAndRecovered) {
  fault::FaultSpec s = spec_of("storage:once@0:1");
  s.word = 5000;
  s.mask = 0x0100;
  PlatformOptions opts;
  opts.fault_plan.add(s);
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};

  const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.detected);
  EXPECT_GE(res.retries, 1);
  EXPECT_EQ(p.faults()->injected(fault::Site::kConfigStorage), 1);
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform32>(hw::kBrightness));
}

TEST(FaultRecovery, ReadbackCorruptionTriggersScrubThenVerifies) {
  // The verification hash only covers region rows, so aim the flipped FDRO
  // word at the middle of the hashed window of a covered frame.
  const fabric::DynamicRegion region = fabric::DynamicRegion::xc2vp7_region();
  const auto wpf =
      static_cast<std::uint64_t>(region.device().words_per_frame());
  fault::FaultSpec s = spec_of("readback:once@0:1");
  s.n = 10 * wpf + static_cast<std::uint64_t>(region.first_word()) +
        static_cast<std::uint64_t>(region.word_count()) / 2;
  PlatformOptions opts;
  opts.fault_plan.add(s);
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};

  const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.detected);
  EXPECT_EQ(res.scrubs, 1);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(p.faults()->injected(fault::Site::kReadback), 1);
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform32>(hw::kBrightness));
}

TEST(FaultRecovery, DmaBeatFaultRecoveredThroughTheDmaPath) {
  PlatformOptions opts;
  opts.fault_plan.add(spec_of("dma:once@1500:1"));
  Platform64 p{opts};
  RecoveryPolicy policy;
  policy.verify_after_load = true;
  policy.use_dma = true;
  ModuleManager<Platform64> mgr{p, policy};

  const EnsureStats res = mgr.ensure(hw::kJenkinsHash, 64);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.detected);
  EXPECT_GE(res.retries, 1);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(p.faults()->injected(fault::Site::kDma), 1);
  // The DMA-loaded fabric must equal a clean PIO load of the same module.
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform64>(hw::kJenkinsHash));
}

TEST(FaultRecovery, StickyIcapFaultExhaustsRetriesThenRepairRecovers) {
  PlatformOptions opts;
  opts.fault_plan.add(spec_of("icap:stuck@15000:1"));
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};

  const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.detected);
  EXPECT_EQ(res.attempts, 3);  // default max_attempts
  EXPECT_EQ(res.retries, 2);
  EXPECT_EQ(p.active_module(), nullptr);

  // Fix the part; the very next ensure() succeeds and verifies golden.
  p.faults()->repair_all();
  const EnsureStats again = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform32>(hw::kBrightness));
}

TEST(FaultRecovery, InjectedFaultsBumpTheFabricGeneration) {
  // Generation-tag invariant: any run that detects a fault moves the tag
  // further than a clean run of the same workload -- for storage faults
  // through the extra (failed + retried) stream writes, for readback
  // faults through the explicit bump in the manager's detection path (the
  // corrupted FDRO stream itself never writes config memory).
  auto gen_after = [](const char* spec_text, std::int64_t word) {
    PlatformOptions opts;
    if (spec_text != nullptr) {
      fault::FaultSpec s = spec_of(spec_text);
      if (word >= 0) {
        s.word = word;
        s.mask = 0x0100;
      }
      opts.fault_plan.add(s);
    }
    Platform32 p{opts};
    ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};
    const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
    RTR_CHECK(res.ok, "recovery must converge");
    return std::pair{p.fabric_state().generation(), res.detected};
  };

  const auto [clean_gen, clean_det] = gen_after(nullptr, -1);
  EXPECT_FALSE(clean_det);

  const auto [storage_gen, storage_det] = gen_after("storage:once@0:1", 5000);
  EXPECT_TRUE(storage_det);
  EXPECT_GT(storage_gen, clean_gen);

  const fabric::DynamicRegion region = fabric::DynamicRegion::xc2vp7_region();
  const auto wpf =
      static_cast<std::uint64_t>(region.device().words_per_frame());
  fault::FaultSpec rb = spec_of("readback:once@0:1");
  rb.n = 10u * wpf + static_cast<std::uint64_t>(region.first_word()) +
         static_cast<std::uint64_t>(region.word_count()) / 2;
  PlatformOptions opts;
  opts.fault_plan.add(rb);
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};
  const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.detected);
  EXPECT_GE(res.scrubs, 1);
  EXPECT_GT(p.fabric_state().generation(), clean_gen);
}

TEST(FaultRecovery, PlanCacheStaysCorrectAcrossFaultRecovery) {
  // A fault mid-recovery must not poison memoized plans: after the manager
  // converges, a warmed differential swap still binds the right module.
  fault::FaultSpec s = spec_of("storage:once@0:1");
  s.word = 5000;
  s.mask = 0x0100;
  PlatformOptions opts;
  opts.fault_plan.add(s);
  Platform32 p{opts};
  ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};

  const EnsureStats first = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(first.detected);

  ASSERT_TRUE(mgr.warm(hw::kFade, 32));
  const EnsureStats second = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.used_differential);
  EXPECT_TRUE(second.plan_cached);
  EXPECT_EQ(p.fabric_state().snapshot(),
            golden_snapshot<Platform32>(hw::kFade));
}

TEST(FaultRecovery, SeededInjectionIsDeterministicAcrossRuns) {
  auto run = [] {
    PlatformOptions opts;
    opts.fault_plan.add(spec_of("icap:rand:7"));
    Platform32 p{opts};
    ModuleManager<Platform32> mgr{p, RecoveryPolicy{.verify_after_load = true}};
    const EnsureStats res = mgr.ensure(hw::kBrightness, 32);
    return std::tuple{res.ok, res.retries, res.error,
                      p.faults()->injected(fault::Site::kIcap),
                      p.kernel().now().ps()};
  };
  EXPECT_EQ(run(), run());
}

// --- device-scoped specs + whole-device sites (fleet chaos) ----------------

TEST(FaultSpecDevice, ParseRoundTripsTheOptionalDeviceField) {
  const fault::FaultSpec s = spec_of("fail_stop:stuck@60:7:2");
  EXPECT_EQ(s.site, fault::Site::kFailStop);
  EXPECT_EQ(s.kind, fault::TriggerKind::kStuck);
  EXPECT_EQ(s.n, 60u);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.device, 2);
  EXPECT_EQ(s.to_string(), "fail_stop:stuck@60:7:2");
  // Untargeted specs stay untargeted (and print without the field).
  const fault::FaultSpec u = spec_of("brownout:every@4:1");
  EXPECT_EQ(u.device, -1);
  EXPECT_EQ(u.to_string(), "brownout:every@4:1");
  // Garbage device fields are rejected, not silently dropped.
  fault::FaultSpec out;
  EXPECT_FALSE(fault::FaultSpec::parse("icap:once@5:1:x", &out));
  EXPECT_FALSE(fault::FaultSpec::parse("icap:once@5:1:-2", &out));
  EXPECT_FALSE(fault::FaultSpec::parse("icap:once@5:1:", &out));
}

TEST(FaultSpecDevice, ForDeviceKeepsTargetedAndUntargetedSpecsInOrder) {
  fault::FaultPlan plan;
  plan.add(spec_of("icap:once@10:1"));         // every device
  plan.add(spec_of("fail_stop:stuck@5:1:0"));  // device 0 only
  plan.add(spec_of("bus:once@20:1:1"));        // device 1 only
  const fault::FaultPlan d0 = plan.for_device(0);
  ASSERT_EQ(d0.specs().size(), 2u);
  EXPECT_EQ(d0.specs()[0].site, fault::Site::kIcap);
  EXPECT_EQ(d0.specs()[1].site, fault::Site::kFailStop);
  const fault::FaultPlan d1 = plan.for_device(1);
  ASSERT_EQ(d1.specs().size(), 2u);
  EXPECT_EQ(d1.specs()[1].site, fault::Site::kBus);
  const fault::FaultPlan d2 = plan.for_device(2);
  ASSERT_EQ(d2.specs().size(), 1u);
  EXPECT_EQ(d2.specs()[0].site, fault::Site::kIcap);
}

TEST(FaultDeviceSites, FailStopIsStickyUntilRepaired) {
  fault::FaultPlan plan;
  plan.add(spec_of("fail_stop:stuck@3:1"));
  fault::FaultInjector inj{plan};
  // Opportunities 0..2: the device still accepts dispatches.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(inj.on_dispatch(SimTime::from_us(i)).fail_stop) << i;
  }
  // From the 3rd dispatch on it refuses everything.
  for (int i = 3; i < 8; ++i) {
    EXPECT_TRUE(inj.on_dispatch(SimTime::from_us(i)).fail_stop) << i;
  }
  EXPECT_EQ(inj.injected(fault::Site::kFailStop), 5);
  inj.repair(fault::Site::kFailStop);
  EXPECT_FALSE(inj.on_dispatch(SimTime::from_us(9)).fail_stop);
}

TEST(FaultDeviceSites, NoDeviceSpecsMeansNoDispatchOpportunities) {
  // Byte-compatibility guard: a plan without fail_stop/brownout must not
  // even count dispatch opportunities, so pre-device-fault runs replay
  // bit-identically.
  fault::FaultPlan plan;
  plan.add(spec_of("icap:once@10:1"));
  fault::FaultInjector inj{plan};
  (void)inj.on_dispatch(SimTime::from_us(1));
  (void)inj.on_dispatch(SimTime::from_us(2));
  EXPECT_EQ(inj.opportunities(fault::Site::kFailStop), 0);
  EXPECT_EQ(inj.opportunities(fault::Site::kBrownout), 0);
}

TEST(FaultDeviceSites, BrownoutArmsAFiniteSeededCorruptionBurst) {
  fault::FaultPlan plan;
  plan.add(spec_of("brownout:once@2:5"));
  fault::FaultInjector inj{plan};
  EXPECT_FALSE(inj.on_dispatch(SimTime::from_us(0)).brownout);
  EXPECT_FALSE(inj.on_dispatch(SimTime::from_us(1)).brownout);
  EXPECT_TRUE(inj.on_dispatch(SimTime::from_us(2)).brownout);

  // The burst corrupts exactly one word of each of the next 1..3 staged
  // configurations, then stops.
  const std::vector<std::uint32_t> clean(256, 0xA5A5A5A5u);
  int corrupted = 0;
  for (int load = 0; load < 5; ++load) {
    std::vector<std::uint32_t> words = clean;
    inj.corrupt_staged(words, SimTime::from_us(10 + load));
    int diffs = 0;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i] != clean[i]) ++diffs;
    }
    EXPECT_LE(diffs, 1);
    corrupted += diffs;
    if (load >= 3) EXPECT_EQ(diffs, 0) << "burst must be over by load " << load;
  }
  EXPECT_GE(corrupted, 1);
  EXPECT_LE(corrupted, 3);
  // One injection for the dispatch that armed the burst, one per word.
  EXPECT_EQ(inj.injected(fault::Site::kBrownout),
            static_cast<std::int64_t>(corrupted) + 1);
  // once@: a later dispatch does not re-arm the burst.
  EXPECT_FALSE(inj.on_dispatch(SimTime::from_us(20)).brownout);
}

TEST(FaultDeviceSites, RepairCancelsAnActiveBrownoutBurst) {
  fault::FaultPlan plan;
  plan.add(spec_of("brownout:once@0:3"));
  fault::FaultInjector inj{plan};
  ASSERT_TRUE(inj.on_dispatch(SimTime::from_us(0)).brownout);
  inj.repair(fault::Site::kBrownout);
  std::vector<std::uint32_t> words(64, 0x11111111u);
  const std::vector<std::uint32_t> before = words;
  inj.corrupt_staged(words, SimTime::from_us(1));
  EXPECT_EQ(words, before);
}

TEST(FaultInjection, TraceLoggingObservesBusTraffic) {
  Platform32 p;
  int lines = 0;
  p.sim().logger().set_sink([&](sim::LogLevel, SimTime, const std::string&,
                                const std::string&) { ++lines; });
  p.sim().logger().set_level(sim::LogLevel::kTrace);
  p.cpu().store32(Platform32::kSramRange.base, 1);
  (void)p.cpu().load32(Platform32::kSramRange.base);
  // Each CPU access crosses PLB and OPB: at least four trace lines.
  EXPECT_GE(lines, 4);
}

}  // namespace
}  // namespace rtr
