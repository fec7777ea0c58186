// Robustness suite: determinism, malformed-input rejection (death tests on
// the always-on invariant checks), protocol-error paths of the ICAP state
// machine, and parameter edge cases across the stack.
#include <gtest/gtest.h>

#include "apps/drivers.hpp"
#include "apps/memio.hpp"
#include "bitstream/partial_config.hpp"
#include "dma/dma.hpp"
#include "fabric/device.hpp"
#include "fabric/dynamic_region.hpp"
#include "fault/fault.hpp"
#include "icap/icap.hpp"
#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

namespace rtr {
namespace {

using bus::Addr;
using fabric::ClbRect;
using fabric::ColumnType;
using fabric::ConfigMemory;
using fabric::Device;
using fabric::DynamicRegion;
using fabric::FrameAddress;
using sim::SimTime;

// --- determinism ------------------------------------------------------------------

TEST(Determinism, IdenticalRunsProduceIdenticalTimes) {
  auto run = [] {
    Platform32 p;
    auto s = p.load_module(hw::kJenkinsHash);
    RTR_CHECK(s.ok, "load failed");
    const auto key = std::vector<std::uint8_t>(333, 0x21);
    apps::store_bytes(p.cpu().plb(), Platform32::kSramRange.base + 0x1000, key);
    apps::hw_jenkins_pio(p.kernel(), Platform32::dock_data(),
                         Platform32::kSramRange.base + 0x1000, 333);
    return std::pair{s.duration().ps(), p.kernel().now().ps()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- malformed bitstreams (offline parser) -------------------------------------------

TEST(ParserRobustness, GarbageBeforeSyncAborts) {
  const std::vector<std::uint32_t> words{0x12345678};
  EXPECT_DEATH((void)bitstream::parse(words, Device::xc2vp7()),
               "garbage before SYNC");
}

TEST(ParserRobustness, MissingSyncAborts) {
  const std::vector<std::uint32_t> words{bitstream::kDummyWord,
                                         bitstream::kDummyWord};
  EXPECT_DEATH((void)bitstream::parse(words, Device::xc2vp7()), "no SYNC");
}

TEST(ParserRobustness, TruncatedPayloadAborts) {
  std::vector<std::uint32_t> words{
      bitstream::kDummyWord, bitstream::kSyncWord,
      bitstream::make_type1(bitstream::Opcode::kWrite,
                            bitstream::ConfigReg::kFar, 1)};
  EXPECT_DEATH((void)bitstream::parse(words, Device::xc2vp7()), "truncated");
}

TEST(ParserRobustness, MissingDesyncAborts) {
  std::vector<std::uint32_t> words{
      bitstream::kDummyWord, bitstream::kSyncWord,
      bitstream::make_type1(bitstream::Opcode::kWrite,
                            bitstream::ConfigReg::kCmd, 1),
      static_cast<std::uint32_t>(bitstream::Command::kRcrc)};
  EXPECT_DEATH((void)bitstream::parse(words, Device::xc2vp7()),
               "without DESYNC");
}

// --- ICAP protocol-error paths (hardware never aborts: it latches error) -------------

struct IcapErr {
  DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory cm{region.device()};
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("icap", sim::Frequency::from_mhz(50));
  icap::IcapController icap{sim, clk, {0x4100'0000, 0x1000}, cm};

  void sync() {
    icap.feed_word(bitstream::kSyncWord);
  }
};

TEST(IcapRobustness, Type2WithoutType1Fails) {
  IcapErr fx;
  fx.sync();
  fx.icap.feed_word(bitstream::make_type2(bitstream::Opcode::kWrite, 42));
  EXPECT_TRUE(fx.icap.error());
}

TEST(IcapRobustness, FdriBeforeFarFails) {
  IcapErr fx;
  fx.sync();
  fx.icap.feed_word(bitstream::make_type1(bitstream::Opcode::kWrite,
                                          bitstream::ConfigReg::kFdri, 1));
  fx.icap.feed_word(0xABCD);
  EXPECT_TRUE(fx.icap.error());
}

TEST(IcapRobustness, UnknownCommandFails) {
  IcapErr fx;
  fx.sync();
  fx.icap.feed_word(bitstream::make_type1(bitstream::Opcode::kWrite,
                                          bitstream::ConfigReg::kCmd, 1));
  fx.icap.feed_word(99);
  EXPECT_TRUE(fx.icap.error());
}

TEST(IcapRobustness, InvalidFarFails) {
  IcapErr fx;
  fx.sync();
  fx.icap.feed_word(bitstream::make_type1(bitstream::Opcode::kWrite,
                                          bitstream::ConfigReg::kFar, 1));
  fx.icap.feed_word(FrameAddress{ColumnType::kClb, 999, 0}.pack());
  EXPECT_TRUE(fx.icap.error());
}

TEST(IcapRobustness, FdroWriteFails) {
  IcapErr fx;
  fx.sync();
  fx.icap.feed_word(bitstream::make_type1(bitstream::Opcode::kWrite,
                                          bitstream::ConfigReg::kFdro, 1));
  fx.icap.feed_word(0);
  EXPECT_TRUE(fx.icap.error());
}

TEST(IcapRobustness, CrcDisabledStreamStillLoads) {
  IcapErr fx;
  // serialize(with_crc=false) replaces the CRC check with an RCRC command.
  ConfigMemory target{fx.region.device()};
  const std::uint32_t one[1] = {7};
  target.write_words(FrameAddress{ColumnType::kClb, 3, 0},
                     fx.region.first_word(), one);
  const auto cfg = bitstream::PartialConfig::diff(ConfigMemory{fx.region.device()},
                                                  target);
  fx.icap.feed(bitstream::serialize(cfg, /*with_crc=*/false));
  EXPECT_TRUE(fx.icap.done());
  EXPECT_EQ(ConfigMemory::diff_frames(fx.cm, target), 0);
}

// --- fault-spec parsing (the CLI's --fault-spec surface) -----------------------------

TEST(FaultSpecParse, AcceptsCanonicalFormsAndRoundTrips) {
  fault::FaultSpec s;
  ASSERT_TRUE(fault::FaultSpec::parse("icap:once@20000:7", &s));
  EXPECT_EQ(s.site, fault::Site::kIcap);
  EXPECT_EQ(s.kind, fault::TriggerKind::kOnce);
  EXPECT_EQ(s.n, 20000u);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.to_string(), "icap:once@20000:7");

  ASSERT_TRUE(fault::FaultSpec::parse("bus:stuck@50:1", &s));
  EXPECT_EQ(s.site, fault::Site::kBus);
  EXPECT_EQ(s.kind, fault::TriggerKind::kStuck);

  ASSERT_TRUE(fault::FaultSpec::parse("storage:every@3:9", &s));
  EXPECT_EQ(s.kind, fault::TriggerKind::kEvery);
  EXPECT_EQ(s.n, 3u);

  ASSERT_TRUE(fault::FaultSpec::parse("dma:rand:42", &s));
  EXPECT_EQ(s.site, fault::Site::kDma);
  EXPECT_EQ(s.kind, fault::TriggerKind::kRand);
  EXPECT_EQ(s.to_string(), "dma:rand:42");
}

TEST(FaultSpecParse, RejectsMalformedSpecsUntouched) {
  const char* bad[] = {
      "",                    // empty
      "icap",                // no trigger, no seed
      "icap:once@5",         // missing seed field
      "icap:rand",           // rand still needs a seed
      "nowhere:once@1:1",    // unknown site
      "ICAP:once@1:1",       // sites are case-sensitive
      "icap:never@1:1",      // unknown trigger kind
      "icap:once:1",         // once/every/stuck need @N
      "icap:once@:1",        // empty opportunity index
      "icap:once@banana:1",  // non-numeric index
      "icap:once@-5:1",      // negative index
      "icap:every@0:1",      // a period of zero never fires
      "icap:once@5:",        // empty seed
      "icap:once@5:12x",     // trailing garbage in the seed
  };
  for (const char* text : bad) {
    fault::FaultSpec s;
    s.n = 123456;  // sentinel: parse failure must leave *out untouched
    EXPECT_FALSE(fault::FaultSpec::parse(text, &s)) << text;
    EXPECT_EQ(s.n, 123456u) << text;
  }
}

// --- recovery-policy edges ------------------------------------------------------------

TEST(ManagerDegrade, RepeatedDiffFailuresDegradeToCompleteOnly) {
  Platform32 p;
  ModuleManager mgr{p};  // default: degrade after 2 failures
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);

  // Rewrite a frame the differentials never touch, behind the manager's
  // back: only the payload-hash gate can catch the stale assumption.
  auto poke = [&p] {
    std::vector<std::uint32_t> junk(
        static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x77777);
    bitstream::PartialConfig rogue{p.region().device()};
    rogue.add_run({FrameAddress{ColumnType::kClb,
                                p.region().rect().col0 + 15, 2},
                   1, junk});
    for (std::uint32_t word : bitstream::serialize(rogue)) {
      p.cpu().store32(Platform32::kIcapRange.base, word);
    }
  };

  poke();
  const auto s1 = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s1.ok) << s1.error;
  EXPECT_TRUE(s1.fell_back);
  EXPECT_FALSE(s1.degraded);
  EXPECT_FALSE(mgr.degraded());

  poke();
  const auto s2 = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(s2.ok) << s2.error;
  EXPECT_TRUE(s2.fell_back);
  EXPECT_TRUE(s2.degraded);  // second consecutive diff failure trips it
  EXPECT_TRUE(mgr.degraded());

  // Degraded: the next swap goes straight to the complete path without
  // even attempting (and paying for) a differential.
  const auto s3 = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s3.ok) << s3.error;
  EXPECT_FALSE(s3.used_differential);
  EXPECT_FALSE(s3.fell_back);
}

TEST(ManagerRetry, SingleAttemptPolicyObservesOneFailure) {
  // Callers that must see a load fail exactly once opt out of retry.
  PlatformOptions opts;
  fault::FaultSpec stuck_storage;
  stuck_storage.site = fault::Site::kConfigStorage;
  stuck_storage.kind = fault::TriggerKind::kStuck;
  stuck_storage.n = 0;
  stuck_storage.word = 5000;
  stuck_storage.mask = 0x0100;
  opts.fault_plan.add(stuck_storage);
  Platform32 p{opts};
  ModuleManager mgr{p, RecoveryPolicy{.max_attempts = 1}};
  const auto res = mgr.ensure(hw::kBrightness, 32);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.detected);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.retries, 0);
}

TEST(ManagerRecoveryEdges, StickyGiveupThenManualReloadAfterRepair) {
  // A stuck fault exhausts every retry: the manager gives up and drops its
  // residency state. After a field repair (repair_all) the SAME manager
  // must come back with a plain ensure() -- give-ups are not terminal.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("icap:stuck@15000:1", &spec));
  PlatformOptions opts;
  opts.fault_plan.add(spec);
  Platform32 p{opts};
  ModuleManager mgr{p};

  const auto fail = mgr.ensure(hw::kBrightness, 32);
  EXPECT_FALSE(fail.ok);
  EXPECT_TRUE(fail.detected);
  EXPECT_EQ(fail.attempts, 3);  // full retry ladder, then give-up
  EXPECT_EQ(mgr.resident(), -1);

  // Still stuck: a second ensure must fail again (the give-up cleared the
  // snapshot, so this is a complete-path retry, not a differential).
  const auto again = mgr.ensure(hw::kBrightness, 32);
  EXPECT_FALSE(again.ok);
  EXPECT_FALSE(again.used_differential);

  p.faults()->repair_all();
  const auto ok = mgr.ensure(hw::kBrightness, 32);
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(mgr.resident(), hw::kBrightness);
  // And the module actually works.
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kBrightness);
}

TEST(ManagerRecoveryEdges, ResetDegradedRestoresTheDifferentialPath) {
  // Degrade the manager to complete-only (two diff failures), then lift it
  // with reset_degraded() -- the hook the serving layer's breaker-close
  // uses -- and check the differential path is genuinely back.
  Platform32 p;
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);

  auto poke = [&p] {
    std::vector<std::uint32_t> junk(
        static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x3A3A3);
    bitstream::PartialConfig rogue{p.region().device()};
    rogue.add_run({FrameAddress{ColumnType::kClb,
                                p.region().rect().col0 + 15, 2},
                   1, junk});
    for (std::uint32_t word : bitstream::serialize(rogue)) {
      p.cpu().store32(Platform32::kIcapRange.base, word);
    }
  };
  poke();
  ASSERT_TRUE(mgr.ensure(hw::kFade, 32).fell_back);
  poke();
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).degraded);
  ASSERT_TRUE(mgr.degraded());

  mgr.reset_degraded();
  EXPECT_FALSE(mgr.degraded());
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.used_differential);  // fast path restored, not just the flag
  EXPECT_FALSE(s.fell_back);
}

TEST(ManagerRecoveryEdges, WatchdogAbortShortCircuitsTheRetryLadder) {
  // With a load deadline armed, a stuck load is aborted mid-stream and the
  // manager must NOT burn the remaining retries: watchdog aborts are
  // immediate give-ups with a typed error.
  fault::FaultSpec spec;
  ASSERT_TRUE(fault::FaultSpec::parse("icap:stuck@15000:1", &spec));
  PlatformOptions opts;
  opts.fault_plan.add(spec);
  Platform32 p{opts};
  ModuleManager mgr{p};

  p.set_load_deadline(p.kernel().now() + SimTime::from_ms(40));
  const auto res = mgr.ensure(hw::kBrightness, 32);
  p.set_load_deadline(SimTime{});
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.watchdog);
  EXPECT_LT(res.attempts, 3);  // the ladder was cut off by the deadline
  EXPECT_NE(res.error.find("watchdog"), std::string::npos) << res.error;
  // The abort left no residual deadline: a healthy reload works.
  p.faults()->repair_all();
  EXPECT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
}

// --- invariant deaths across the stack ---------------------------------------------------

TEST(InvariantDeaths, FullHeightRegionRejected) {
  EXPECT_DEATH(DynamicRegion("bad", Device::xc2vp7(),
                             ClbRect{0, 3, 40, 10}, {}),
               "full device height");
}

TEST(InvariantDeaths, RegionOverPpcHoleRejected) {
  // The XC2VP7 hole is at rows 12..27, cols 4..11.
  EXPECT_DEATH(DynamicRegion("bad", Device::xc2vp7(),
                             ClbRect{10, 3, 8, 10}, {}),
               "PPC core");
}

TEST(InvariantDeaths, FrameRunOffDeviceRejected) {
  bitstream::PartialConfig cfg{Device::xc2vp7()};
  const int wpf = Device::xc2vp7().words_per_frame();
  bitstream::FrameRun run{FrameAddress{ColumnType::kBramContent, 3, 62}, 5,
                          std::vector<std::uint32_t>(static_cast<std::size_t>(5 * wpf))};
  EXPECT_DEATH(cfg.add_run(std::move(run)), "leaves the device");
}

TEST(InvariantDeaths, FrameRunSizeMismatchRejected) {
  bitstream::PartialConfig cfg{Device::xc2vp7()};
  bitstream::FrameRun run{FrameAddress{ColumnType::kClb, 0, 0}, 2,
                          std::vector<std::uint32_t>(10)};
  EXPECT_DEATH(cfg.add_run(std::move(run)), "word count mismatch");
}

TEST(InvariantDeaths, DockRejectsUndefinedRegister) {
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("plb", sim::Frequency::from_mhz(100));
  bus::PlbBus plb{sim, clk};
  dock::PlbDock d{sim, clk, {0x7400'0000, 0x1'0000}};
  plb.attach(d.range(), d);
  EXPECT_DEATH(plb.write(0x7400'0100, 0, 4, SimTime::zero()),
               "undefined PLB dock register");
}

// --- parameter edges ------------------------------------------------------------------------

TEST(ParameterEdges, DmaBurstLengthTradesBusTenure) {
  // Longer bursts amortise the per-burst setup.
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("plb", sim::Frequency::from_mhz(100));
  bus::PlbBus plb{sim, clk};
  mem::MemorySlave ddr = mem::MemorySlave::ddr_on_plb({0x0, 64 << 20}, clk);
  plb.attach(ddr.range(), ddr);

  SimTime with_short, with_long;
  {
    dma::DmaEngine e{sim, plb, dma::DmaParams{.burst_beats = 4}};
    with_short = e.run_one({0x0, 0x100000, 8192}, SimTime::zero());
  }
  {
    dma::DmaEngine e{sim, plb, dma::DmaParams{.burst_beats = 64}};
    with_long = e.run_one({0x0, 0x100000, 8192}, SimTime::zero()) - with_short;
  }
  EXPECT_LT(with_long, with_short);
}

TEST(ParameterEdges, FlushOfEmptyRangeIsFree) {
  Platform64 p;
  const SimTime t0 = p.cpu().now();
  p.cpu().flush_dcache_range(0x1000, 0);
  EXPECT_EQ(p.cpu().now(), t0);
}

TEST(ParameterEdges, SubWordKernelStores) {
  Platform32 p;
  cpu::Kernel& k = p.kernel();
  const Addr base = Platform32::kSramRange.base + 0x500;
  k.stb(base, 0xAB);
  k.sth(base + 2, 0xCDEF);
  EXPECT_EQ(k.lbz(base), 0xAB);
  EXPECT_EQ(k.lhz(base + 2), 0xCDEF);
  EXPECT_EQ(k.lw(base), 0xCDEF00ABu);
}

TEST(ParameterEdges, InterruptKeepsEarliestAssertion) {
  sim::Clock clk{"c", sim::Frequency::from_mhz(100)};
  cpu::InterruptController intc{clk, {0x0, 0x1000}};
  intc.raise(1, SimTime::from_us(10));
  intc.raise(1, SimTime::from_us(5));   // earlier: wins
  intc.raise(1, SimTime::from_us(20));  // later: ignored
  EXPECT_EQ(intc.assertion_time(1), SimTime::from_us(5));
}

}  // namespace
}  // namespace rtr
