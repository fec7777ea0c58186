// Tests for the extension features: ICAP readback (scrubbing), DMA-driven
// reconfiguration, and the XL pattern matcher that exploits the 64-bit
// region's 22 BRAMs.
#include <gtest/gtest.h>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "bitstream/partial_config.hpp"
#include "icap/icap.hpp"
#include "rtr/platform.hpp"
#include "rtr/readback.hpp"
#include "sim/random.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

/// Options for the XC2VP30 with both co-resident dynamic areas.
PlatformOptions two_areas() {
  PlatformOptions o;
  o.dynamic_areas = 2;
  return o;
}

// --- ICAP readback (unit level) ------------------------------------------------

struct ReadbackFixture {
  fabric::DynamicRegion region = fabric::DynamicRegion::xc2vp7_region();
  fabric::ConfigMemory cm{region.device()};
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("icap", sim::Frequency::from_mhz(50));
  icap::IcapController icap{sim, clk, {0x4100'0000, 0x1000}, cm};

  void sync() {
    icap.feed_word(bitstream::kDummyWord);
    icap.feed_word(bitstream::kSyncWord);
  }
  void write_reg(bitstream::ConfigReg reg, std::uint32_t v) {
    icap.feed_word(bitstream::make_type1(bitstream::Opcode::kWrite, reg, 1));
    icap.feed_word(v);
  }
};

TEST(IcapReadback, PopsFrameWordsInOrder) {
  ReadbackFixture fx;
  // Paint a recognisable frame.
  std::vector<std::uint32_t> data(static_cast<std::size_t>(fx.cm.words_per_frame()));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0x1000 + static_cast<std::uint32_t>(i);
  const fabric::FrameAddress a{fabric::ColumnType::kClb, 4, 7};
  fx.cm.write_frame(a, data);

  fx.sync();
  fx.write_reg(bitstream::ConfigReg::kFar, a.pack());
  fx.write_reg(bitstream::ConfigReg::kCmd,
               static_cast<std::uint32_t>(bitstream::Command::kRcfg));
  ASSERT_TRUE(fx.icap.readback_armed());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(fx.icap.readback_word(), data[i]) << i;
  }
  // The FAR auto-advanced: the next word belongs to the following frame.
  EXPECT_EQ(fx.icap.readback_word(), 0u);
  EXPECT_FALSE(fx.icap.error());
}

TEST(IcapReadback, UnarmedReadbackFlagsError) {
  ReadbackFixture fx;
  EXPECT_EQ(fx.icap.readback_word(), 0xBADBADBAu);
  EXPECT_TRUE(fx.icap.error());
}

TEST(IcapReadback, WcfgDisarmsReadback) {
  ReadbackFixture fx;
  fx.sync();
  fx.write_reg(bitstream::ConfigReg::kFar,
               fabric::FrameAddress{fabric::ColumnType::kClb, 0, 0}.pack());
  fx.write_reg(bitstream::ConfigReg::kCmd,
               static_cast<std::uint32_t>(bitstream::Command::kRcfg));
  ASSERT_TRUE(fx.icap.readback_armed());
  fx.write_reg(bitstream::ConfigReg::kCmd,
               static_cast<std::uint32_t>(bitstream::Command::kWcfg));
  EXPECT_FALSE(fx.icap.readback_armed());
}

TEST(IcapReadback, StatusBitReflectsArming) {
  ReadbackFixture fx;
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);
  fx.sync();
  fx.write_reg(bitstream::ConfigReg::kFar,
               fabric::FrameAddress{fabric::ColumnType::kClb, 0, 0}.pack());
  fx.write_reg(bitstream::ConfigReg::kCmd,
               static_cast<std::uint32_t>(bitstream::Command::kRcfg));
  const auto st = opb.read(0x4100'0008, 4, SimTime::zero());
  EXPECT_TRUE(st.data & icap::IcapController::kStatusReadback);
}

// --- full-region readback verification ------------------------------------------

TEST(ReadbackVerify, PassesOnACleanlyLoadedModule) {
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);
  const ReadbackStats s =
      readback_verify(p.kernel(), Platform32::kIcapRange.base, p.region());
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.frames, p.region().covered_frames());
  EXPECT_GT(s.duration, SimTime::from_ms(1));  // a real scrub pass costs time
}

TEST(ReadbackVerify, DetectsARogueFrameWrite) {
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);

  // A rogue (or upset-corrupted) frame inside the region, written through
  // the ICAP like any real corruption would be.
  fabric::ConfigMemory scratch{p.region().device()};
  std::vector<std::uint32_t> junk(static_cast<std::size_t>(scratch.words_per_frame()),
                                  0xEEEEEEEE);
  bitstream::PartialConfig evil{p.region().device()};
  evil.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                     p.region().rect().col0 + 5, 3},
                1, junk});
  for (std::uint32_t w : bitstream::serialize(evil)) {
    p.cpu().store32(Platform32::kIcapRange.base, w);
  }

  const ReadbackStats s =
      readback_verify(p.kernel(), Platform32::kIcapRange.base, p.region());
  EXPECT_FALSE(s.ok);
}

TEST(ReadbackVerify, WorksOnThe64BitSystemToo) {
  Platform64 p;
  ASSERT_TRUE(p.load_module(hw::kBrightness).ok);
  const ReadbackStats s =
      readback_verify(p.kernel(), Platform64::kIcapRange.base, p.region());
  EXPECT_TRUE(s.ok);
}

// --- DMA-driven reconfiguration ----------------------------------------------------

TEST(DmaLoad, LoadsAndBinds) {
  Platform64 p;
  const ReconfigStats s = p.load_module_dma(hw::kJenkinsHash);
  ASSERT_TRUE(s.ok) << s.error;
  ASSERT_NE(p.active_module(), nullptr);
  EXPECT_EQ(p.active_module()->behavior_id(), hw::kJenkinsHash);

  // The module works: hash a key through PIO.
  const auto key = std::vector<std::uint8_t>(64, 0x5A);
  apps::store_bytes(p.cpu().plb(), Platform64::kDdrRange.base + 0x1000, key);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), Platform64::dock_data(),
                                 Platform64::kDdrRange.base + 0x1000, 64),
            apps::jenkins_hash(key));
}

TEST(DmaLoad, FasterThanCpuDrivenLoad) {
  Platform64 a;
  Platform64 b;
  const auto cpu_load = a.load_module(hw::kFade);
  const auto dma_load = b.load_module_dma(hw::kFade);
  ASSERT_TRUE(cpu_load.ok && dma_load.ok);
  // The CPU loop pays a DDR fetch per word; the DMA engine bursts.
  EXPECT_LT(dma_load.duration().ps() * 2, cpu_load.duration().ps());
}

TEST(DmaLoad, StillValidatesBeforeBinding) {
  Platform64 p;
  const ReconfigStats s = p.load_module_dma(hw::kSha1);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kSha1);
}

// --- XL pattern matcher ----------------------------------------------------------------

TEST(PatternXl, OnlyFitsThe64BitRegion) {
  Platform32 p32;
  const auto s32 = p32.load_module(hw::kPatternMatcherXl);
  EXPECT_FALSE(s32.ok);
  Platform64 p64;
  const auto s64 = p64.load_module(hw::kPatternMatcherXl);
  EXPECT_TRUE(s64.ok) << s64.error;
}

TEST(PatternXl, HandlesImagesBeyondTheBaseModuleCapacity) {
  // 384x320 = 122880 pixels: over the base module's 110592-bit buffer,
  // comfortably inside the XL module's 405504 bits.
  const int w = 384, h = 320;
  sim::Rng rng{99};
  apps::BinaryImage img = apps::BinaryImage::make(w, h);
  for (auto& word : img.words) word = rng.next_u32() & rng.next_u32();
  apps::Pattern8x8 pat;
  for (auto& row : pat) row = rng.next_u8();
  const auto img_bytes = apps::to_bytes(img);
  std::vector<std::uint8_t> pat_bytes(64);
  for (int i = 0; i < 64; ++i) {
    pat_bytes[static_cast<std::size_t>(i)] =
        (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
  }
  const Addr img_at = Platform64::kDdrRange.base + 0x10000;
  const Addr pat_at = Platform64::kDdrRange.base + 0x800000;

  // The unmodified module rejects the image (capacity error)...
  {
    Platform64 p;
    ASSERT_TRUE(p.load_module(hw::kPatternMatcher).ok);
    apps::store_bytes(p.cpu().plb(), img_at, img_bytes);
    apps::store_bytes(p.cpu().plb(), pat_at, pat_bytes);
    const auto res = apps::hw_pattern_match_pio(p.kernel(),
                                                Platform64::dock_data(),
                                                img_at, w, h, pat_at);
    EXPECT_LT(res.best_count, 0);  // all reads poison: no valid result
  }
  // ...the XL module matches the golden result.
  {
    Platform64 p;
    ASSERT_TRUE(p.load_module(hw::kPatternMatcherXl).ok);
    apps::store_bytes(p.cpu().plb(), img_at, img_bytes);
    apps::store_bytes(p.cpu().plb(), pat_at, pat_bytes);
    const auto res = apps::hw_pattern_match_pio(p.kernel(),
                                                Platform64::dock_data(),
                                                img_at, w, h, pat_at);
    const auto want = apps::pattern_match(img, pat);
    EXPECT_EQ(res.best_count, want.best_count);
    EXPECT_EQ(res.best_row, want.best_row);
    EXPECT_EQ(res.best_col, want.best_col);
  }
}

TEST(OverlappedDma, BlendMatchesGoldenWithDoubleBuffering) {
  for (bool cached : {false, true}) {
    PlatformOptions opts;
    opts.enable_dcache = cached;
    opts.fifo_depth = 64;  // small blocks: exercise several iterations
    Platform64 p{opts};
    ASSERT_TRUE(p.load_module(hw::kBlendAdd).ok);
    sim::Rng rng{cached ? 10u : 20u};
    apps::GrayImage a = apps::GrayImage::make(128, 8);
    apps::GrayImage b = apps::GrayImage::make(128, 8);
    for (auto& px : a.pixels) px = rng.next_u8();
    for (auto& px : b.pixels) px = rng.next_u8();
    const Addr a_at = Platform64::kDdrRange.base + 0x10000;
    const Addr b_at = Platform64::kDdrRange.base + 0x20000;
    const Addr stage = Platform64::kDdrRange.base + 0x30000;
    const Addr out = Platform64::kDdrRange.base + 0x40000;
    apps::store_bytes(p.cpu().plb(), a_at, a.pixels);
    apps::store_bytes(p.cpu().plb(), b_at, b.pixels);
    const auto stats = apps::hw_blend_dma_overlapped(
        p, a_at, b_at, stage, out, static_cast<int>(a.size()));
    EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), out, a.size()),
              apps::blend_add(a, b).pixels)
        << "cached=" << cached;
    EXPECT_GT(stats.data_preparation, SimTime::zero());
    EXPECT_FALSE(p.dock().overflowed());
  }
}

TEST(PatternXl, RunsInRegion0OfTheDualPlatformWhileRegion1Serves) {
  Platform64 p{two_areas()};
  ASSERT_TRUE(p.load_module(hw::kPatternMatcherXl, 0).ok);
  ASSERT_TRUE(p.load_module(hw::kBrightness, 1).ok);

  const int w = 128, h = 64;
  sim::Rng rng{31};
  apps::BinaryImage img = apps::BinaryImage::make(w, h);
  for (auto& word : img.words) word = rng.next_u32();
  apps::Pattern8x8 pat;
  for (auto& row : pat) row = rng.next_u8();
  const Addr img_at = Platform64::kDdrRange.base + 0x10000;
  const Addr pat_at = Platform64::kDdrRange.base + 0x90000;
  apps::store_bytes(p.cpu().plb(), img_at, apps::to_bytes(img));
  std::vector<std::uint8_t> pb(64);
  for (int i = 0; i < 64; ++i) {
    pb[static_cast<std::size_t>(i)] =
        (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
  }
  apps::store_bytes(p.cpu().plb(), pat_at, pb);
  p.activate_area(0);
  const auto got = apps::hw_pattern_match_pio(
      p.kernel(), Platform64::dock_data(), img_at, w, h, pat_at);
  const auto want = apps::pattern_match(img, pat);
  EXPECT_EQ(got.best_count, want.best_count);

  // Region 1 still serves image work, without a reconfiguration.
  apps::GrayImage g = apps::GrayImage::make(32, 4);
  for (auto& px : g.pixels) px = rng.next_u8();
  const Addr g_at = Platform64::kDdrRange.base + 0xA0000;
  const Addr o_at = Platform64::kDdrRange.base + 0xB0000;
  apps::store_bytes(p.cpu().plb(), g_at, g.pixels);
  p.activate_area(1);
  apps::hw_brightness_pio(p.kernel(), Platform64::dock_data(), g_at, o_at,
                          static_cast<int>(g.size()), -40);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), o_at, g.size()),
            apps::brightness(g, -40).pixels);
}

// --- two separate dynamic areas (section 4.1's suggested alternative) ----------

TEST(DualRegions, SecondRegionIsValidAndDisjoint) {
  const auto a = fabric::DynamicRegion::xc2vp30_region();
  const auto b = fabric::DynamicRegion::xc2vp30_region_b();
  EXPECT_TRUE(a.column_disjoint_with(b));
  EXPECT_TRUE(b.column_disjoint_with(a));
  EXPECT_FALSE(a.column_disjoint_with(a));
  EXPECT_EQ(b.clbs(), 288);
  EXPECT_EQ(b.bram_blocks(), 10);
  // Together the two regions still fit the device with the static system.
  EXPECT_LT(a.slices() + b.slices(),
            fabric::Device::xc2vp30().total_slices());
}

TEST(DualRegions, IndependentLoadAndOperation) {
  Platform64 p{two_areas()};
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash, 0).ok);
  ASSERT_TRUE(p.load_module(hw::kBrightness, 1).ok);
  // Loading region 1 must not disturb region 0's configuration.
  EXPECT_EQ(p.region(0).scan_signature(p.fabric_state()), hw::kJenkinsHash);
  EXPECT_EQ(p.region(1).scan_signature(p.fabric_state()), hw::kBrightness);

  // Both modules stay resident: switching tasks re-binds the dock, it
  // does not reconfigure.
  const auto key = std::vector<std::uint8_t>(128, 0x3C);
  const Addr key_at = Platform64::kDdrRange.base + 0x1000;
  apps::store_bytes(p.cpu().plb(), key_at, key);
  p.activate_area(0);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), Platform64::dock_data(), key_at,
                                 128),
            apps::jenkins_hash(key));

  apps::GrayImage img = apps::GrayImage::make(32, 4);
  sim::Rng rng{4};
  for (auto& px : img.pixels) px = rng.next_u8();
  const Addr img_at = Platform64::kDdrRange.base + 0x2000;
  const Addr out_at = Platform64::kDdrRange.base + 0x3000;
  apps::store_bytes(p.cpu().plb(), img_at, img.pixels);
  p.activate_area(1);
  apps::hw_brightness_pio(p.kernel(), Platform64::dock_data(), img_at, out_at,
                          static_cast<int>(img.size()), 50);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), out_at, img.size()),
            apps::brightness(img, 50).pixels);

  // And hashing still works after the image task: region 0 untouched.
  p.activate_area(0);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), Platform64::dock_data(), key_at,
                                 128),
            apps::jenkins_hash(key));
  EXPECT_EQ(p.region(0).scan_signature(p.fabric_state()), hw::kJenkinsHash);
}

TEST(DualRegions, ReloadingOneRegionKeepsTheOther) {
  Platform64 p{two_areas()};
  ASSERT_TRUE(p.load_module(hw::kFade, 0).ok);
  ASSERT_TRUE(p.load_module(hw::kLoopback, 1).ok);
  ASSERT_TRUE(p.load_module(hw::kBlendAdd, 0).ok);  // swap region 0
  EXPECT_EQ(p.region(0).scan_signature(p.fabric_state()), hw::kBlendAdd);
  EXPECT_EQ(p.region(1).scan_signature(p.fabric_state()), hw::kLoopback);
  p.activate_area(1);
  p.cpu().store32(Platform64::dock_data(), 909);
  EXPECT_EQ(p.cpu().load32(Platform64::dock_data()), 909u);
}

TEST(DualRegions, SmallRegionRejectsWideModules) {
  Platform64 p{two_areas()};
  const auto s = p.load_module(hw::kPatternMatcher, 1);  // 10x22 > 24x12
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("does not fit"), std::string::npos);
  const auto s2 = p.load_module(hw::kSha1, 1);
  EXPECT_FALSE(s2.ok);
}

TEST(DualRegions, FailedLoadIsAccountedLikeEveryOtherLoad) {
  // A load that streams and then fails records its bytes, an RTR span and a
  // reconfig:failed instant, as the single-region platforms' loads do.
  trace::Tracer tr;
  tr.enable();
  PlatformOptions opts = two_areas();
  opts.tracer = &tr;
  Platform64 p{opts};
  fault::FaultSpec corrupt;  // flip bit 8 of staged word 3000: CRC error
  corrupt.site = fault::Site::kConfigStorage;
  corrupt.kind = fault::TriggerKind::kStuck;
  corrupt.word = 3000;
  corrupt.mask = 0x0100;
  fault::FaultPlan plan;
  plan.add(corrupt);
  fault::FaultInjector fi{plan};
  fi.bind(p.sim());
  p.sim().attach_faults(fi);

  const ReconfigStats s = p.load_module(hw::kBrightness, 1);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("CRC"), std::string::npos) << s.error;
  EXPECT_EQ(p.area_module(1), nullptr);
  EXPECT_EQ(p.active_area(), -1);
  EXPECT_EQ(p.sim().stats().counters().at("reconfig.complete_bytes").value(),
            s.config_bytes);
  int spans = 0, failed = 0;
  for (const trace::TraceEvent& e : tr.events()) {
    spans += e.name == "reconfig:complete";
    failed += e.name == "reconfig:failed";
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(failed, 1);
}

TEST(DualRegions, AvoidsSwapReconfigurations) {
  // Alternate two tasks: two areas pay 2 loads total, the single region
  // pays one per switch.
  Platform64 dual{two_areas()};
  ASSERT_TRUE(dual.load_module(hw::kJenkinsHash, 0).ok);
  ASSERT_TRUE(dual.load_module(hw::kBrightness, 1).ok);
  const sim::SimTime after_loads = dual.kernel().now();

  const auto data = std::vector<std::uint8_t>(256, 1);
  const Addr in_at = Platform64::kDdrRange.base + 0x1000;
  const Addr out_at = Platform64::kDdrRange.base + 0x2000;
  apps::store_bytes(dual.cpu().plb(), in_at, data);
  for (int i = 0; i < 4; ++i) {
    dual.activate_area(0);
    apps::hw_jenkins_pio(dual.kernel(), Platform64::dock_data(), in_at, 256);
    dual.activate_area(1);
    apps::hw_brightness_pio(dual.kernel(), Platform64::dock_data(), in_at,
                            out_at, 256, 10);
  }
  const sim::SimTime dual_task_time = dual.kernel().now() - after_loads;

  Platform64 single;
  sim::SimTime single_reconfig;
  for (int i = 0; i < 2; ++i) {
    auto s1 = single.load_module(hw::kJenkinsHash);
    auto s2 = single.load_module(hw::kBrightness);
    ASSERT_TRUE(s1.ok && s2.ok);
    single_reconfig += s1.duration() + s2.duration();
  }
  // Task time is negligible against even one reconfiguration.
  EXPECT_LT(dual_task_time.ps() * 10, single_reconfig.ps());
}

}  // namespace
}  // namespace rtr
