// Additional coverage: software kernels under the enabled D-cache (results
// must stay golden-exact while timing changes), cache line fills through
// the PLB-OPB bridge, BitLinker placement sweeps, and the structural
// reports of the 64-bit system with two dynamic areas.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

constexpr Addr kA = Platform32::kSramRange.base + 0x10000;
constexpr Addr kB = Platform32::kSramRange.base + 0x80000;
constexpr Addr kOut = Platform32::kSramRange.base + 0x100000;
constexpr Addr kScratch = Platform32::kSramRange.base + 0x180000;

// --- cached software keeps functional equivalence --------------------------------

TEST(CachedSoftware, KernelsStayGoldenExactWithDcacheOn) {
  PlatformOptions opts;
  opts.enable_dcache = true;
  Platform32 p{opts};
  sim::Rng rng{61};

  // Jenkins.
  std::vector<std::uint8_t> key(500);
  for (auto& b : key) b = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kA, key);
  EXPECT_EQ(apps::sw_jenkins(p.kernel(), kA, 500), apps::jenkins_hash(key));

  // SHA-1 (the W[] schedule lives in cached memory).
  std::vector<std::uint8_t> msg(129);
  for (auto& b : msg) b = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kA, msg);
  EXPECT_EQ(apps::sw_sha1(p.kernel(), kA, 129, kScratch), apps::sha1(msg));

  // Fade; the result must reach memory even while lines sit dirty, because
  // the cache model writes functionally through (timing-only dirtiness).
  apps::GrayImage a = apps::GrayImage::make(64, 4);
  apps::GrayImage b = apps::GrayImage::make(64, 4);
  for (auto& px : a.pixels) px = rng.next_u8();
  for (auto& px : b.pixels) px = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kA, a.pixels);
  apps::store_bytes(p.cpu().plb(), kB, b.pixels);
  apps::sw_fade(p.kernel(), kA, kB, kOut, static_cast<int>(a.size()), 99);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut, a.size()),
            apps::fade(a, b, 99).pixels);
}

TEST(CachedSoftware, CacheChangesTimingNotResults) {
  std::vector<std::uint8_t> key(2048, 0x5C);
  SimTime uncached, cached;
  std::uint32_t h1 = 0, h2 = 0;
  {
    Platform32 p;
    apps::store_bytes(p.cpu().plb(), kA, key);
    const auto t0 = p.kernel().now();
    h1 = apps::sw_jenkins(p.kernel(), kA, 2048);
    uncached = p.kernel().now() - t0;
  }
  {
    PlatformOptions opts;
    opts.enable_dcache = true;
    Platform32 p{opts};
    apps::store_bytes(p.cpu().plb(), kA, key);
    const auto t0 = p.kernel().now();
    h2 = apps::sw_jenkins(p.kernel(), kA, 2048);
    cached = p.kernel().now() - t0;
  }
  EXPECT_EQ(h1, h2);
  EXPECT_LT(cached, uncached);
}

TEST(CachedSoftware, LineFillsCrossTheBridgeOn32) {
  // On the 32-bit system cacheable memory sits behind the bridge: a miss
  // costs a 4-beat 64-bit burst, each beat split into two OPB reads.
  PlatformOptions opts;
  opts.enable_dcache = true;
  Platform32 p{opts};
  const auto opb_before = p.sim().stats().counter("OPB.transactions").value();
  (void)p.cpu().load32(kA);  // one miss: 32-byte line = 4 beats = 8 OPB reads
  const auto opb_after = p.sim().stats().counter("OPB.transactions").value();
  EXPECT_EQ(opb_after - opb_before, 8);
  // Subsequent hits in the same line cost nothing on the OPB.
  (void)p.cpu().load32(kA + 4);
  EXPECT_EQ(p.sim().stats().counter("OPB.transactions").value(), opb_after);
}

// --- BitLinker placement sweep -----------------------------------------------------

class Placements : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Placements, ComponentLoadsAtAnyOffsetThatKeepsTheDockMated) {
  // Only the dock-facing macros pin the component; a second macro-free
  // filler component can sit anywhere that fits.
  const auto [row_off, col_off] = GetParam();
  Platform32 p;
  bitlinker::ComponentDescriptor front = hw::component_for(hw::kBrightness, 32);
  bitlinker::ComponentDescriptor filler;
  filler.name = "filler";
  filler.rows = 3;
  filler.cols = 4;
  filler.logic = fabric::Resources{20, 40, 30, 0};

  bitlinker::LinkJob job;
  job.parts.push_back({&front, {0, 0}});
  job.parts.push_back({&filler, {row_off, col_off}});
  job.behavior_id = hw::kBrightness;
  const auto r = p.linker().link(job);
  ASSERT_TRUE(r.ok()) << r.errors.front();
  EXPECT_TRUE(r.config->is_complete_for(p.region()));

  // Loading the assembled configuration binds and works.
  const auto s = p.load_config(*r.config);
  ASSERT_TRUE(s.ok) << s.error;
  p.cpu().store32(Platform32::dock_data() + 0x20, 10);  // control: delta
  p.cpu().store32(Platform32::dock_data(), 0x04030201);
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 0x0E0D0C0Bu);
}

INSTANTIATE_TEST_SUITE_P(Grid, Placements,
                         ::testing::Values(std::tuple{0, 6}, std::tuple{8, 0},
                                           std::tuple{8, 24}, std::tuple{3, 10},
                                           std::tuple{0, 24}));

TEST(Placement, OutOfRegionOffsetRejected) {
  Platform32 p;
  bitlinker::ComponentDescriptor filler;
  filler.name = "filler";
  filler.rows = 3;
  filler.cols = 4;
  filler.logic = fabric::Resources{20, 40, 30, 0};
  bitlinker::ComponentDescriptor front = hw::component_for(hw::kBrightness, 32);
  bitlinker::LinkJob job;
  job.parts.push_back({&front, {0, 0}});
  job.parts.push_back({&filler, {9, 0}});  // rows 9..12 > region's 11
  job.behavior_id = hw::kBrightness;
  EXPECT_FALSE(p.linker().link(job).ok());
}

// --- two-area platform structure -------------------------------------------------------

Platform64 two_area_platform() {
  PlatformOptions o;
  o.dynamic_areas = 2;
  return Platform64{o};
}

TEST(DualPlatform, TopologyListsBothRegions) {
  const std::string topo = two_area_platform().topology();
  EXPECT_NE(topo.find("dynamic area (dyn64)"), std::string::npos) << topo;
  EXPECT_NE(topo.find("dynamic area (dyn64b)"), std::string::npos) << topo;
  // One dock serves both areas.
  EXPECT_EQ(topo.find("PLB Dock"), topo.rfind("PLB Dock")) << topo;
}

TEST(DualPlatform, RegionsPlusStaticFitTheDevice) {
  Platform64 p = two_area_platform();
  const auto total = p.region(0).resources() + p.region(1).resources();
  EXPECT_TRUE(total.fits_in(fabric::Device::xc2vp30().total_resources()));
  EXPECT_EQ(p.region(0).bram_blocks() + p.region(1).bram_blocks(), 32);
}

TEST(DualPlatform, InvalidRegionIndexAborts) {
  Platform64 p = two_area_platform();
  EXPECT_DEATH((void)p.region(2), "bad area index");
  EXPECT_DEATH((void)p.load_module(hw::kLoopback, 2), "bad area index");
}

// --- cross-domain timing property -------------------------------------------------------

TEST(CrossDomain, CpuEdgesNeverPrecedeBusCompletion) {
  // Every uncached access must leave the CPU at or after the bus-reported
  // completion time, aligned to its own clock.
  Platform64 p;
  sim::Rng rng{71};
  for (int i = 0; i < 50; ++i) {
    const Addr a = Platform64::kDdrRange.base + (rng.below(4096) & ~3ull);
    const SimTime before = p.cpu().now();
    (void)p.cpu().load32(a);
    const SimTime after = p.cpu().now();
    ASSERT_GT(after, before);
    // 8 PLB cycles (arb+addr+wait+data+completion), never less.
    ASSERT_GE((after - before).ps(), 8 * 10000);
  }
}

}  // namespace
}  // namespace rtr
