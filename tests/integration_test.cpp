// End-to-end integration tests: full platforms, timed reconfiguration
// through the ICAP, module binding, and functional equivalence of the
// software kernels, PIO drivers and DMA drivers against the golden
// implementations.
#include <gtest/gtest.h>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

namespace rtr {
namespace {

using apps::BinaryImage;
using apps::GrayImage;
using apps::Pattern8x8;
using bus::Addr;
using sim::SimTime;

// Workload staging addresses (inside external memory, clear of the config
// staging area).
constexpr Addr kA32 = Platform32::kSramRange.base + 0x10000;
constexpr Addr kB32 = Platform32::kSramRange.base + 0x80000;
constexpr Addr kOut32 = Platform32::kSramRange.base + 0x100000;
constexpr Addr kScratch32 = Platform32::kSramRange.base + 0x180000;

constexpr Addr kA64 = Platform64::kDdrRange.base + 0x10000;
constexpr Addr kB64 = Platform64::kDdrRange.base + 0x80000;
constexpr Addr kOut64 = Platform64::kDdrRange.base + 0x100000;
constexpr Addr kStage64 = Platform64::kDdrRange.base + 0x200000;

struct Workloads {
  BinaryImage img = BinaryImage::make(32, 16);
  Pattern8x8 pat{};
  std::vector<std::uint8_t> key;
  GrayImage ga = GrayImage::make(64, 4);
  GrayImage gb = GrayImage::make(64, 4);

  Workloads() {
    sim::Rng rng{77};
    for (auto& w : img.words) w = rng.next_u32();
    for (auto& p : pat) p = rng.next_u8();
    key.resize(100);
    for (auto& b : key) b = rng.next_u8();
    for (auto& p : ga.pixels) p = rng.next_u8();
    for (auto& p : gb.pixels) p = rng.next_u8();
  }
};

// --- platform assembly --------------------------------------------------------

TEST(Platform32Test, TopologyAndResources) {
  Platform32 p;
  const std::string topo = p.topology();
  EXPECT_NE(topo.find("XC2VP7"), std::string::npos);
  EXPECT_NE(topo.find("OPB Dock"), std::string::npos);
  EXPECT_NE(topo.find("200 MHz"), std::string::npos);

  fabric::Resources total;
  for (const auto& row : p.resource_table()) total += row.res;
  total += p.region().resources();
  EXPECT_TRUE(total.fits_in(p.region().device().total_resources()));
  EXPECT_NEAR(p.region().slice_percent(), 25.0, 0.01);
}

TEST(Platform64Test, TopologyAndResources) {
  Platform64 p;
  const std::string topo = p.topology();
  EXPECT_NE(topo.find("XC2VP30"), std::string::npos);
  EXPECT_NE(topo.find("DMA"), std::string::npos);
  EXPECT_NE(topo.find("300 MHz"), std::string::npos);

  fabric::Resources total;
  for (const auto& row : p.resource_table()) total += row.res;
  total += p.region().resources();
  EXPECT_TRUE(total.fits_in(p.region().device().total_resources()));
  EXPECT_NEAR(p.region().slice_percent(), 22.4, 0.05);
  // The 64-bit system's static logic is larger ("the permanent circuits
  // ... are larger and more complex for the second design").
  fabric::Resources static32;
  Platform32 p32;
  for (const auto& row : p32.resource_table()) static32 += row.res;
  fabric::Resources static64;
  for (const auto& row : p.resource_table()) static64 += row.res;
  EXPECT_GT(static64.slices, static32.slices);
}

// --- reconfiguration lifecycle ---------------------------------------------------

TEST(Platform32Test, LoadBindsAndSwaps) {
  Platform32 p;
  EXPECT_EQ(p.active_module(), nullptr);

  const ReconfigStats s1 = p.load_module(hw::kJenkinsHash);
  ASSERT_TRUE(s1.ok) << s1.error;
  ASSERT_NE(p.active_module(), nullptr);
  EXPECT_EQ(p.active_module()->behavior_id(), hw::kJenkinsHash);
  EXPECT_GT(s1.stream_words, 0);
  // Loading ~130 KB a word at a time through the bridge + HWICAP lands in
  // the tens of milliseconds on this system.
  EXPECT_GT(s1.duration(), SimTime::from_ms(5));
  EXPECT_LT(s1.duration(), SimTime::from_ms(100));

  // Swap to another module: previous behaviour fully replaced.
  const ReconfigStats s2 = p.load_module(hw::kBrightness);
  ASSERT_TRUE(s2.ok) << s2.error;
  EXPECT_EQ(p.active_module()->behavior_id(), hw::kBrightness);
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kBrightness);
}

TEST(Platform32Test, Sha1DoesNotFit) {
  // Section 4.2: "Our implementation does not fit into the dynamic area of
  // the 32-bit system, so no comparison can be done."
  Platform32 p;
  const ReconfigStats s = p.load_module(hw::kSha1);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("does not fit"), std::string::npos) << s.error;
  EXPECT_EQ(p.active_module(), nullptr);
}

TEST(Platform64Test, Sha1Fits) {
  Platform64 p;
  const ReconfigStats s = p.load_module(hw::kSha1);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_EQ(p.active_module()->behavior_id(), hw::kSha1);
}

TEST(Platform32Test, UnboundDockReadsPoison) {
  Platform32 p;
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 0xDEADBEEFu);
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  p.cpu().store32(Platform32::dock_data(), 1234);
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 1234u);
  p.unload();
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 0xDEADBEEFu);
}

TEST(Platform32Test, ExternalResetPreservesConfiguration) {
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  const auto snapshot_sig = p.region().scan_signature(p.fabric_state());
  p.external_reset();
  // "...without affecting the fabric configuration": the module circuit is
  // still there and still validates.
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), snapshot_sig);
  p.cpu().store32(Platform32::dock_data(), 77);
  EXPECT_EQ(p.cpu().load32(Platform32::dock_data()), 77u);
}

TEST(Platform64Test, ReconfigurationFasterThanOn32) {
  // Same flow, 100 MHz buses and no CPU-side bridge hop for the staging
  // fetches -> loading the (larger) region is still competitive; per-word
  // cost must be clearly lower.
  Platform32 p32;
  Platform64 p64;
  const auto s32 = p32.load_module(hw::kJenkinsHash);
  const auto s64 = p64.load_module(hw::kJenkinsHash);
  ASSERT_TRUE(s32.ok && s64.ok);
  const double per_word_32 =
      s32.duration().us() / static_cast<double>(s32.stream_words);
  const double per_word_64 =
      s64.duration().us() / static_cast<double>(s64.stream_words);
  EXPECT_LT(per_word_64 * 2, per_word_32);
}

// --- software kernels vs golden -----------------------------------------------------

TEST(SwKernels, PatternMatchMatchesGolden) {
  Platform32 p;
  Workloads w;
  apps::store_bytes(p.kernel().cpu().plb(), kA32, apps::to_bytes(w.img));
  std::vector<std::uint8_t> patb(64);
  for (int i = 0; i < 64; ++i) {
    patb[static_cast<std::size_t>(i)] =
        (w.pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
  }
  apps::store_bytes(p.kernel().cpu().plb(), kB32, patb);

  const auto got = apps::sw_pattern_match(p.kernel(), kA32, w.img.width,
                                          w.img.height, kB32);
  const auto want = apps::pattern_match(w.img, w.pat);
  EXPECT_EQ(got.best_count, want.best_count);
  EXPECT_EQ(got.best_row, want.best_row);
  EXPECT_EQ(got.best_col, want.best_col);
  EXPECT_GT(p.kernel().now(), SimTime::zero());
}

/// The fixture's key extended to `len` bytes with further seeded draws.
std::vector<std::uint8_t> long_key(const Workloads& w, std::size_t len) {
  std::vector<std::uint8_t> key = w.key;
  sim::Rng rng{78};
  while (key.size() < len) key.push_back(rng.next_u8());
  return key;
}

TEST(SwKernels, JenkinsMatchesGolden) {
  Platform32 p;
  Workloads w;
  // Every tail length, without and with whole blocks, and the full key.
  const std::vector<std::uint8_t> key = long_key(w, 108);
  apps::store_bytes(p.cpu().plb(), kA32, key);
  std::vector<std::uint32_t> lengths = {
      static_cast<std::uint32_t>(w.key.size())};
  for (std::uint32_t tail = 0; tail < 12; ++tail) {
    lengths.push_back(tail);
    lengths.push_back(96 + tail);
  }
  for (const std::uint32_t len : lengths) {
    EXPECT_EQ(apps::sw_jenkins(p.kernel(), kA32, len),
              apps::jenkins_hash(std::span{key}.first(len)))
        << "len " << len;
  }
}

TEST(SwKernels, Sha1MatchesGolden) {
  Platform64 p;
  Workloads w;
  // len % 64 >= 56 pads into a second block at scratch + 384.
  const std::vector<std::uint8_t> msg = long_key(w, 1024);
  apps::store_bytes(p.cpu().plb(), kA64, msg);
  for (std::uint32_t len :
       {0u, 3u, 55u, 56u, 63u, 64u, 100u, 119u, 120u, 1024u}) {
    const auto got = apps::sw_sha1(p.kernel(), kA64, len, kOut64);
    const auto want = apps::sha1(std::span{msg}.first(len));
    EXPECT_EQ(got, want) << "len " << len;
  }
}

TEST(SwKernels, ImageOpsMatchGolden) {
  Platform32 p;
  Workloads w;
  apps::store_bytes(p.cpu().plb(), kA32, w.ga.pixels);
  apps::store_bytes(p.cpu().plb(), kB32, w.gb.pixels);
  const int n = static_cast<int>(w.ga.size());

  apps::sw_brightness(p.kernel(), kA32, kOut32, n, 40);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut32, w.ga.size()),
            apps::brightness(w.ga, 40).pixels);

  apps::sw_blend(p.kernel(), kA32, kB32, kOut32, n);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut32, w.ga.size()),
            apps::blend_add(w.ga, w.gb).pixels);

  apps::sw_fade(p.kernel(), kA32, kB32, kOut32, n, 77);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut32, w.ga.size()),
            apps::fade(w.ga, w.gb, 77).pixels);
}

// --- PIO hardware drivers vs golden, both platforms --------------------------------

template <typename Platform>
struct PioAddrs;
template <>
struct PioAddrs<Platform32> {
  static constexpr Addr a = kA32, b = kB32, out = kOut32;
  static constexpr Addr dock = Platform32::dock_data();
};
template <>
struct PioAddrs<Platform64> {
  static constexpr Addr a = kA64, b = kB64, out = kOut64;
  static constexpr Addr dock = Platform64::dock_data();
};

template <typename Platform>
class PioDriverTest : public ::testing::Test {};
using BothPlatforms = ::testing::Types<Platform32, Platform64>;
TYPED_TEST_SUITE(PioDriverTest, BothPlatforms);

TYPED_TEST(PioDriverTest, PatternMatch) {
  TypeParam p;
  Workloads w;
  using A = PioAddrs<TypeParam>;
  ASSERT_TRUE(p.load_module(hw::kPatternMatcher).ok);
  apps::store_bytes(p.cpu().plb(), A::a, apps::to_bytes(w.img));
  std::vector<std::uint8_t> patb(64);
  for (int i = 0; i < 64; ++i) {
    patb[static_cast<std::size_t>(i)] =
        (w.pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
  }
  apps::store_bytes(p.cpu().plb(), A::b, patb);
  const auto got = apps::hw_pattern_match_pio(p.kernel(), A::dock, A::a,
                                              w.img.width, w.img.height, A::b);
  const auto want = apps::pattern_match(w.img, w.pat);
  EXPECT_EQ(got.best_count, want.best_count);
  EXPECT_EQ(got.best_row, want.best_row);
  EXPECT_EQ(got.best_col, want.best_col);
}

TYPED_TEST(PioDriverTest, Jenkins) {
  TypeParam p;
  Workloads w;
  using A = PioAddrs<TypeParam>;
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);
  apps::store_bytes(p.cpu().plb(), A::a, w.key);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), A::dock, A::a,
                                 static_cast<std::uint32_t>(w.key.size())),
            apps::jenkins_hash(w.key));
}

TYPED_TEST(PioDriverTest, ImageOps) {
  TypeParam p;
  Workloads w;
  using A = PioAddrs<TypeParam>;
  const int n = static_cast<int>(w.ga.size());
  apps::store_bytes(p.cpu().plb(), A::a, w.ga.pixels);
  apps::store_bytes(p.cpu().plb(), A::b, w.gb.pixels);

  ASSERT_TRUE(p.load_module(hw::kBrightness).ok);
  apps::hw_brightness_pio(p.kernel(), A::dock, A::a, A::out, n, -30);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), A::out, w.ga.size()),
            apps::brightness(w.ga, -30).pixels);

  ASSERT_TRUE(p.load_module(hw::kBlendAdd).ok);
  apps::hw_blend_pio(p.kernel(), A::dock, A::a, A::b, A::out, n);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), A::out, w.ga.size()),
            apps::blend_add(w.ga, w.gb).pixels);

  ASSERT_TRUE(p.load_module(hw::kFade).ok);
  apps::hw_fade_pio(p.kernel(), A::dock, A::a, A::b, A::out, n, 128);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), A::out, w.ga.size()),
            apps::fade(w.ga, w.gb, 128).pixels);
}

TEST(Platform64Pio, Sha1) {
  Platform64 p;
  Workloads w;
  ASSERT_TRUE(p.load_module(hw::kSha1).ok);
  apps::store_bytes(p.cpu().plb(), kA64, w.key);
  const auto got = apps::hw_sha1_pio(p.kernel(), Platform64::dock_data(), kA64,
                                     static_cast<std::uint32_t>(w.key.size()));
  EXPECT_EQ(got, apps::sha1(w.key));
}

// --- DMA drivers vs golden ------------------------------------------------------------

TEST(DmaDrivers, BrightnessMatchesGoldenWithoutPreparation) {
  Platform64 p;
  Workloads w;
  ASSERT_TRUE(p.load_module(hw::kBrightness).ok);
  apps::store_bytes(p.cpu().plb(), kA64, w.ga.pixels);
  const auto stats = apps::hw_brightness_dma(p, kA64, kOut64,
                                             static_cast<int>(w.ga.size()), 25);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, w.ga.size()),
            apps::brightness(w.ga, 25).pixels);
  EXPECT_EQ(stats.data_preparation, SimTime::zero());
  EXPECT_GT(stats.total, SimTime::zero());
  EXPECT_FALSE(p.dock().overflowed());
}

TEST(DmaDrivers, BlendMatchesGoldenWithPreparation) {
  Platform64 p;
  Workloads w;
  ASSERT_TRUE(p.load_module(hw::kBlendAdd).ok);
  apps::store_bytes(p.cpu().plb(), kA64, w.ga.pixels);
  apps::store_bytes(p.cpu().plb(), kB64, w.gb.pixels);
  const auto stats = apps::hw_blend_dma(p, kA64, kB64, kStage64, kOut64,
                                        static_cast<int>(w.ga.size()));
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, w.ga.size()),
            apps::blend_add(w.ga, w.gb).pixels);
  EXPECT_GT(stats.data_preparation, SimTime::zero());
  EXPECT_LT(stats.data_preparation, stats.total);
}

TEST(DmaDrivers, FadeMatchesGolden) {
  Platform64 p;
  Workloads w;
  ASSERT_TRUE(p.load_module(hw::kFade).ok);
  apps::store_bytes(p.cpu().plb(), kA64, w.ga.pixels);
  apps::store_bytes(p.cpu().plb(), kB64, w.gb.pixels);
  const auto stats = apps::hw_fade_dma(p, kA64, kB64, kStage64, kOut64,
                                       static_cast<int>(w.ga.size()), 200);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, w.ga.size()),
            apps::fade(w.ga, w.gb, 200).pixels);
  EXPECT_GT(stats.data_preparation, SimTime::zero());
}

TEST(DmaDrivers, BlockInterleavingRespectsFifoDepth) {
  PlatformOptions opts;
  opts.fifo_depth = 64;  // tiny FIFO: force many blocks
  Platform64 p{opts};
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  std::vector<std::uint8_t> data(64 * 8 * 5);  // 5 blocks
  sim::Rng rng{9};
  for (auto& b : data) b = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kA64, data);
  apps::dma_interleaved_seq(p, kA64, kOut64, static_cast<int>(data.size() / 8));
  EXPECT_FALSE(p.dock().overflowed());
  EXPECT_FALSE(p.dock().underflowed());
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, data.size()), data);
}

// --- transfer loops sanity ------------------------------------------------------------

TEST(TransferLoops, Table2ShapeOn32) {
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  const int n = 512;
  const SimTime w = apps::pio_write_seq(p.kernel(), kA32, Platform32::dock_data(), n);
  const SimTime r = apps::pio_read_seq(p.kernel(), kOut32, Platform32::dock_data(), n);
  const SimTime i = apps::pio_interleaved_seq(p.kernel(), kA32,
                                              Platform32::dock_data(), n);
  // Interleaved does the work of both.
  EXPECT_GT(i, w);
  EXPECT_GT(i, r);
  EXPECT_LT(i, w + r + SimTime::from_us(50));
}

TEST(TransferLoops, Pio64FasterThan32) {
  Platform32 p32;
  Platform64 p64;
  ASSERT_TRUE(p32.load_module(hw::kLoopback).ok);
  ASSERT_TRUE(p64.load_module(hw::kLoopback).ok);
  const int n = 1024;
  const SimTime t32 =
      apps::pio_write_seq(p32.kernel(), kA32, Platform32::dock_data(), n);
  const SimTime t64 =
      apps::pio_write_seq(p64.kernel(), kA64, Platform64::dock_data(), n);
  // Paper: "a decrease in transfer time between 4 and 6 times".
  const double ratio = static_cast<double>(t32.ps()) / static_cast<double>(t64.ps());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 8.0);
}

TEST(TransferLoops, DmaBeatsPioPerByte) {
  Platform64 p;
  ASSERT_TRUE(p.load_module(hw::kSink).ok);
  const int items64 = 2000;
  const SimTime dma = apps::dma_write_seq(p, kA64, items64);
  const SimTime pio =
      apps::pio_write_seq(p.kernel(), kA64, Platform64::dock_data(), items64);
  // DMA moves 8 bytes per item vs 4 for PIO, and bursts besides.
  EXPECT_LT(dma.ps() * 4, pio.ps());
}

}  // namespace
}  // namespace rtr
