// End-to-end integration tests: full platforms, timed reconfiguration
// through the ICAP, module binding, and functional equivalence of the
// software kernels, PIO drivers and DMA drivers against the golden
// implementations.
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "rfc3174.hpp"
#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "serve/batch_exec.hpp"
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

std::string stats_export(Platform& p) {
  std::ostringstream os;
  p.sim().stats().export_json(os);
  return os.str();
}

TEST(Platform32Test, DmaIsATypedError) {
  // A part the spec lacks is never built and registers no stats series.
  Platform64 fresh64;
  EXPECT_EQ(stats_export(fresh64).find("\"dock32."), std::string::npos);
  Platform32 p;
  EXPECT_FALSE(p.has_dma());
  for (const char* series : {"\"dma.", "\"dock64."}) {
    EXPECT_EQ(stats_export(p).find(series), std::string::npos) << series;
  }

  // The DMA loads refuse with a typed error and touch nothing.
  ASSERT_TRUE(p.load_module(hw::kBrightness).ok);
  const SimTime t0 = p.kernel().now();
  const std::uint64_t gen = p.fabric_state().generation();
  hw::HwModule* const bound = p.active_module();
  const std::string stats = stats_export(p);
  const ReconfigStats by_id = p.load_module_dma(hw::kFade);
  PlanCache plans;
  const PlanCache::Plan* plan =
      plans.complete(p.linker(), hw::kFade, p.dock_width(), nullptr, nullptr);
  ASSERT_NE(plan, nullptr);
  const ReconfigStats by_plan = p.load_plan(*plan, 0, /*dma=*/true);
  for (const ReconfigStats& s : {by_id, by_plan}) {
    EXPECT_FALSE(s.ok);
    EXPECT_NE(s.error.find("no DMA engine"), std::string::npos) << s.error;
  }
  // Image batches fall back to per-member execution.
  std::vector<serve::BatchMember> members(2);
  EXPECT_FALSE(serve::exec_image_batch(p, hw::kBrightness, members));
  EXPECT_EQ(p.kernel().now(), t0);
  EXPECT_EQ(p.fabric_state().generation(), gen);
  EXPECT_EQ(p.active_module(), bound);
  EXPECT_EQ(stats_export(p), stats);
  // The brightness circuit still answers on the dock.
  const GrayImage img = GrayImage::make(16, 1);
  apps::store_bytes(p.cpu().plb(), kA32, img.pixels);
  apps::hw_brightness_pio(p.kernel(), p.dock_data(), kA32, kOut32,
                          static_cast<int>(img.pixels.size()), 9);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut32, img.pixels.size()),
            apps::brightness(img, 9).pixels);

  // A manager told to recover through DMA loads through the CPU, exactly
  // as one that was not.
  Platform32 with_dma, without;
  ModuleManager dma_mgr{with_dma, RecoveryPolicy{.use_dma = true}};
  ModuleManager cpu_mgr{without};
  const EnsureStats a = dma_mgr.ensure(hw::kJenkinsHash, 32);
  const EnsureStats b = cpu_mgr.ensure(hw::kJenkinsHash, 32);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.stream_words, b.stream_words);
  EXPECT_EQ(stats_export(with_dma), stats_export(without));
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

/// `check(p, msg, scratch)` on a fresh platform of each system, with the
/// message at its memory base + `msg_offset` and the scratch at base +
/// 0x180000.
template <typename Check>
void on_both_systems(Check&& check, Addr msg_offset = 0x10000) {
  Platform32 p32;
  Platform64 p64;
  for (Platform* p : std::initializer_list<Platform*>{&p32, &p64}) {
    SCOPED_TRACE(p->spec().title);
    const Addr base = p->spec().memory_range.base;
    check(*p, base + msg_offset, base + 0x180000);
  }
}

TEST(SwKernels, Sha1MatchesGolden) {
  Workloads w;
  const std::vector<std::uint8_t> msg = long_key(w, 8192);
  // Every length 0-300 covers every len % 64 and both padding shapes (a
  // tail of 56 or more bytes pads into a second block at scratch + 384)
  // with 0-4 whole blocks; then the serving and table sizes.
  std::vector<std::uint32_t> lengths;
  for (std::uint32_t len = 0; len <= 300; ++len) lengths.push_back(len);
  lengths.push_back(1024);
  lengths.push_back(8192);
  on_both_systems([&](Platform& p, Addr at, Addr scratch) {
    apps::store_bytes(p.cpu().plb(), at, msg);
    for (const std::uint32_t len : lengths) {
      const auto got = apps::sw_sha1(p.kernel(), at, len, scratch);
      ASSERT_EQ(got, apps::sha1(std::span{msg}.first(len))) << "len " << len;
    }
  });
}

TEST(SwKernels, Sha1MatchesRfc3174Vectors) {
  // The million-byte message sits at base + 4 MiB, clear of the scratch.
  on_both_systems(
      [&](Platform& p, Addr at, Addr scratch) {
        for (const test::Sha1Vector& v : test::kRfc3174Vectors) {
          const std::vector<std::uint8_t> msg = v.message();
          apps::store_bytes(p.cpu().plb(), at, msg);
          EXPECT_EQ(apps::sw_sha1(p.kernel(), at,
                                  static_cast<std::uint32_t>(msg.size()),
                                  scratch),
                    v.digest)
              << v.text;
        }
      },
      4u << 20);
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

/// The buffers in external memory, and the dock's data register.
struct PioAddrs {
  explicit PioAddrs(const Platform& p)
      : a(p.spec().memory_range.base + 0x10000),
        b(p.spec().memory_range.base + 0x80000),
        out(p.spec().memory_range.base + 0x100000),
        dock(p.dock_data()) {}
  Addr a, b, out, dock;
};

template <typename P>
class PioDriverTest : public ::testing::Test {};
using BothPlatforms = ::testing::Types<Platform32, Platform64>;
TYPED_TEST_SUITE(PioDriverTest, BothPlatforms);

TYPED_TEST(PioDriverTest, PatternMatch) {
  TypeParam p;
  Workloads w;
  const PioAddrs at{p};
  ASSERT_TRUE(p.load_module(hw::kPatternMatcher).ok);
  apps::store_bytes(p.cpu().plb(), at.a, apps::to_bytes(w.img));
  std::vector<std::uint8_t> patb(64);
  for (int i = 0; i < 64; ++i) {
    patb[static_cast<std::size_t>(i)] =
        (w.pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
  }
  apps::store_bytes(p.cpu().plb(), at.b, patb);
  const auto got = apps::hw_pattern_match_pio(p.kernel(), at.dock, at.a,
                                              w.img.width, w.img.height, at.b);
  const auto want = apps::pattern_match(w.img, w.pat);
  EXPECT_EQ(got.best_count, want.best_count);
  EXPECT_EQ(got.best_row, want.best_row);
  EXPECT_EQ(got.best_col, want.best_col);
}

TYPED_TEST(PioDriverTest, Jenkins) {
  TypeParam p;
  Workloads w;
  const PioAddrs at{p};
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);
  apps::store_bytes(p.cpu().plb(), at.a, w.key);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), at.dock, at.a,
                                 static_cast<std::uint32_t>(w.key.size())),
            apps::jenkins_hash(w.key));
}

TYPED_TEST(PioDriverTest, ImageOps) {
  TypeParam p;
  Workloads w;
  const PioAddrs at{p};
  const int n = static_cast<int>(w.ga.size());
  apps::store_bytes(p.cpu().plb(), at.a, w.ga.pixels);
  apps::store_bytes(p.cpu().plb(), at.b, w.gb.pixels);

  ASSERT_TRUE(p.load_module(hw::kBrightness).ok);
  apps::hw_brightness_pio(p.kernel(), at.dock, at.a, at.out, n, -30);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), at.out, w.ga.size()),
            apps::brightness(w.ga, -30).pixels);

  ASSERT_TRUE(p.load_module(hw::kBlendAdd).ok);
  apps::hw_blend_pio(p.kernel(), at.dock, at.a, at.b, at.out, n);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), at.out, w.ga.size()),
            apps::blend_add(w.ga, w.gb).pixels);

  ASSERT_TRUE(p.load_module(hw::kFade).ok);
  apps::hw_fade_pio(p.kernel(), at.dock, at.a, at.b, at.out, n, 128);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), at.out, w.ga.size()),
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
  EXPECT_FALSE(p.plb_dock().overflowed());
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
  EXPECT_FALSE(p.plb_dock().overflowed());
  EXPECT_FALSE(p.plb_dock().underflowed());
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
