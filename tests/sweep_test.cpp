// Parameterized property sweeps across the measured flows: per-transfer
// costs are size-invariant, task results equal golden across sizes, DMA
// block decomposition is exact for awkward sizes, and the D-cache behaves
// across strides.
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

constexpr Addr kMem32 = Platform32::kSramRange.base + 0x10000;
constexpr Addr kMem64 = Platform64::kDdrRange.base + 0x10000;
constexpr Addr kOut64 = Platform64::kDdrRange.base + 0x400000;

// --- per-transfer cost is independent of sequence length ------------------------

class TransferCounts : public ::testing::TestWithParam<int> {};

TEST_P(TransferCounts, PerTransferCostConstantOn32) {
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  const int n = GetParam();
  const SimTime total =
      apps::pio_write_seq(p.kernel(), kMem32, Platform32::dock_data(), n);
  const double per = static_cast<double>(total.ps()) / n;
  // Reference: a large sequence.
  Platform32 q;
  ASSERT_TRUE(q.load_module(hw::kLoopback).ok);
  const SimTime big =
      apps::pio_write_seq(q.kernel(), kMem32, Platform32::dock_data(), 4096);
  const double per_big = static_cast<double>(big.ps()) / 4096;
  EXPECT_NEAR(per / per_big, 1.0, 0.05) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferCounts,
                         ::testing::Values(64, 256, 1024, 2048));

// --- DMA handles awkward block sizes exactly ---------------------------------------

class DmaSizes : public ::testing::TestWithParam<int> {};

TEST_P(DmaSizes, InterleavedRoundTripsExactly) {
  PlatformOptions opts;
  opts.fifo_depth = 100;  // deliberately not a power of two
  Platform64 p{opts};
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  const int items = GetParam();
  const auto data = [&] {
    sim::Rng rng{static_cast<std::uint64_t>(items)};
    std::vector<std::uint8_t> d(static_cast<std::size_t>(items) * 8);
    for (auto& b : d) b = rng.next_u8();
    return d;
  }();
  apps::store_bytes(p.cpu().plb(), kMem64, data);
  apps::dma_interleaved_seq(p, kMem64, kOut64, items);
  EXPECT_FALSE(p.plb_dock().overflowed());
  EXPECT_FALSE(p.plb_dock().underflowed());
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DmaSizes,
                         ::testing::Values(1, 99, 100, 101, 250, 1000));

// --- image tasks equal golden across sizes and parameters ----------------------------

class ImageParams
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ImageParams, BrightnessPioEqualsGoldenOn32) {
  const auto [w, h, delta] = GetParam();
  Platform32 p;
  ASSERT_TRUE(p.load_module(hw::kBrightness).ok);
  sim::Rng rng{static_cast<std::uint64_t>(w * h + delta)};
  apps::GrayImage img = apps::GrayImage::make(w, h);
  for (auto& px : img.pixels) px = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kMem32, img.pixels);
  const Addr out = kMem32 + 0x100000;
  apps::hw_brightness_pio(p.kernel(), Platform32::dock_data(), kMem32, out,
                          static_cast<int>(img.size()), delta);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), out, img.size()),
            apps::brightness(img, delta).pixels);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ImageParams,
    ::testing::Values(std::tuple{16, 4, 100}, std::tuple{64, 32, -128},
                      std::tuple{128, 8, 255}, std::tuple{32, 32, -255},
                      std::tuple{256, 2, 0}));

// --- fade factors sweep through both paths ---------------------------------------------

class FadeFactors : public ::testing::TestWithParam<int> {};

TEST_P(FadeFactors, DmaFadeEqualsGolden) {
  const int f = GetParam();
  Platform64 p;
  ASSERT_TRUE(p.load_module(hw::kFade).ok);
  sim::Rng rng{static_cast<std::uint64_t>(f) + 1};
  apps::GrayImage a = apps::GrayImage::make(64, 8);
  apps::GrayImage b = apps::GrayImage::make(64, 8);
  for (auto& px : a.pixels) px = rng.next_u8();
  for (auto& px : b.pixels) px = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kMem64, a.pixels);
  apps::store_bytes(p.cpu().plb(), kMem64 + 0x10000, b.pixels);
  apps::hw_fade_dma(p, kMem64, kMem64 + 0x10000, kMem64 + 0x20000, kOut64,
                    static_cast<int>(a.size()), f);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, a.size()),
            apps::fade(a, b, f).pixels);
}

INSTANTIATE_TEST_SUITE_P(Factors, FadeFactors,
                         ::testing::Values(0, 1, 64, 128, 255, 256));

// --- hash flows across key sizes ------------------------------------------------------------

class KeySizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KeySizes, SwAndHwAgreeWithGoldenOn64) {
  const std::uint32_t len = GetParam();
  sim::Rng rng{len + 7};
  std::vector<std::uint8_t> key(len);
  for (auto& b : key) b = rng.next_u8();

  Platform64 p;
  ASSERT_TRUE(p.load_module(hw::kJenkinsHash).ok);
  apps::store_bytes(p.cpu().plb(), kMem64, key);
  const std::uint32_t want = apps::jenkins_hash(key);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), Platform64::dock_data(), kMem64,
                                 len),
            want);
  EXPECT_EQ(apps::sw_jenkins(p.kernel(), kMem64, len), want);
}

INSTANTIATE_TEST_SUITE_P(Lengths, KeySizes,
                         ::testing::Values(0u, 1u, 11u, 12u, 13u, 23u, 24u,
                                           255u, 4096u));

// --- cache behaviour across strides (with the cache enabled) -------------------------------

class CacheStrides : public ::testing::TestWithParam<int> {};

TEST_P(CacheStrides, HitRateMatchesStride) {
  PlatformOptions opts;
  opts.enable_dcache = true;
  Platform64 p{opts};
  const int stride = GetParam();
  const int accesses = 1024;
  for (int i = 0; i < accesses; ++i) {
    (void)p.cpu().load32(kMem64 + static_cast<Addr>(i) * static_cast<Addr>(stride));
  }
  const auto& c = p.cpu().dcache();
  const double miss_rate = static_cast<double>(c.misses()) / accesses;
  if (stride >= 32) {
    EXPECT_NEAR(miss_rate, 1.0, 0.02);  // every access a new line
  } else {
    EXPECT_NEAR(miss_rate, stride / 32.0, 0.02);  // one miss per line
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, CacheStrides,
                         ::testing::Values(4, 8, 16, 32, 64));

}  // namespace
}  // namespace rtr
