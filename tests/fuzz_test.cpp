// Stateful fuzzing: long random sequences of reconfigurations and task
// executions on one platform instance, verifying every result against the
// golden implementations and every invariant (monotonic time, no FIFO
// violations, valid signatures) along the way.
#include <gtest/gtest.h>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "hw/hash_units.hpp"
#include "rtr/platform.hpp"
#include "rtr/readback.hpp"
#include "sim/random.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

constexpr Addr kIn64 = Platform64::kDdrRange.base + 0x10000;
constexpr Addr kOut64 = Platform64::kDdrRange.base + 0x100000;

/// The fuzz buffers in external memory, and the dock's data register.
struct FuzzAddrs {
  explicit FuzzAddrs(const Platform& p)
      : in(p.spec().memory_range.base + 0x10000),
        in_b(p.spec().memory_range.base + 0x80000),
        out(p.spec().memory_range.base + 0x100000),
        dock(p.dock_data()) {}
  Addr in, in_b, out, dock;
};

/// One random task round against the currently loaded module. Returns the
/// behaviour the round needs loaded.
void run_task(Platform& p, hw::BehaviorId id, sim::Rng& rng) {
  const FuzzAddrs addr{p};
  cpu::Kernel& k = p.kernel();
  switch (id) {
    case hw::kJenkinsHash: {
      std::vector<std::uint8_t> key(1 + rng.below(200));
      for (auto& b : key) b = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), addr.in, key);
      ASSERT_EQ(apps::hw_jenkins_pio(k, addr.dock, addr.in,
                                     static_cast<std::uint32_t>(key.size())),
                apps::jenkins_hash(key));
      break;
    }
    case hw::kBrightness: {
      const int n = 4 * static_cast<int>(1 + rng.below(64));
      std::vector<std::uint8_t> px(static_cast<std::size_t>(n));
      for (auto& b : px) b = rng.next_u8();
      const int delta = static_cast<int>(rng.below(511)) - 255;
      apps::store_bytes(p.cpu().plb(), addr.in, px);
      apps::hw_brightness_pio(k, addr.dock, addr.in, addr.out, n, delta);
      apps::GrayImage img{n, 1, px};
      ASSERT_EQ(apps::fetch_bytes(p.cpu().plb(), addr.out, px.size()),
                apps::brightness(img, delta).pixels);
      break;
    }
    case hw::kBlendAdd:
    case hw::kFade: {
      const int n = 4 * static_cast<int>(1 + rng.below(64));
      apps::GrayImage a{n, 1, {}};
      apps::GrayImage b{n, 1, {}};
      a.pixels.resize(static_cast<std::size_t>(n));
      b.pixels.resize(static_cast<std::size_t>(n));
      for (auto& x : a.pixels) x = rng.next_u8();
      for (auto& x : b.pixels) x = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), addr.in, a.pixels);
      apps::store_bytes(p.cpu().plb(), addr.in_b, b.pixels);
      if (id == hw::kBlendAdd) {
        apps::hw_blend_pio(k, addr.dock, addr.in, addr.in_b, addr.out, n);
        ASSERT_EQ(apps::fetch_bytes(p.cpu().plb(), addr.out, a.pixels.size()),
                  apps::blend_add(a, b).pixels);
      } else {
        const int f = static_cast<int>(rng.below(257));
        apps::hw_fade_pio(k, addr.dock, addr.in, addr.in_b, addr.out, n, f);
        ASSERT_EQ(apps::fetch_bytes(p.cpu().plb(), addr.out, a.pixels.size()),
                  apps::fade(a, b, f).pixels);
      }
      break;
    }
    case hw::kPatternMatcher: {
      const int w = 4 * static_cast<int>(3 + rng.below(10));
      const int h = 8 + static_cast<int>(rng.below(24));
      apps::BinaryImage img = apps::BinaryImage::make(w, h);
      for (auto& word : img.words) word = rng.next_u32();
      apps::Pattern8x8 pat;
      for (auto& row : pat) row = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), addr.in, apps::to_bytes(img));
      std::vector<std::uint8_t> pb(64);
      for (int i = 0; i < 64; ++i) {
        pb[static_cast<std::size_t>(i)] =
            (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
      }
      apps::store_bytes(p.cpu().plb(), addr.in_b, pb);
      const auto got =
          apps::hw_pattern_match_pio(k, addr.dock, addr.in, w, h, addr.in_b);
      const auto want = apps::pattern_match(img, pat);
      ASSERT_EQ(got.best_count, want.best_count);
      ASSERT_EQ(got.best_row, want.best_row);
      ASSERT_EQ(got.best_col, want.best_col);
      break;
    }
    default:
      FAIL() << "unexpected behaviour in fuzz";
  }
}

void fuzz_platform(const SystemSpec& spec, std::uint64_t seed, int rounds) {
  sim::Rng rng{seed};
  Platform p{spec};
  const hw::BehaviorId pool[] = {hw::kJenkinsHash, hw::kBrightness,
                                 hw::kBlendAdd, hw::kFade,
                                 hw::kPatternMatcher};
  int loaded = -1;
  SimTime last = p.kernel().now();
  for (int r = 0; r < rounds; ++r) {
    const auto id = pool[rng.below(std::size(pool))];
    // Reload only when the module changes (as a real system would) --
    // about half the rounds reuse the resident module.
    if (loaded != id) {
      const ReconfigStats s = p.load_module(id);
      ASSERT_TRUE(s.ok) << s.error;
      loaded = id;
      // Signature must always match the resident module.
      ASSERT_EQ(p.region().scan_signature(p.fabric_state()), id);
    }
    run_task(p, id, rng);
    // Time is strictly monotonic across rounds.
    ASSERT_GT(p.kernel().now(), last);
    last = p.kernel().now();
  }
}

TEST(Fuzz, RandomModuleSequencesOn32) {
  fuzz_platform(SystemSpec::k32, 1001, 30);
}
TEST(Fuzz, RandomModuleSequencesOn32B) {
  fuzz_platform(SystemSpec::k32, 2002, 30);
}
TEST(Fuzz, RandomModuleSequencesOn64) {
  fuzz_platform(SystemSpec::k64, 3003, 30);
}
TEST(Fuzz, RandomModuleSequencesOn64B) {
  fuzz_platform(SystemSpec::k64, 4004, 30);
}

TEST(Fuzz, RandomDmaBlocksRoundTrip) {
  sim::Rng rng{555};
  PlatformOptions opts;
  opts.fifo_depth = 128;
  Platform64 p{opts};
  ASSERT_TRUE(p.load_module(hw::kLoopback).ok);
  for (int round = 0; round < 12; ++round) {
    const int items = 1 + static_cast<int>(rng.below(700));
    std::vector<std::uint8_t> data(static_cast<std::size_t>(items) * 8);
    for (auto& b : data) b = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), kIn64, data);
    apps::dma_interleaved_seq(p, kIn64, kOut64, items);
    ASSERT_FALSE(p.plb_dock().overflowed());
    ASSERT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, data.size()), data);
  }
}

TEST(Fuzz, DmaLoopbackServedFromSecondArea) {
  // Area 1 hosts the loopback while area 0 keeps another module resident;
  // a DMA chain reaches area 1 through the one dock once it is active.
  PlatformOptions opts;
  opts.dynamic_areas = 2;
  Platform64 p{opts};
  ASSERT_TRUE(p.load_module(hw::kLoopback, 1).ok);
  ASSERT_TRUE(p.load_module(hw::kBrightness, 0).ok);
  p.activate_area(1);
  sim::Rng rng{777};
  std::vector<std::uint8_t> data(256 * 8);
  for (auto& b : data) b = rng.next_u8();
  apps::store_bytes(p.cpu().plb(), kIn64, data);

  const dma::DmaDescriptor chain[2] = {
      {kIn64, Platform64::dock_stream(), data.size(), true, false},
      {Platform64::dock_fifo(), kOut64, data.size(), false, true},
  };
  const SimTime done = p.dma().run_chain(chain, p.kernel().now());
  p.plb_dock().signal_done(done);
  p.cpu().take_interrupt(p.intc().assertion_time(Platform64::kDockIrq));
  p.intc().clear(Platform64::kDockIrq);
  EXPECT_EQ(apps::fetch_bytes(p.cpu().plb(), kOut64, data.size()), data);
  EXPECT_FALSE(p.plb_dock().overflowed());
  EXPECT_EQ(p.region(0).scan_signature(p.fabric_state()), hw::kBrightness);
}

TEST(Fuzz, MixedWidthStrobesAgreeWithGolden) {
  // The same Jenkins module driven with an arbitrary interleaving of 32-
  // and 64-bit strobes (a 64-bit strobe carries two protocol words).
  sim::Rng rng{888};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::uint8_t> key(1 + rng.below(100));
    for (auto& b : key) b = rng.next_u8();
    std::vector<std::uint32_t> words{static_cast<std::uint32_t>(key.size())};
    for (std::size_t i = 0; i < key.size(); i += 4) {
      std::uint32_t w = 0;
      for (std::size_t j = 0; j < 4 && i + j < key.size(); ++j) {
        w |= std::uint32_t{key[i + j]} << (8 * j);
      }
      words.push_back(w);
    }
    hw::JenkinsHashModule m;
    std::size_t i = 0;
    while (i < words.size()) {
      if (i + 1 < words.size() && rng.next_bool()) {
        m.write_word(words[i] |
                         (static_cast<std::uint64_t>(words[i + 1]) << 32),
                     64);
        i += 2;
      } else {
        m.write_word(words[i], 32);
        ++i;
      }
    }
    ASSERT_TRUE(m.result_ready());
    ASSERT_EQ(static_cast<std::uint32_t>(m.read_word(32)),
              apps::jenkins_hash(key));
  }
}

}  // namespace
}  // namespace rtr
