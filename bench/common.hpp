// Shared workload builders and staging addresses for the bench binaries.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

namespace rtr::bench {

// Workload staging (clear of the config staging area in both maps).
inline constexpr bus::Addr kA32 = Platform32::kSramRange.base + 0x0010'0000;
inline constexpr bus::Addr kB32 = Platform32::kSramRange.base + 0x0060'0000;
inline constexpr bus::Addr kOut32 = Platform32::kSramRange.base + 0x00B0'0000;
inline constexpr bus::Addr kScratch32 = Platform32::kSramRange.base + 0x0100'0000;

inline constexpr bus::Addr kA64 = Platform64::kDdrRange.base + 0x0010'0000;
inline constexpr bus::Addr kB64 = Platform64::kDdrRange.base + 0x0400'0000;
inline constexpr bus::Addr kOut64 = Platform64::kDdrRange.base + 0x0800'0000;
inline constexpr bus::Addr kStage64 = Platform64::kDdrRange.base + 0x0C00'0000;
inline constexpr bus::Addr kScratch64 = Platform64::kDdrRange.base + 0x1000'0000;

/// Random bilevel image with the pattern embedded at a known position.
struct PatternWorkload {
  apps::BinaryImage img;
  apps::Pattern8x8 pat;
  int embedded_row;
  int embedded_col;
};

inline PatternWorkload make_pattern_workload(int w, int h,
                                             std::uint64_t seed = 1) {
  sim::Rng rng{seed};
  PatternWorkload wl{apps::BinaryImage::make(w, h), {}, 0, 0};
  for (auto& word : wl.img.words) word = rng.next_u32() & rng.next_u32();
  for (auto& row : wl.pat) row = rng.next_u8();
  wl.embedded_row = static_cast<int>(rng.below(static_cast<std::uint64_t>(h - 8)));
  wl.embedded_col = static_cast<int>(rng.below(static_cast<std::uint64_t>(w - 8)));
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      wl.img.set(wl.embedded_row + r, wl.embedded_col + c,
                 (wl.pat[static_cast<std::size_t>(r)] >> c) & 1);
    }
  }
  return wl;
}

/// Byte-per-pixel pattern (64 bytes) for the software baseline's layout.
inline std::vector<std::uint8_t> pattern_bytes(const apps::Pattern8x8& pat) {
  std::vector<std::uint8_t> out(64);
  for (int i = 0; i < 64; ++i) {
    out[static_cast<std::size_t>(i)] =
        (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
  }
  return out;
}

inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint64_t seed = 2) {
  sim::Rng rng{seed};
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = rng.next_u8();
  return out;
}

inline apps::GrayImage random_gray(int w, int h, std::uint64_t seed = 3) {
  sim::Rng rng{seed};
  apps::GrayImage img = apps::GrayImage::make(w, h);
  for (auto& p : img.pixels) p = rng.next_u8();
  return img;
}

/// Abort-on-failure module load for bench setup.
inline void must_load(Platform& p, hw::BehaviorId id) {
  const ReconfigStats s = p.load_module(id);
  RTR_CHECK(s.ok, "bench module load failed");
}

}  // namespace rtr::bench
