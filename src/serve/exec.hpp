// Request execution: seeded input staging, hardware (PIO) and software
// (timed kernel) paths, output digest and golden verification.
//
// Inputs are a pure function of (behavior, input_seed), so the hardware
// path and the software kernel -- both functionally exact against the
// golden models -- must produce bit-identical outputs and therefore equal
// FNV digests. That equality is what makes graceful degradation *graceful*:
// a client cannot tell which path served it except by latency.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "serve/request.hpp"
#include "sim/random.hpp"

namespace rtr::serve {

/// Fixed (small) input geometry per behaviour: serve-layer requests model
/// interactive traffic, not the paper's full-size measurement workloads.
struct TaskParams {
  std::uint32_t bytes = 0;  // hash input size
  int img_w = 0, img_h = 0; // image geometry
};

inline TaskParams params_for(hw::BehaviorId id) {
  switch (id) {
    case hw::kJenkinsHash: return {2048, 0, 0};
    case hw::kSha1: return {1024, 0, 0};
    case hw::kPatternMatcher:
    case hw::kPatternMatcherXl: return {0, 64, 48};
    default: return {0, 64, 48};  // grayscale image tasks
  }
}

struct ExecResult {
  bool ok = false;         // the path executed (false: unsupported task)
  std::uint64_t digest = 0;
  bool golden_ok = false;  // output matched the untimed golden model
};

namespace detail {

/// Staging addresses, as laid out by the CLI's task runner: all in external
/// memory, clear of the configuration staging area.
template <typename Platform>
struct Staging {
  static constexpr bus::Addr in = Platform::kConfigStaging - 0x0100'0000;
  static constexpr bus::Addr in_b = Platform::kConfigStaging - 0x00C0'0000;
  static constexpr bus::Addr out = Platform::kConfigStaging - 0x0080'0000;
  static constexpr bus::Addr scratch = Platform::kConfigStaging - 0x0040'0000;
};

inline std::uint64_t digest_sha(const std::array<std::uint32_t, 5>& d) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint32_t w : d) h = fnv1a_u32(w, h);
  return h;
}

inline std::uint64_t digest_match(const apps::MatchResult& m) {
  std::uint64_t h = fnv1a_u32(static_cast<std::uint32_t>(m.best_count));
  h = fnv1a_u32(static_cast<std::uint32_t>(m.best_row), h);
  return fnv1a_u32(static_cast<std::uint32_t>(m.best_col), h);
}

}  // namespace detail

/// Execute one request on the chosen path. `hw` requires the behaviour's
/// module to be resident (bound to the dock) already.
template <typename Platform>
ExecResult exec_request(Platform& p, hw::BehaviorId id, std::uint64_t input_seed,
                        bool hw) {
  using S = detail::Staging<Platform>;
  const TaskParams tp = params_for(id);
  sim::Rng rng{input_seed};
  cpu::Kernel& k = p.kernel();
  ExecResult r;

  switch (id) {
    case hw::kJenkinsHash: {
      std::vector<std::uint8_t> msg(tp.bytes);
      for (auto& b : msg) b = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), S::in, msg);
      const std::uint32_t got =
          hw ? apps::hw_jenkins_pio(k, Platform::dock_data(), S::in, tp.bytes)
             : apps::sw_jenkins(k, S::in, tp.bytes);
      r.ok = true;
      r.digest = fnv1a_u32(got);
      r.golden_ok = got == apps::jenkins_hash(msg);
      return r;
    }
    case hw::kSha1: {
      std::vector<std::uint8_t> msg(tp.bytes);
      for (auto& b : msg) b = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), S::in, msg);
      const auto got =
          hw ? apps::hw_sha1_pio(k, Platform::dock_data(), S::in, tp.bytes)
             : apps::sw_sha1(k, S::in, tp.bytes, S::scratch);
      r.ok = true;
      r.digest = detail::digest_sha(got);
      r.golden_ok = got == apps::sha1(msg);
      return r;
    }
    case hw::kPatternMatcher:
    case hw::kPatternMatcherXl: {
      apps::BinaryImage img = apps::BinaryImage::make(tp.img_w, tp.img_h);
      for (auto& w : img.words) w = rng.next_u32() & rng.next_u32();
      apps::Pattern8x8 pat;
      for (auto& row : pat) row = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), S::in, apps::to_bytes(img));
      std::vector<std::uint8_t> pb(64);
      for (int i = 0; i < 64; ++i) {
        pb[static_cast<std::size_t>(i)] =
            (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
      }
      apps::store_bytes(p.cpu().plb(), S::in_b, pb);
      const apps::MatchResult got =
          hw ? apps::hw_pattern_match_pio(k, Platform::dock_data(), S::in,
                                          tp.img_w, tp.img_h, S::in_b)
             : apps::sw_pattern_match(k, S::in, tp.img_w, tp.img_h, S::in_b);
      const apps::MatchResult want = apps::pattern_match(img, pat);
      r.ok = true;
      r.digest = detail::digest_match(got);
      r.golden_ok = got.best_count == want.best_count &&
                    got.best_row == want.best_row &&
                    got.best_col == want.best_col;
      return r;
    }
    case hw::kBrightness:
    case hw::kBlendAdd:
    case hw::kFade: {
      const int n = tp.img_w * tp.img_h;
      apps::GrayImage ia = apps::GrayImage::make(tp.img_w, tp.img_h);
      for (auto& px : ia.pixels) px = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), S::in, ia.pixels);
      // The second source is the request's last draw, so brightness, which
      // never reads it, skips it.
      apps::GrayImage ib;
      if (id != hw::kBrightness) {
        ib = apps::GrayImage::make(tp.img_w, tp.img_h);
        for (auto& px : ib.pixels) px = rng.next_u8();
        apps::store_bytes(p.cpu().plb(), S::in_b, ib.pixels);
      }
      std::vector<std::uint8_t> want;
      if (id == hw::kBrightness) {
        want = apps::brightness(ia, 60).pixels;
        if (hw) {
          apps::hw_brightness_pio(k, Platform::dock_data(), S::in, S::out, n, 60);
        } else {
          apps::sw_brightness(k, S::in, S::out, n, 60);
        }
      } else if (id == hw::kBlendAdd) {
        want = apps::blend_add(ia, ib).pixels;
        if (hw) {
          apps::hw_blend_pio(k, Platform::dock_data(), S::in, S::in_b, S::out, n);
        } else {
          apps::sw_blend(k, S::in, S::in_b, S::out, n);
        }
      } else {
        want = apps::fade(ia, ib, 160).pixels;
        if (hw) {
          apps::hw_fade_pio(k, Platform::dock_data(), S::in, S::in_b, S::out, n,
                            160);
        } else {
          apps::sw_fade(k, S::in, S::in_b, S::out, n, 160);
        }
      }
      const auto got = apps::fetch_bytes(p.cpu().plb(), S::out, want.size());
      r.ok = true;
      r.digest = fnv1a(got.data(), got.size());
      r.golden_ok = got == want;
      return r;
    }
    default:
      return r;  // loopback/sink: not servable as a task
  }
}

}  // namespace rtr::serve
