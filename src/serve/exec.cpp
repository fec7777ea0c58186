#include "serve/exec.hpp"

#include <array>
#include <cstring>
#include <span>
#include <vector>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "serve/batch_exec.hpp"
#include "serve/request.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"

namespace rtr::serve {

namespace {

/// The serve layer's fixed image-task parameters.
constexpr int kBrightnessDelta = 60;
constexpr int kFadeFactor = 160;

using Image = std::array<std::uint8_t, kImagePixels>;

/// An image request's golden output and its FNV-1a digest.
struct Golden {
  Image want;
  std::uint64_t digest = 0;
};

/// Fill `out` with one draw per byte. The draws run on a local copy of the
/// generator, which the byte stores cannot alias.
void draw(sim::Rng& rng, std::span<std::uint8_t> out) {
  sim::Rng r = rng;
  for (auto& b : out) b = r.next_u8();
  rng = r;
}

/// One pass over an image request's data, in the draw order every path
/// shares: all of `a`, then all of `b`, the request's last draw (brightness
/// never draws it). The last source's loop also computes each golden output
/// pixel with the golden models' per-pixel helpers and steps the FNV-1a
/// digest over it.
void draw_image(hw::BehaviorId id, std::uint64_t seed, Image& a, Image& b,
                Golden& g) {
  sim::Rng r{seed};
  std::uint64_t h = kFnvOffset;
  const auto last_source = [&](Image& src, auto pixel) {
    for (std::size_t i = 0; i < kImagePixels; ++i) {
      const std::uint8_t v = r.next_u8();
      src[i] = v;
      const std::uint8_t w = pixel(i, v);
      g.want[i] = w;
      h = (h ^ w) * kFnvPrime;
    }
  };
  if (id == hw::kBrightness) {
    last_source(a, [](std::size_t, int v) {
      return apps::sat_add(v, kBrightnessDelta);
    });
  } else {
    draw(r, a);
    if (id == hw::kBlendAdd) {
      last_source(b, [&a](std::size_t i, int v) {
        return apps::sat_add(a[i], v);
      });
    } else {
      last_source(b, [&a](std::size_t i, int v) {
        return apps::fade_px(a[i], v, kFadeFactor);
      });
    }
  }
  g.digest = h;
}

/// Read an image request's output back once and check it against the
/// golden one. Equal bytes hash equal, so a passing check reuses the golden
/// digest; a mismatch hashes the device's own bytes.
ExecResult check_output(const bus::Bus& plb, bus::Addr out, const Golden& g) {
  Image got;
  plb.peek_block(out, got);
  ExecResult r;
  r.ok = true;
  r.golden_ok = std::memcmp(got.data(), g.want.data(), got.size()) == 0;
  r.digest = r.golden_ok ? g.digest : fnv1a(got.data(), got.size());
  return r;
}

std::uint64_t digest_sha(const std::array<std::uint32_t, 5>& d) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint32_t w : d) h = fnv1a_u32(w, h);
  return h;
}

std::uint64_t digest_match(const apps::MatchResult& m) {
  std::uint64_t h = fnv1a_u32(static_cast<std::uint32_t>(m.best_count));
  h = fnv1a_u32(static_cast<std::uint32_t>(m.best_row), h);
  return fnv1a_u32(static_cast<std::uint32_t>(m.best_col), h);
}

}  // namespace

ExecResult exec_request(Platform& p, hw::BehaviorId id,
                        std::uint64_t input_seed, bool hw) {
  const Staging s{p};
  const TaskParams tp = params_for(id);
  sim::Rng rng{input_seed};
  cpu::Kernel& k = p.kernel();
  bus::Bus& plb = p.cpu().plb();
  ExecResult r;

  switch (id) {
    case hw::kJenkinsHash: {
      std::array<std::uint8_t, kMaxMessageBytes> buf;
      const std::span<std::uint8_t> msg{buf.data(), tp.bytes};
      draw(rng, msg);
      apps::store_bytes(plb, s.in, msg);
      const std::uint32_t got =
          hw ? apps::hw_jenkins_pio(k, p.dock_data(), s.in, tp.bytes)
             : apps::sw_jenkins(k, s.in, tp.bytes);
      r.ok = true;
      r.digest = fnv1a_u32(got);
      r.golden_ok = got == apps::jenkins_hash(msg);
      return r;
    }
    case hw::kSha1: {
      std::array<std::uint8_t, kMaxMessageBytes> buf;
      const std::span<std::uint8_t> msg{buf.data(), tp.bytes};
      draw(rng, msg);
      apps::store_bytes(plb, s.in, msg);
      const auto got =
          hw ? apps::hw_sha1_pio(k, p.dock_data(), s.in, tp.bytes)
             : apps::sw_sha1(k, s.in, tp.bytes, s.scratch);
      r.ok = true;
      r.digest = digest_sha(got);
      r.golden_ok = got == apps::sha1(msg);
      return r;
    }
    case hw::kPatternMatcher:
    case hw::kPatternMatcherXl: {
      apps::BinaryImage img = apps::BinaryImage::make(tp.img_w, tp.img_h);
      for (auto& w : img.words) w = rng.next_u32() & rng.next_u32();
      apps::Pattern8x8 pat;
      for (auto& row : pat) row = rng.next_u8();
      apps::store_bytes(plb, s.in, apps::to_bytes(img));
      std::array<std::uint8_t, 64> pb;
      for (std::size_t i = 0; i < pb.size(); ++i) {
        pb[i] = (pat[i / 8] >> (i % 8)) & 1;
      }
      apps::store_bytes(plb, s.in_b, pb);
      const apps::MatchResult got =
          hw ? apps::hw_pattern_match_pio(k, p.dock_data(), s.in,
                                          tp.img_w, tp.img_h, s.in_b)
             : apps::sw_pattern_match(k, s.in, tp.img_w, tp.img_h, s.in_b);
      const apps::MatchResult want = apps::pattern_match(img, pat);
      r.ok = true;
      r.digest = digest_match(got);
      r.golden_ok = got.best_count == want.best_count &&
                    got.best_row == want.best_row &&
                    got.best_col == want.best_col;
      return r;
    }
    case hw::kBrightness:
    case hw::kBlendAdd:
    case hw::kFade: {
      const int n = tp.img_w * tp.img_h;
      Image a, b;
      Golden g;
      draw_image(id, input_seed, a, b, g);
      apps::store_bytes(plb, s.in, a);
      if (id != hw::kBrightness) apps::store_bytes(plb, s.in_b, b);
      if (id == hw::kBrightness) {
        if (hw) {
          apps::hw_brightness_pio(k, p.dock_data(), s.in, s.out, n,
                                  kBrightnessDelta);
        } else {
          apps::sw_brightness(k, s.in, s.out, n, kBrightnessDelta);
        }
      } else if (id == hw::kBlendAdd) {
        if (hw) {
          apps::hw_blend_pio(k, p.dock_data(), s.in, s.in_b, s.out, n);
        } else {
          apps::sw_blend(k, s.in, s.in_b, s.out, n);
        }
      } else {
        if (hw) {
          apps::hw_fade_pio(k, p.dock_data(), s.in, s.in_b, s.out, n,
                            kFadeFactor);
        } else {
          apps::sw_fade(k, s.in, s.in_b, s.out, n, kFadeFactor);
        }
      }
      return check_output(plb, s.out, g);
    }
    default:
      return r;  // loopback/sink: not servable as a task
  }
}

bool exec_image_batch(Platform& p, hw::BehaviorId id,
                      std::span<BatchMember> members) {
  if (!p.has_dma() ||
      (id != hw::kBrightness && id != hw::kBlendAdd && id != hw::kFade)) {
    return false;
  }
  RTR_CHECK(members.size() <= kMaxBatchMembers,
            "image batch larger than its staging regions hold");
  const Staging s{p};
  const int n = kImageWidth * kImageHeight;
  const bool two_source = id != hw::kBrightness;
  cpu::Kernel& k = p.kernel();
  bus::Bus& plb = p.cpu().plb();

  // Stage every member's seeded input (host-side, zero simulated time,
  // like exec_request) in the same one pass, keeping each member's golden
  // output and digest for the check after the chain.
  std::vector<Golden> golden(members.size());
  Image a, b;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const bus::Addr off = static_cast<bus::Addr>(m) * kBatchStride;
    draw_image(id, members[m].input_seed, a, b, golden[m]);
    apps::store_bytes(plb, s.in + off, a);
    if (two_source) apps::store_bytes(plb, s.in_b + off, b);
  }

  // One control write arms the module for the whole batch: the serve
  // layer's task parameters are fixed per behaviour, and each member's
  // beat count is even, so the two-source units' packing phase returns
  // to zero at every member boundary.
  k.call();
  const bus::Addr ctrl = (p.dock_data() & ~bus::Addr{0x3F}) + 0x20;
  if (id == hw::kBrightness) {
    k.sw(ctrl, kBrightnessDelta);
  } else if (id == hw::kBlendAdd) {
    k.sw(ctrl, 0);
  } else {
    k.sw(ctrl, kFadeFactor);
  }

  // Two-source members pay the paper's data-preparation cost per member
  // (CPU interleave into the scratch region); then one chain covers all.
  std::vector<apps::SgSeg> segs(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    const bus::Addr off = static_cast<bus::Addr>(m) * kBatchStride;
    if (two_source) {
      apps::dma_prepare_interleave(k, s.in + off, s.in_b + off,
                                   s.scratch + off, n);
      segs[m] = {s.scratch + off, static_cast<std::uint64_t>(n) * 2,
                 s.out + off, static_cast<std::uint64_t>(n)};
    } else {
      segs[m] = {s.in + off, static_cast<std::uint64_t>(n), s.out + off,
                 static_cast<std::uint64_t>(n)};
    }
  }
  apps::hw_sg_batch_dma(p, segs);

  // Per-member verification: a mid-chain fault corrupts specific beats,
  // so only the members whose buffers they landed in fail golden.
  for (std::size_t m = 0; m < members.size(); ++m) {
    const bus::Addr off = static_cast<bus::Addr>(m) * kBatchStride;
    members[m].result = check_output(plb, s.out + off, golden[m]);
  }
  return true;
}

}  // namespace rtr::serve
