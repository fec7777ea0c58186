#include "serve/exec.hpp"

#include <vector>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "serve/batch_exec.hpp"
#include "serve/request.hpp"
#include "sim/random.hpp"

namespace rtr::serve {

namespace {

/// Per-member offset between staging buffers. Serve-layer images are
/// 64x48 = 3072 bytes (two-source prep beats: 6144 bytes), so 16 KiB
/// strides keep even a 64-member batch well inside one staging region
/// (regions are 4 MiB apart, exec.hpp).
constexpr bus::Addr kBatchStride = 0x4000;

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
  ExecResult r;

  switch (id) {
    case hw::kJenkinsHash: {
      std::vector<std::uint8_t> msg(tp.bytes);
      for (auto& b : msg) b = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), s.in, msg);
      const std::uint32_t got =
          hw ? apps::hw_jenkins_pio(k, p.dock_data(), s.in, tp.bytes)
             : apps::sw_jenkins(k, s.in, tp.bytes);
      r.ok = true;
      r.digest = fnv1a_u32(got);
      r.golden_ok = got == apps::jenkins_hash(msg);
      return r;
    }
    case hw::kSha1: {
      std::vector<std::uint8_t> msg(tp.bytes);
      for (auto& b : msg) b = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), s.in, msg);
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
      apps::store_bytes(p.cpu().plb(), s.in, apps::to_bytes(img));
      std::vector<std::uint8_t> pb(64);
      for (int i = 0; i < 64; ++i) {
        pb[static_cast<std::size_t>(i)] =
            (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
      }
      apps::store_bytes(p.cpu().plb(), s.in_b, pb);
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
      apps::GrayImage ia = apps::GrayImage::make(tp.img_w, tp.img_h);
      for (auto& px : ia.pixels) px = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), s.in, ia.pixels);
      // The second source is the request's last draw, so brightness, which
      // never reads it, skips it.
      apps::GrayImage ib;
      if (id != hw::kBrightness) {
        ib = apps::GrayImage::make(tp.img_w, tp.img_h);
        for (auto& px : ib.pixels) px = rng.next_u8();
        apps::store_bytes(p.cpu().plb(), s.in_b, ib.pixels);
      }
      std::vector<std::uint8_t> want;
      if (id == hw::kBrightness) {
        want = apps::brightness(ia, 60).pixels;
        if (hw) {
          apps::hw_brightness_pio(k, p.dock_data(), s.in, s.out, n, 60);
        } else {
          apps::sw_brightness(k, s.in, s.out, n, 60);
        }
      } else if (id == hw::kBlendAdd) {
        want = apps::blend_add(ia, ib).pixels;
        if (hw) {
          apps::hw_blend_pio(k, p.dock_data(), s.in, s.in_b, s.out, n);
        } else {
          apps::sw_blend(k, s.in, s.in_b, s.out, n);
        }
      } else {
        want = apps::fade(ia, ib, 160).pixels;
        if (hw) {
          apps::hw_fade_pio(k, p.dock_data(), s.in, s.in_b, s.out, n,
                            160);
        } else {
          apps::sw_fade(k, s.in, s.in_b, s.out, n, 160);
        }
      }
      const auto got = apps::fetch_bytes(p.cpu().plb(), s.out, want.size());
      r.ok = true;
      r.digest = fnv1a(got.data(), got.size());
      r.golden_ok = got == want;
      return r;
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
  const Staging s{p};
  const TaskParams tp = params_for(id);
  const int n = tp.img_w * tp.img_h;
  const bool two_source = id != hw::kBrightness;
  cpu::Kernel& k = p.kernel();

  // Stage every member's seeded input (host-side, zero simulated time,
  // like exec_request) and precompute the golden outputs.
  std::vector<std::vector<std::uint8_t>> want(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    const bus::Addr off = static_cast<bus::Addr>(m) * kBatchStride;
    sim::Rng rng{members[m].input_seed};
    apps::GrayImage ia = apps::GrayImage::make(tp.img_w, tp.img_h);
    for (auto& px : ia.pixels) px = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), s.in + off, ia.pixels);
    apps::GrayImage ib;  // the last draw; brightness has one source
    if (two_source) {
      ib = apps::GrayImage::make(tp.img_w, tp.img_h);
      for (auto& px : ib.pixels) px = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), s.in_b + off, ib.pixels);
    }
    if (id == hw::kBrightness) {
      want[m] = apps::brightness(ia, 60).pixels;
    } else if (id == hw::kBlendAdd) {
      want[m] = apps::blend_add(ia, ib).pixels;
    } else {
      want[m] = apps::fade(ia, ib, 160).pixels;
    }
  }

  // One control write arms the module for the whole batch: the serve
  // layer's task parameters are fixed per behaviour, and each member's
  // beat count is even, so the two-source units' packing phase returns
  // to zero at every member boundary.
  k.call();
  const bus::Addr ctrl = (p.dock_data() & ~bus::Addr{0x3F}) + 0x20;
  if (id == hw::kBrightness) {
    k.sw(ctrl, 60);
  } else if (id == hw::kBlendAdd) {
    k.sw(ctrl, 0);
  } else {
    k.sw(ctrl, 160);
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
    const auto got =
        apps::fetch_bytes(p.cpu().plb(), s.out + off, want[m].size());
    members[m].result.ok = true;
    members[m].result.digest = fnv1a(got.data(), got.size());
    members[m].result.golden_ok = got == want[m];
  }
  return true;
}

}  // namespace rtr::serve
