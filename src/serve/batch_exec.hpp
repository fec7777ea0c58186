// Batched request execution: one residency, one scatter-gather chain,
// N buffers (docs/SERVING.md "Batching").
//
// The single-request path (exec.hpp) moves image data by programmed I/O;
// the batched path stages every member's seeded input at a per-member
// offset and submits ONE multi-buffer descriptor chain through the PLB
// dock's DMA engine -- the paper's section 4 block-transfer machinery,
// including its data-preparation cost for two-source tasks. Inputs are the
// same pure function of (behavior, input_seed) as exec_request, and the
// digest is computed over output bytes only, so a batched member's digest
// is bit-identical to the unbatched (PIO or software) path for the same
// request id.
//
// Only the image behaviours on the 64-bit platform stream through the
// chain; hash and pattern-match tasks keep their PIO drivers (their
// register protocols are word-oriented), and the 32-bit platform has no
// DMA engine -- exec_image_batch returns false for those and the server
// falls back to per-member execution, still amortizing the module swap.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "serve/exec.hpp"
#include "serve/request.hpp"
#include "sim/random.hpp"

namespace rtr::serve {

/// One member of a batched execution: seeded like exec_request, verified
/// against the golden model independently, so a fault that corrupts one
/// member's beats degrades only that member.
struct BatchMember {
  std::uint64_t input_seed = 0;
  ExecResult result;
};

namespace detail {
/// Per-member offset between staging buffers. Serve-layer images are
/// 64x48 = 3072 bytes (two-source prep beats: 6144 bytes), so 16 KiB
/// strides keep even a 64-member batch well inside one staging region
/// (regions are 4 MiB apart, exec.hpp).
constexpr bus::Addr kBatchStride = 0x4000;
}  // namespace detail

/// Execute every member of a same-behaviour image batch against the
/// already-resident module as one scatter-gather descriptor chain. Returns
/// false (members untouched, zero simulated time) when this (platform,
/// behaviour) pair cannot batch-stream; true with every member's result
/// filled otherwise.
template <typename Platform>
bool exec_image_batch(Platform& p, hw::BehaviorId id,
                      std::span<BatchMember> members) {
  if constexpr (!std::is_same_v<Platform, Platform64>) {
    (void)p;
    (void)id;
    (void)members;
    return false;
  } else {
    if (id != hw::kBrightness && id != hw::kBlendAdd && id != hw::kFade) {
      return false;
    }
    using S = detail::Staging<Platform>;
    const TaskParams tp = params_for(id);
    const int n = tp.img_w * tp.img_h;
    const bool two_source = id != hw::kBrightness;
    cpu::Kernel& k = p.kernel();

    // Stage every member's seeded input (host-side, zero simulated time,
    // like exec_request) and precompute the golden outputs.
    std::vector<std::vector<std::uint8_t>> want(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const bus::Addr off = static_cast<bus::Addr>(m) * detail::kBatchStride;
      sim::Rng rng{members[m].input_seed};
      apps::GrayImage ia = apps::GrayImage::make(tp.img_w, tp.img_h);
      for (auto& px : ia.pixels) px = rng.next_u8();
      apps::store_bytes(p.cpu().plb(), S::in + off, ia.pixels);
      apps::GrayImage ib;  // the last draw; brightness has one source
      if (two_source) {
        ib = apps::GrayImage::make(tp.img_w, tp.img_h);
        for (auto& px : ib.pixels) px = rng.next_u8();
        apps::store_bytes(p.cpu().plb(), S::in_b + off, ib.pixels);
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
    const bus::Addr ctrl =
        (Platform::dock_data() & ~bus::Addr{0x3F}) + 0x20;
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
      const bus::Addr off = static_cast<bus::Addr>(m) * detail::kBatchStride;
      if (two_source) {
        apps::dma_prepare_interleave(k, S::in + off, S::in_b + off,
                                     S::scratch + off, n);
        segs[m] = {S::scratch + off, static_cast<std::uint64_t>(n) * 2,
                   S::out + off, static_cast<std::uint64_t>(n)};
      } else {
        segs[m] = {S::in + off, static_cast<std::uint64_t>(n), S::out + off,
                   static_cast<std::uint64_t>(n)};
      }
    }
    apps::hw_sg_batch_dma(p, segs);

    // Per-member verification: a mid-chain fault corrupts specific beats,
    // so only the members whose buffers they landed in fail golden.
    for (std::size_t m = 0; m < members.size(); ++m) {
      const bus::Addr off = static_cast<bus::Addr>(m) * detail::kBatchStride;
      const auto got =
          apps::fetch_bytes(p.cpu().plb(), S::out + off, want[m].size());
      members[m].result.ok = true;
      members[m].result.digest = fnv1a(got.data(), got.size());
      members[m].result.golden_ok = got == want[m];
    }
    return true;
  }
}

}  // namespace rtr::serve
