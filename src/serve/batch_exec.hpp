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
// Only the image behaviours stream through the chain, and only on a
// platform with a DMA engine (the 64-bit system): hash and pattern-match
// tasks keep their PIO drivers (their register protocols are
// word-oriented), and the 32-bit system has no DMA engine. For those
// exec_image_batch returns false and the server falls back to per-member
// execution, still amortizing the module swap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rtr/platform.hpp"
#include "serve/exec.hpp"

namespace rtr::serve {

/// Member m's buffers start m * kBatchStride into each staging region
/// (Staging). A stride holds a member's largest buffer, the two-source
/// interleave of 2 * kImagePixels bytes, and the regions are
/// Staging::kRegionSpacing apart, which bounds a batch at kMaxBatchMembers.
inline constexpr bus::Addr kBatchStride = 0x4000;
inline constexpr std::size_t kMaxBatchMembers =
    Staging::kRegionSpacing / kBatchStride;
static_assert(2 * kImagePixels <= kBatchStride);

/// One member of a batched execution: seeded like exec_request, verified
/// against the golden model independently, so a fault that corrupts one
/// member's beats degrades only that member.
struct BatchMember {
  std::uint64_t input_seed = 0;
  ExecResult result;
};

/// Execute every member of a same-behaviour image batch against the
/// already-resident module as one scatter-gather descriptor chain. Returns
/// false (members untouched, zero simulated time) when this (platform,
/// behaviour) pair cannot batch-stream; true with every member's result
/// filled otherwise. A batch that can stream must have at most
/// kMaxBatchMembers members (checked: a larger one would stage members over
/// each other).
bool exec_image_batch(Platform& p, hw::BehaviorId id,
                      std::span<BatchMember> members);

}  // namespace rtr::serve
