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

#include <cstdint>
#include <span>

#include "rtr/platform.hpp"
#include "serve/exec.hpp"

namespace rtr::serve {

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
/// filled otherwise.
bool exec_image_batch(Platform& p, hw::BehaviorId id,
                      std::span<BatchMember> members);

}  // namespace rtr::serve
