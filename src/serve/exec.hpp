// Request execution: seeded input staging, hardware (PIO) and software
// (timed kernel) paths, output digest and golden verification.
//
// Inputs are a pure function of (behavior, input_seed), so the hardware
// path and the software kernel -- both functionally exact against the
// golden models -- must produce bit-identical outputs and therefore equal
// FNV digests. That equality is what makes graceful degradation *graceful*:
// a client cannot tell which path served it except by latency.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hw/library.hpp"
#include "rtr/platform.hpp"

namespace rtr::serve {

/// Fixed (small) input geometry per behaviour: serve-layer requests model
/// interactive traffic, not the paper's full-size measurement workloads.
struct TaskParams {
  std::uint32_t bytes = 0;  // hash input size
  int img_w = 0, img_h = 0; // image geometry
};

/// The sizes params_for hands out: hash messages of at most
/// kMaxMessageBytes and kImageWidth x kImageHeight images. A request's data
/// fits local buffers of these sizes.
inline constexpr std::uint32_t kMaxMessageBytes = 2048;
inline constexpr int kImageWidth = 64;
inline constexpr int kImageHeight = 48;
inline constexpr std::size_t kImagePixels = kImageWidth * kImageHeight;

inline TaskParams params_for(hw::BehaviorId id) {
  switch (id) {
    case hw::kJenkinsHash: return {kMaxMessageBytes, 0, 0};
    case hw::kSha1: return {1024, 0, 0};
    default: return {0, kImageWidth, kImageHeight};  // bilevel and grayscale
  }
}

struct ExecResult {
  bool ok = false;         // the path executed (false: unsupported task)
  std::uint64_t digest = 0;
  bool golden_ok = false;  // output matched the untimed golden model
};

/// Where a request's buffers live, as laid out by the CLI's task runner:
/// all in external memory, clear of the configuration staging area.
struct Staging {
  /// The distance between consecutive regions: all one request, or one
  /// batch (batch_exec.hpp), may stage in each.
  static constexpr bus::Addr kRegionSpacing = 0x0040'0000;

  explicit Staging(const Platform& p)
      : in(p.config_staging() - 4 * kRegionSpacing),
        in_b(p.config_staging() - 3 * kRegionSpacing),
        out(p.config_staging() - 2 * kRegionSpacing),
        scratch(p.config_staging() - kRegionSpacing) {}
  bus::Addr in, in_b, out, scratch;
};

/// Execute one request on the chosen path. `hw` requires the behaviour's
/// module to be resident (bound to the dock) already.
ExecResult exec_request(Platform& p, hw::BehaviorId id,
                        std::uint64_t input_seed, bool hw);

}  // namespace rtr::serve
