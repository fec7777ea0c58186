// The module library: behaviour ids, component descriptors (footprints,
// resources, interfaces) and the behaviour registry for a platform.
//
// The descriptors' geometry encodes the paper's key sizing facts: every
// task module fits the 32-bit system's 28x11-CLB region EXCEPT the SHA-1
// unit ("our implementation does not fit into the dynamic area of the
// 32-bit system"), which only the 64-bit system's 32x24 region can host.
#pragma once

#include <string_view>

#include "bitlinker/component.hpp"
#include "hw/module.hpp"

namespace rtr::hw {

/// Behaviour ids (embedded in configuration signatures).
enum BehaviorId : int {
  kPatternMatcher = 100,  // PatternMatcherModule
  kJenkinsHash = 101,     // JenkinsHashModule
  kSha1 = 102,            // Sha1Module
  kBrightness = 110,      // BrightnessModule
  kBlendAdd = 111,        // BlendAddModule
  kFade = 112,            // FadeModule
  kLoopback = 120,        // test circuit: echoes every strobe (transfer benches)
  kSink = 121,            // test circuit: consumes strobes, produces nothing
  // Extension: a pattern matcher re-implemented for the 64-bit system's
  // region, owning all 22 of its BRAMs (image capacity ~396 kpixel vs the
  // unmodified module's ~110 kpixel). Does not fit the 32-bit system.
  kPatternMatcherXl = 103,
};

/// Echo module used by the data-transfer measurements (tables 2/7/8): every
/// strobed word is available on the read channel / pushed to the FIFO.
class LoopbackModule : public HwModule {
 public:
  [[nodiscard]] int behavior_id() const override { return kLoopback; }
  [[nodiscard]] std::string name() const override { return "loopback"; }
  void reset() override { last_ = 0; }
  void write_word(std::uint64_t d, int) override { last_ = d; }
  [[nodiscard]] std::uint64_t read_word(int) override { return last_; }

 private:
  std::uint64_t last_ = 0;
};

/// Pure sink for write-only transfer measurements: nothing reaches the FIFO.
class SinkModule : public HwModule {
 public:
  [[nodiscard]] int behavior_id() const override { return kSink; }
  [[nodiscard]] std::string name() const override { return "sink"; }
  void reset() override { received_ = 0; }
  void write_word(std::uint64_t, int) override { ++received_; }
  [[nodiscard]] std::uint64_t read_word(int) override { return received_; }
  [[nodiscard]] bool has_output() const override { return false; }
  [[nodiscard]] std::int64_t received() const { return received_; }

 private:
  std::int64_t received_ = 0;
};

/// User-facing task name for a behaviour ("jenkins", "sha1", "patmatch",
/// ...). The vocabulary shared by the CLI's --task flag, the serve layer's
/// workload specs and the trace/stat labels.
const char* task_name(BehaviorId id);

/// Inverse of task_name. False (untouched *out) for unknown names.
bool behavior_from_task_name(std::string_view name, BehaviorId* out);

/// A task module's row of the library's shape table: its component name
/// stem, CLB rectangle, BRAM blocks and logic use, the same at both dock
/// widths. A table read: nothing is allocated.
struct ModuleShape {
  const char* name;
  int rows;
  int cols;
  int brams;
  fabric::Resources logic;
};
ModuleShape shape_of(BehaviorId id);

/// Component descriptor for a task module, with the dock interface of the
/// given `dock_width` (32 or 64). Footprints and logic use are the same for
/// both widths; only the interface macros differ.
bitlinker::ComponentDescriptor component_for(BehaviorId id, int dock_width);

/// All behaviours this library can instantiate.
/// `pattern_capacity_bits` sizes the pattern matcher's image buffer -- the
/// BRAM bits its component owns (6 blocks on the 32-bit system, which is
/// what caps image size there).
BehaviorRegistry standard_registry(std::int64_t pattern_capacity_bits);

/// BRAM bits available to a component owning `blocks` block RAMs.
[[nodiscard]] constexpr std::int64_t bram_bits(int blocks) {
  return static_cast<std::int64_t>(blocks) * 18 * 1024;
}

}  // namespace rtr::hw
