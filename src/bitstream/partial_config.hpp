// Frame-level partial configurations.
//
// A PartialConfig is the structured (pre-serialisation) form of a partial
// bitstream: runs of consecutive frames with their full frame data. Two
// flavours matter to the paper (section 2.2):
//
//  * differential: only the frames that differ from an assumed current
//    state. Small and fast to load, but correct only when the fabric is in
//    exactly that assumed state -- with an unknown module-load order this
//    cannot be guaranteed.
//  * complete (BitLinker output): every frame covering the dynamic region,
//    with the static rows outside the region re-encoded unchanged. Loads
//    correctly from any prior state, at the cost of configuration time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fabric/config_memory.hpp"
#include "fabric/dynamic_region.hpp"
#include "fabric/frame_address.hpp"

namespace rtr::bitstream {

/// A run of `frame_count` consecutive frames (device scan order) starting at
/// `start`. `words` holds frame_count * words_per_frame words.
struct FrameRun {
  fabric::FrameAddress start;
  int frame_count = 0;
  std::vector<std::uint32_t> words;
};

class PartialConfig {
 public:
  explicit PartialConfig(const fabric::Device& dev) : dev_(&dev) {}

  [[nodiscard]] const fabric::Device& device() const { return *dev_; }
  [[nodiscard]] const std::vector<FrameRun>& runs() const { return runs_; }

  /// Append a run. Frames must be valid and words sized to the run.
  void add_run(FrameRun run);

  [[nodiscard]] int total_frames() const;
  /// Payload bytes (frame data only, excluding packet overhead).
  [[nodiscard]] std::int64_t payload_bytes() const {
    return static_cast<std::int64_t>(total_frames()) * dev_->words_per_frame() * 4;
  }

  /// True when every frame covering `region` is present in full.
  [[nodiscard]] bool is_complete_for(const fabric::DynamicRegion& region) const;

  /// True when no run touches a frame outside `region`'s covered columns.
  [[nodiscard]] bool confined_to(const fabric::DynamicRegion& region) const;

  /// Functional application (no ICAP, no timing): write every frame.
  void apply_to(fabric::ConfigMemory& cm) const;

  /// Differential configuration: exactly the frames where `target` differs
  /// from `base`.
  static PartialConfig diff(const fabric::ConfigMemory& base,
                            const fabric::ConfigMemory& target);

  /// The same diff between two configurations that hold the same frames,
  /// each once and in scan order -- two complete configurations of one
  /// region: equal to diff() of the two applied to blank memories, whose
  /// frames outside the configurations are zero in both. Compares frame
  /// by frame without building either state.
  static PartialConfig diff(const PartialConfig& base,
                            const PartialConfig& target);

  /// Complete configuration for `region`: every covered frame, taken from
  /// `state` (full height, including the static rows -- which is what makes
  /// the result safe to load regardless of the fabric's current state).
  static PartialConfig full_region(const fabric::ConfigMemory& state,
                                   const fabric::DynamicRegion& region);

 private:
  const fabric::Device* dev_;
  std::vector<FrameRun> runs_;
};

/// Model IDCODE for a catalog device.
[[nodiscard]] std::uint32_t idcode_for(const fabric::Device& dev);

/// Serialise to a packet word stream (DUMMY/SYNC/IDCODE/.../CRC/DESYNC).
/// When `with_crc` is false the CRC check packet is replaced by an RCRC
/// command (some flows disable CRC to shave configuration time).
[[nodiscard]] std::vector<std::uint32_t> serialize(const PartialConfig& cfg,
                                                   bool with_crc = true);

/// Parse a serialised stream back to frame runs. Used by tests and tools;
/// the ICAP hardware model implements its own word-at-a-time state machine,
/// and the two are cross-checked against each other.
/// Aborts (RTR_CHECK) on malformed streams.
[[nodiscard]] PartialConfig parse(std::span<const std::uint32_t> words,
                                  const fabric::Device& dev);

}  // namespace rtr::bitstream
