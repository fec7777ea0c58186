// Configuration memory model.
//
// Holds the current configuration state of every frame of a device. The key
// geometric property modelled here is that one frame word corresponds to one
// CLB row (plus two pad words per frame), so partial-height reconfiguration
// is a read-modify-write of a word range within full-column frames.
//
// Every frame carries a "touched" bit, set the first time a mutable view of
// the frame is handed out and maintained under the invariant that an
// untouched frame is all-zero (power-on state). Devices have tens of
// thousands of frames and a module configures a handful of columns, so
// differential operations (diff_frames, PartialConfig::diff) use the bits
// to skip the untouched expanse instead of comparing every word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fabric/device.hpp"
#include "fabric/frame_address.hpp"

namespace rtr::fabric {

class ConfigMemory {
 public:
  explicit ConfigMemory(const Device& dev);

  [[nodiscard]] const Device& device() const { return *dev_; }
  [[nodiscard]] int words_per_frame() const { return wpf_; }

  /// First frame word carrying CLB-row data. Word 0 and the last word of
  /// every frame are pad words.
  static constexpr int kRowWordBase = 1;
  /// Frame word index that carries configuration for CLB row `row`.
  [[nodiscard]] static constexpr int word_for_row(int row) {
    return kRowWordBase + row;
  }

  [[nodiscard]] std::span<const std::uint32_t> frame(FrameAddress a) const;
  /// The words of `count` frames consecutive in scan order from `first`:
  /// storage follows the scan, so they lie contiguous.
  [[nodiscard]] std::span<const std::uint32_t> frames(FrameAddress first,
                                                      int count) const;
  [[nodiscard]] std::span<std::uint32_t> frame_mut(FrameAddress a);

  /// Overwrite a whole frame. `data.size()` must equal words_per_frame().
  void write_frame(FrameAddress a, std::span<const std::uint32_t> data);

  /// Overwrite the whole frames consecutive in scan order from `first`
  /// with `words` (a whole number of frames): one copy, since storage
  /// follows the scan. Equal to a write_frame per frame, each still counted
  /// as one write of the generation.
  void write_frames(FrameAddress first, std::span<const std::uint32_t> words);

  /// Overwrite a word range within a frame (read-modify-write of the rest).
  void write_words(FrameAddress a, int first_word,
                   std::span<const std::uint32_t> data);

  /// Number of frames whose content differs between two memories of the
  /// same device. Used to verify differential-configuration generation.
  [[nodiscard]] static int diff_frames(const ConfigMemory& a, const ConfigMemory& b);

  /// Copy of the full state, for baselines/diffs.
  [[nodiscard]] std::vector<std::uint32_t> snapshot() const { return words_; }
  /// Restore a snapshot. Touched bits are recomputed from the restored
  /// content (a frame is touched iff it is nonzero), so a restore to the
  /// power-on state makes later diffs cheap again.
  void restore(std::span<const std::uint32_t> snap);

  /// Zero every frame (power-on state). Resets all touched bits.
  void clear();

  /// Monotonic mutation tag: bumped by every write path (frame_mut and the
  /// operations built on it), by restore()/clear(), and by bump_generation().
  /// Cached reconfiguration plans are validated by comparing the generation
  /// they were established under against the current one -- a cheap staleness
  /// check that replaces keeping (and diffing) full-fabric snapshots.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Invalidate every generation-tagged assumption about this memory without
  /// changing its content. Used for events that may have gone around the
  /// write paths entirely (fault detection on a readback, an explicit
  /// ModuleManager::invalidate()).
  void bump_generation() { ++generation_; }

  /// True when the frame has ever been handed out for writing since the
  /// last clear()/restore() recomputation. Untouched implies all-zero.
  [[nodiscard]] bool frame_touched(FrameAddress a) const {
    return touched_[static_cast<std::size_t>(linear_index(a))] != 0;
  }

  /// Number of touched frames (observability for tests and stats).
  [[nodiscard]] int touched_frames() const;

  /// Total number of frames.
  [[nodiscard]] int total_frames() const { return total_frames_; }

  /// Linear index of a frame in storage; also the canonical frame ordering.
  [[nodiscard]] int linear_index(FrameAddress a) const;

 private:
  const Device* dev_;
  int wpf_;
  int total_frames_;
  int clb_frames_;
  int bram_ic_frames_;
  std::vector<std::uint32_t> words_;  // total_frames_ * wpf_
  // One byte per frame (not vector<bool>: the diff loop reads these hot).
  std::vector<std::uint8_t> touched_;
  std::uint64_t generation_ = 0;
};

}  // namespace rtr::fabric
