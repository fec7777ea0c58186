#include "sim/check.hpp"
#include "fabric/config_memory.hpp"

#include <algorithm>
#include <cstdio>

namespace rtr::fabric {

std::string FrameAddress::to_string() const {
  static const char* names[] = {"CLB", "BRAM_IC", "BRAM"};
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s[%d].%d",
                names[static_cast<int>(type)], major, minor);
  return buf;
}

ConfigMemory::ConfigMemory(const Device& dev)
    : dev_(&dev),
      wpf_(dev.words_per_frame()),
      total_frames_(dev.total_frames()),
      clb_frames_(dev.columns_of(ColumnType::kClb) * kFramesPerClbColumn),
      bram_ic_frames_(dev.columns_of(ColumnType::kBramInterconnect) *
                      kFramesPerBramInterconnect),
      words_(static_cast<std::size_t>(total_frames_) * wpf_, 0),
      touched_(static_cast<std::size_t>(total_frames_), 0) {}

int ConfigMemory::linear_index(FrameAddress a) const {
  RTR_CHECK(a.valid_for(*dev_), "frame address out of range");
  int base = 0;
  switch (a.type) {
    case ColumnType::kClb:
      base = 0;
      return base + a.major * kFramesPerClbColumn + a.minor;
    case ColumnType::kBramInterconnect:
      base = clb_frames_;
      return base + a.major * kFramesPerBramInterconnect + a.minor;
    case ColumnType::kBramContent:
      base = clb_frames_ + bram_ic_frames_;
      return base + a.major * kFramesPerBramContent + a.minor;
  }
  return 0;
}

std::span<const std::uint32_t> ConfigMemory::frame(FrameAddress a) const {
  const auto idx = static_cast<std::size_t>(linear_index(a)) * wpf_;
  return {words_.data() + idx, static_cast<std::size_t>(wpf_)};
}

std::span<const std::uint32_t> ConfigMemory::frames(FrameAddress first,
                                                    int count) const {
  const int f = linear_index(first);
  RTR_CHECK(count >= 0 && f + count <= total_frames_,
            "frame range outside the device");
  return {words_.data() + static_cast<std::size_t>(f) * wpf_,
          static_cast<std::size_t>(count) * wpf_};
}

std::span<std::uint32_t> ConfigMemory::frame_mut(FrameAddress a) {
  const auto f = static_cast<std::size_t>(linear_index(a));
  touched_[f] = 1;  // the caller holds a mutable view; assume it writes
  ++generation_;
  return {words_.data() + f * wpf_, static_cast<std::size_t>(wpf_)};
}

void ConfigMemory::write_frame(FrameAddress a,
                               std::span<const std::uint32_t> data) {
  RTR_CHECK(static_cast<int>(data.size()) == wpf_, "frame size mismatch");
  auto dst = frame_mut(a);
  std::copy(data.begin(), data.end(), dst.begin());
}

void ConfigMemory::write_words(FrameAddress a, int first_word,
                               std::span<const std::uint32_t> data) {
  RTR_CHECK(first_word >= 0 && first_word + static_cast<int>(data.size()) <= wpf_, "word range outside frame");
  auto dst = frame_mut(a);
  std::copy(data.begin(), data.end(), dst.begin() + first_word);
}

int ConfigMemory::diff_frames(const ConfigMemory& a, const ConfigMemory& b) {
  RTR_CHECK(a.dev_ == b.dev_, "diff across different devices");
  int n = 0;
  for (int f = 0; f < a.total_frames_; ++f) {
    // Both untouched: both all-zero by invariant, no comparison needed.
    // (A touched frame may still hold zeros, so touched frames compare.)
    if (!(a.touched_[static_cast<std::size_t>(f)] |
          b.touched_[static_cast<std::size_t>(f)]))
      continue;
    const auto off = static_cast<std::size_t>(f) * a.wpf_;
    if (!std::equal(a.words_.begin() + off, a.words_.begin() + off + a.wpf_,
                    b.words_.begin() + off))
      ++n;
  }
  return n;
}

int ConfigMemory::touched_frames() const {
  int n = 0;
  for (const std::uint8_t t : touched_) n += t;
  return n;
}

void ConfigMemory::restore(std::span<const std::uint32_t> snap) {
  RTR_CHECK(snap.size() == words_.size(), "snapshot size mismatch");
  ++generation_;
  std::copy(snap.begin(), snap.end(), words_.begin());
  // Recompute touched bits from the restored content so the invariant
  // (untouched => all-zero) holds and diffs stay cheap after a restore.
  for (int f = 0; f < total_frames_; ++f) {
    const auto off = static_cast<std::size_t>(f) * wpf_;
    const auto begin = words_.begin() + static_cast<std::ptrdiff_t>(off);
    touched_[static_cast<std::size_t>(f)] =
        std::any_of(begin, begin + wpf_, [](std::uint32_t w) { return w != 0; })
            ? 1
            : 0;
  }
}

void ConfigMemory::clear() {
  ++generation_;
  std::fill(words_.begin(), words_.end(), 0);
  std::fill(touched_.begin(), touched_.end(), 0);
}

}  // namespace rtr::fabric
