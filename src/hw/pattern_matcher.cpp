#include "hw/pattern_matcher.hpp"

#include <algorithm>
#include <cstring>

namespace rtr::hw {

void PatternMatcherModule::reset() {
  state_ = State::kGeometry;
  capacity_error_ = false;
  width_ = height_ = 0;
  pixels_expected_ = pixels_received_ = 0;
  bits_.clear();
  for (auto& p : pattern_) p = 0;
  counts_.clear();
  read_index_ = 0;
}

void PatternMatcherModule::write_word(std::uint64_t data, int width_bits) {
  accept32(static_cast<std::uint32_t>(data));
  if (width_bits == 64) accept32(static_cast<std::uint32_t>(data >> 32));
}

void PatternMatcherModule::accept32(std::uint32_t w) {
  switch (state_) {
    case State::kGeometry: {
      width_ = static_cast<int>(w >> 16);
      height_ = static_cast<int>(w & 0xFFFF);
      pixels_expected_ = static_cast<std::size_t>(width_) *
                         static_cast<std::size_t>(height_);
      if (static_cast<std::int64_t>(pixels_expected_) > capacity_bits_ ||
          width_ < 8 || height_ < 8 || width_ % 4 != 0) {
        capacity_error_ = true;
      }
      pixels_received_ = 0;
      bits_.clear();
      if (!capacity_error_) bits_.assign(pixels_expected_, 0);
      state_ = State::kPatternLo;
      break;
    }
    case State::kPatternLo:
      for (int i = 0; i < 4; ++i) {
        pattern_[i] = static_cast<std::uint8_t>(w >> (8 * i));
      }
      state_ = State::kPatternHi;
      break;
    case State::kPatternHi:
      for (int i = 0; i < 4; ++i) {
        pattern_[4 + i] = static_cast<std::uint8_t>(w >> (8 * i));
      }
      state_ = State::kImage;
      break;
    case State::kImage:
      // Four pixel bytes per word, thresholded to bits on entry.
      for (int i = 0; i < 4 && pixels_received_ < pixels_expected_; ++i) {
        const std::uint8_t px = static_cast<std::uint8_t>(w >> (8 * i));
        if (!capacity_error_) bits_[pixels_received_] = px != 0;
        ++pixels_received_;
      }
      if (pixels_received_ == pixels_expected_) finish();
      break;
    case State::kDone:
      break;  // trailing pad strobes are ignored; control() re-arms
  }
}

namespace {

constexpr std::uint64_t kLanes = 0x0101010101010101ull;

/// Set bits of each byte lane of `x`, as one count per lane.
constexpr std::uint64_t lane_popcount(std::uint64_t x) {
  x -= (x >> 1) & (0x55 * kLanes);
  x = (x & (0x33 * kLanes)) + ((x >> 2) & (0x33 * kLanes));
  return (x + (x >> 4)) & (0x0F * kLanes);
}

std::uint64_t load8(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

void PatternMatcherModule::finish() {
  state_ = State::kDone;
  if (capacity_error_) return;

  // Each BRAM row shifts through an 8-bit register: after pixel c + 7 it
  // holds the row's window at column c (bit i = pixel c + i). Windows sit
  // at their column in a row-strided buffer; a row's last 7 bytes hold no
  // window, and the count lanes they feed below are never stored.
  const auto w = static_cast<std::size_t>(width_);
  const auto h = static_cast<std::size_t>(height_);
  const std::size_t cols = w - 7;
  windows_.resize(w * h);
  for (std::size_t base = 0; base < w * h; base += w) {
    unsigned v = 0;
    for (std::size_t c = 0; c < w; ++c) {
      v = (v >> 1) | static_cast<unsigned>(bits_[base + c]) << 7;
      if (c >= 7) windows_[base + c - 7] = static_cast<std::uint8_t>(v);
    }
  }

  // The eight-stage pipeline, eight window positions per 64-bit word:
  // stage pr counts the pixels of pattern row pr matched by window row
  // r + pr. A lane's stage count is at most 8 and its sum at most 64, so no
  // carry crosses a lane. Counts stream out in window scan order.
  std::uint64_t pattern[8] = {};
  for (int pr = 0; pr < 8; ++pr) pattern[pr] = pattern_[pr] * kLanes;
  counts_.resize((h - 7) * cols);
  std::uint8_t* out = counts_.data();
  for (std::size_t r = 0; r + 8 <= h; ++r) {
    const std::uint8_t* row = windows_.data() + r * w;
    for (std::size_t c = 0; c < cols; c += 8) {
      std::uint64_t sum = 0;
      for (std::size_t pr = 0; pr < 8; ++pr) {
        sum += lane_popcount(~(load8(row + pr * w + c) ^ pattern[pr]));
      }
      // Lane k is byte k of `sum` in memory, as of each load. The last
      // group of a row may hold fewer than eight positions.
      const std::size_t n = std::min<std::size_t>(8, cols - c);
      std::memcpy(out, &sum, n);
      out += n;
    }
  }
}

std::uint32_t PatternMatcherModule::next_count() {
  if (state_ != State::kDone || capacity_error_ || read_index_ >= counts_.size())
    return 0xFFFFFFFFu;
  return counts_[read_index_++];
}

std::uint64_t PatternMatcherModule::read_word(int width_bits) {
  if (width_bits == 64) {
    const std::uint64_t lo = next_count();
    return lo | (static_cast<std::uint64_t>(next_count()) << 32);
  }
  return next_count();
}

void PatternMatcherModule::pio_block(std::span<const std::uint32_t> in,
                                     std::span<std::uint32_t> out) {
  bus::for_each_pio_group(
      in, out,
      [this](std::span<const std::uint32_t> words) {
        for (const std::uint32_t w : words) accept32(w);
      },
      [this] { return next_count(); });
}

}  // namespace rtr::hw
