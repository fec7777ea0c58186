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
      // One word past the last pixel's: finish() reads each window as a
      // funnel shift of two words.
      if (!capacity_error_) bits_.assign(pixels_expected_ / 64 + 2, 0);
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
    case State::kImage: {
      // Four pixel bytes per word, thresholded to bits on entry. Without a
      // capacity error the width is a multiple of 4, so every word is
      // whole.
      const std::size_t n =
          std::min<std::size_t>(4, pixels_expected_ - pixels_received_);
      if (!capacity_error_) store_pixels(pixels_received_, w);
      pixels_received_ += n;
      if (pixels_received_ == pixels_expected_) finish();
      break;
    }
    case State::kDone:
      break;  // trailing pad strobes are ignored; control() re-arms
  }
}

void PatternMatcherModule::store_pixels(std::size_t at, std::uint32_t w) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    bits |= std::uint64_t{((w >> (8 * i)) & 0xFFu) != 0} << i;
  }
  bits_[at / 64] |= bits << (at % 64);
}

void PatternMatcherModule::accept_words(std::span<const std::uint32_t> words) {
  // The header words and a partial last word take the single-strobe path;
  // the whole image words between them go straight to the bit buffer.
  while (!words.empty() && state_ != State::kDone) {
    const std::size_t whole =
        state_ == State::kImage
            ? std::min(words.size(), (pixels_expected_ - pixels_received_) / 4)
            : 0;
    if (whole == 0) {
      accept32(words.front());
      words = words.subspan(1);
      continue;
    }
    if (!capacity_error_) {
      for (std::size_t j = 0; j < whole; ++j) {
        store_pixels(pixels_received_ + 4 * j, words[j]);
      }
    }
    pixels_received_ += 4 * whole;
    words = words.subspan(whole);
    if (pixels_received_ == pixels_expected_) finish();
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

  // A row's window at column c is its pixels c .. c + 7: bits p .. p + 7
  // of the buffer, for p = r * w + c. One funnel shift of two buffer words
  // yields the 15 pixels of eight neighbouring windows, which sit at their
  // columns in a row-strided buffer. A row's last 7 bytes hold no window,
  // and the count lanes they feed below are never stored.
  const auto w = static_cast<std::size_t>(width_);
  const auto h = static_cast<std::size_t>(height_);
  const std::size_t cols = w - 7;
  windows_.resize(w * h);
  const std::uint64_t* bits = bits_.data();
  for (std::size_t r = 0; r < h; ++r) {
    std::uint8_t* row = windows_.data() + r * w;
    for (std::size_t c = 0, p = r * w; c < cols; c += 8, p += 8) {
      const std::size_t q = p / 64, s = p % 64;
      const std::uint64_t run = bits[q] >> s | bits[q + 1] << 1 << (63 - s);
      for (std::size_t k = 0; k < 8; ++k) {
        row[c + k] = static_cast<std::uint8_t>(run >> k);
      }
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
  if (in.empty()) {
    // A block of reads: the counts left, then ~0u, as next_count() reads
    // them.
    const std::size_t left = state_ == State::kDone && !capacity_error_
                                 ? counts_.size() - read_index_
                                 : 0;
    const std::size_t n = std::min(out.size(), left);
    std::copy_n(counts_.begin() + static_cast<std::ptrdiff_t>(read_index_), n,
                out.begin());
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(),
              0xFFFFFFFFu);
    read_index_ += n;
    return;
  }
  bus::for_each_pio_group(
      in, out,
      [this](std::span<const std::uint32_t> words) { accept_words(words); },
      [this] { return next_count(); });
}

}  // namespace rtr::hw
