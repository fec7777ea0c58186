// Pattern-matching module (paper section 3.2, tables 3 and 9).
//
// "A pipeline of eight stages, each one calculating the number of matching
// pixels in a row of the pattern. The results of the eight stages are
// summed, producing the number of matching pixels for one position of the
// sliding window."
//
// The bilevel image lives in memory one byte per pixel (the natural C
// representation the software baseline uses); the hardware interface packs
// four pixels per 32-bit transfer, and the module does the bit manipulation
// that is "cumbersome to express in the C programming language": threshold
// to bits, buffer rows in its BRAMs, and run the 8-stage compare pipeline.
//
// Connection protocol (32-bit words; a 64-bit strobe carries two protocol
// words, low half first):
//   word 0           : (width << 16) | height
//   words 1..2       : the 8x8 pattern, rows 0-3 then rows 4-7 (one byte
//                      per row, LSB-first bits)
//   following words  : image pixels, 4 bytes per word, row-major
//                      (non-zero byte = set pixel); width must be a
//                      multiple of 4
// After the last image word, per-position match counts stream out:
//   read k           : count (0..64) for window position k, row-major
//                      order; ~0u once exhausted or on capacity error
//
// The image bits are buffered in the module's BRAMs; exceeding the
// configured capacity raises the error flag (the reason bigger images need
// the larger dynamic area of the 64-bit system).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/module.hpp"

namespace rtr::hw {

class PatternMatcherModule : public HwModule {
 public:
  static constexpr int kBehaviorId = 100;

  explicit PatternMatcherModule(std::int64_t capacity_bits)
      : capacity_bits_(capacity_bits) {
    reset();
  }

  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "pattern-matcher"; }
  void reset() override;
  /// A control strobe re-arms the matcher for a new image.
  void control(std::uint32_t) override { reset(); }
  void write_word(std::uint64_t data, int width_bits) override;
  [[nodiscard]] std::uint64_t read_word(int width_bits) override;
  /// Image words and count reads without a virtual call per word.
  void pio_block(std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;
  /// Results are pulled by the CPU (PIO reads), not streamed to the FIFO.
  [[nodiscard]] bool has_output() const override { return false; }

  [[nodiscard]] bool capacity_error() const { return capacity_error_; }
  [[nodiscard]] bool result_ready() const { return state_ == State::kDone; }
  /// Number of window positions (and so of result reads).
  [[nodiscard]] std::int64_t result_count() const {
    return result_ready() && !capacity_error_
               ? static_cast<std::int64_t>(counts_.size())
               : 0;
  }

 private:
  enum class State { kGeometry, kPatternLo, kPatternHi, kImage, kDone };

  void accept32(std::uint32_t w);
  void finish();
  /// The next 32-bit read: a count, or ~0u.
  std::uint32_t next_count();

  std::int64_t capacity_bits_;
  State state_ = State::kGeometry;
  bool capacity_error_ = false;
  int width_ = 0;
  int height_ = 0;
  std::size_t pixels_expected_ = 0;
  std::size_t pixels_received_ = 0;
  std::vector<std::uint8_t> bits_;  // thresholded pixels (model of the BRAM)
  std::vector<std::uint8_t> windows_;  // each row's 8-bit window per column
  std::uint8_t pattern_[8] = {};
  std::vector<std::uint8_t> counts_;
  std::size_t read_index_ = 0;
};

/// Extension: the 64-bit-system re-implementation with a 22-BRAM image
/// buffer (behaviour id 103). Identical protocol; only capacity differs.
class PatternMatcherXlModule : public PatternMatcherModule {
 public:
  static constexpr int kBehaviorId = 103;
  explicit PatternMatcherXlModule(std::int64_t capacity_bits)
      : PatternMatcherModule(capacity_bits) {}
  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "pattern-matcher-xl"; }
};

}  // namespace rtr::hw
