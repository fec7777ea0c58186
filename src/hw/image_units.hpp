// Grayscale image-processing modules (tables 5 and 12).
//
// All three operate on packed 8-bit pixels, one word per strobe. Task
// parameters arrive through the dock's control register (a control strobe
// also re-arms the output packing):
//
//  * Brightness: control = signed delta; every strobe carries width/8
//    pixels and yields the processed word of the same width (4 px per
//    32-bit transfer, as in the paper; 8 px per 64-bit DMA beat).
//
//  * Additive blending / fade: every data strobe carries pixels from BOTH
//    source images, packed by the CPU (the "data preparation" the paper
//    charges to the hardware version): a 32-bit word holds [A0 A1 B0 B1]
//    and produces 2 output pixels; a 64-bit beat holds [A0..A3 B0..B3] and
//    produces 4. Outputs are packed in pairs of strobes -- "the resulting
//    pixels are packed in groups of four, before being read back" -- so the
//    read/FIFO side sees one full-width word every second strobe. Fade's
//    control value is the factor f; blend ignores the value.
//
// A block of strobes (pio_block) runs the same steps with the pixel
// arithmetic inlined: brightness maps each block through one 256-entry
// table, blend and fade combine without a virtual call per pixel.
#pragma once

#include <cstdint>
#include <span>

#include "hw/module.hpp"

namespace rtr::hw {

class BrightnessModule final : public HwModule {
 public:
  static constexpr int kBehaviorId = 110;

  BrightnessModule() { BrightnessModule::reset(); }
  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "brightness"; }
  void reset() override;
  void control(std::uint32_t value) override {
    delta_ = static_cast<std::int16_t>(value & 0xFFFF);
    fresh_ = false;
  }
  void write_word(std::uint64_t data, int width_bits) override;
  void pio_block(std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;
  [[nodiscard]] std::uint64_t read_word(int /*width_bits*/) override { return out_; }
  [[nodiscard]] bool has_output() const override { return fresh_; }

 private:
  int delta_ = 0;
  std::uint64_t out_ = 0;
  bool fresh_ = false;
};

/// Common half of blend/fade: two-source packing and pair-of-strobes output.
class TwoSourceModule : public HwModule {
 public:
  void reset() override;
  void control(std::uint32_t value) override {
    set_control(value);
    phase_ = 0;
    fresh_ = false;
  }
  void write_word(std::uint64_t data, int width_bits) override;
  [[nodiscard]] std::uint64_t read_word(int /*width_bits*/) override { return out_; }
  [[nodiscard]] bool has_output() const override { return fresh_; }

 protected:
  TwoSourceModule() = default;
  [[nodiscard]] virtual std::uint8_t combine(std::uint8_t a,
                                             std::uint8_t b) const = 0;
  virtual void set_control(std::uint32_t) {}
  /// pio_block with `fn`, the function combine() computes, inlined.
  template <typename Combine>
  void combine_block(std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out, Combine fn);

 private:
  /// Pack one strobe's `n` output pixels `res` with the previous strobe's.
  void pack(std::uint64_t res, int n);

  std::uint64_t half_ = 0;  // output pixels of the previous strobe
  int phase_ = 0;
  std::uint64_t out_ = 0;
  bool fresh_ = false;
};

class BlendAddModule final : public TwoSourceModule {
 public:
  static constexpr int kBehaviorId = 111;

  BlendAddModule() { BlendAddModule::reset(); }
  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "blend-add"; }
  void pio_block(std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;

 protected:
  [[nodiscard]] std::uint8_t combine(std::uint8_t a,
                                     std::uint8_t b) const override;
};

class FadeModule final : public TwoSourceModule {
 public:
  static constexpr int kBehaviorId = 112;

  FadeModule() { FadeModule::reset(); }
  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "fade"; }
  void pio_block(std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;

 protected:
  [[nodiscard]] std::uint8_t combine(std::uint8_t a,
                                     std::uint8_t b) const override;
  void set_control(std::uint32_t v) override { f_ = static_cast<int>(v & 0x1FF); }

 private:
  int f_ = 0;
};

}  // namespace rtr::hw
