#include "hw/image_units.hpp"

#include <array>

#include "apps/golden.hpp"

namespace rtr::hw {

// --- BrightnessModule ------------------------------------------------------------

void BrightnessModule::reset() {
  delta_ = 0;
  out_ = 0;
  fresh_ = false;
}

void BrightnessModule::write_word(std::uint64_t data, int width_bits) {
  const int n = width_bits / 8;
  std::uint64_t out = 0;
  for (int i = 0; i < n; ++i) {
    const auto px = static_cast<std::uint8_t>(data >> (8 * i));
    out |= static_cast<std::uint64_t>(apps::sat_add(px, delta_)) << (8 * i);
  }
  out_ = out;
  fresh_ = true;
}

void BrightnessModule::pio_block(std::span<const std::uint32_t> in,
                                 std::span<std::uint32_t> out) {
  // A strobe's output depends on its word and delta_ alone, so a group's
  // read samples its last write, mapped through the block's one table.
  std::array<std::uint8_t, 256> lut{};
  if (!in.empty()) {
    for (int px = 0; px < 256; ++px) {
      lut[static_cast<std::size_t>(px)] = apps::sat_add(px, delta_);
    }
  }
  bus::for_each_pio_group(
      in, out,
      [&](std::span<const std::uint32_t> words) {
        if (words.empty()) return;
        const std::uint32_t w = words.back();
        std::uint64_t res = 0;
        for (int i = 0; i < 4; ++i) {
          res |= static_cast<std::uint64_t>(lut[(w >> (8 * i)) & 0xFF])
                 << (8 * i);
        }
        out_ = res;
        fresh_ = true;
      },
      [this] { return static_cast<std::uint32_t>(out_); });
}

// --- TwoSourceModule ----------------------------------------------------------------

void TwoSourceModule::reset() {
  set_control(0);
  half_ = 0;
  phase_ = 0;
  out_ = 0;
  fresh_ = false;
}

void TwoSourceModule::pack(std::uint64_t res, int n) {
  if (phase_ == 0) {
    half_ = res;
    phase_ = 1;
    fresh_ = false;
  } else {
    // Pack the previous strobe's pixels in the low half, this strobe's in
    // the high half: a full-width word per two strobes.
    out_ = half_ | (res << (8 * n));
    phase_ = 0;
    fresh_ = true;
  }
}

void TwoSourceModule::write_word(std::uint64_t data, int width_bits) {
  // A strobe carries n pixels of A in the low bytes and n of B above them.
  const int n = width_bits / 16;
  std::uint64_t res = 0;
  for (int i = 0; i < n; ++i) {
    const auto a = static_cast<std::uint8_t>(data >> (8 * i));
    const auto b = static_cast<std::uint8_t>(data >> (8 * (n + i)));
    res |= static_cast<std::uint64_t>(combine(a, b)) << (8 * i);
  }
  pack(res, n);
}

template <typename Combine>
void TwoSourceModule::combine_block(std::span<const std::uint32_t> in,
                                    std::span<std::uint32_t> out,
                                    Combine fn) {
  bus::for_each_pio_group(
      in, out,
      [&](std::span<const std::uint32_t> words) {
        for (const std::uint32_t w : words) {
          // [A0 A1 B0 B1]: two output pixels, as write_word(w, 32).
          std::uint64_t res = 0;
          for (int i = 0; i < 2; ++i) {
            const auto a = static_cast<std::uint8_t>(w >> (8 * i));
            const auto b = static_cast<std::uint8_t>(w >> (8 * (2 + i)));
            res |= static_cast<std::uint64_t>(fn(a, b)) << (8 * i);
          }
          pack(res, 2);
        }
      },
      [this] { return static_cast<std::uint32_t>(out_); });
}

std::uint8_t BlendAddModule::combine(std::uint8_t a, std::uint8_t b) const {
  return apps::sat_add(a, b);
}

void BlendAddModule::pio_block(std::span<const std::uint32_t> in,
                               std::span<std::uint32_t> out) {
  combine_block(in, out,
                [](std::uint8_t a, std::uint8_t b) { return apps::sat_add(a, b); });
}

std::uint8_t FadeModule::combine(std::uint8_t a, std::uint8_t b) const {
  return apps::fade_px(a, b, f_);
}

void FadeModule::pio_block(std::span<const std::uint32_t> in,
                           std::span<std::uint32_t> out) {
  combine_block(in, out, [f = f_](std::uint8_t a, std::uint8_t b) {
    return apps::fade_px(a, b, f);
  });
}

}  // namespace rtr::hw
