// Frame addressing (the model's FAR -- Frame Address Register).
//
// A frame is identified by (block type, major address, minor address):
// the block type selects CLB vs BRAM-interconnect vs BRAM-content planes,
// the major address selects the column within the plane, and the minor
// address selects one of the column's frames.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "fabric/device.hpp"

namespace rtr::fabric {

struct FrameAddress {
  ColumnType type = ColumnType::kClb;
  int major = 0;  // column index within the block type
  int minor = 0;  // frame index within the column

  friend constexpr auto operator<=>(const FrameAddress&, const FrameAddress&) = default;

  /// Pack into the 32-bit register layout used by the bitstream packets:
  /// [31:24] type, [23:12] major, [11:0] minor.
  [[nodiscard]] constexpr std::uint32_t pack() const {
    return (static_cast<std::uint32_t>(type) << 24) |
           ((static_cast<std::uint32_t>(major) & 0xFFF) << 12) |
           (static_cast<std::uint32_t>(minor) & 0xFFF);
  }
  static constexpr FrameAddress unpack(std::uint32_t v) {
    return FrameAddress{static_cast<ColumnType>((v >> 24) & 0xFF),
                        static_cast<int>((v >> 12) & 0xFFF),
                        static_cast<int>(v & 0xFFF)};
  }

  /// True when the address designates an existing frame of `dev`.
  [[nodiscard]] bool valid_for(const Device& dev) const {
    return major >= 0 && major < dev.columns_of(type) && minor >= 0 &&
           minor < Device::frames_in_column(type);
  }

  /// Address of the next frame in device scan order (minor, then major,
  /// then block type). Used by multi-frame FDRI writes.
  [[nodiscard]] FrameAddress next_in(const Device& dev) const {
    FrameAddress a = *this;
    if (++a.minor < Device::frames_in_column(a.type)) return a;
    a.minor = 0;
    if (++a.major < dev.columns_of(a.type)) return a;
    a.major = 0;
    a.type = static_cast<ColumnType>(static_cast<int>(a.type) + 1);
    return a;  // may be invalid past the last plane; caller checks valid_for
  }

  /// The address `n` next_in steps on, in closed form: the planes are
  /// walked, not the frames. Like next_in, stepping off the device's last
  /// frame gives the invalid minor-0 frame of the plane after the last.
  [[nodiscard]] FrameAddress advanced(const Device& dev, int n) const {
    FrameAddress a = *this;
    for (;;) {
      const int per_column = Device::frames_in_column(a.type);
      const int in_plane = a.major * per_column + a.minor + n;
      const int plane = dev.columns_of(a.type) * per_column;
      if (in_plane < plane) {
        a.major = in_plane / per_column;
        a.minor = in_plane % per_column;
        return a;
      }
      n = in_plane - plane;
      a = FrameAddress{static_cast<ColumnType>(static_cast<int>(a.type) + 1),
                       0, 0};
      if (n == 0 || a.type > ColumnType::kBramContent) return a;
    }
  }

  [[nodiscard]] std::string to_string() const;
};

}  // namespace rtr::fabric
