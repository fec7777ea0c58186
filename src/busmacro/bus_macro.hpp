// Bus macros: fixed-location interface terminals for relocatable components.
//
// Components destined for the dynamic area are designed in isolation; the
// only shared knowledge between a producer and a consumer is the *bus macro*
// through which their signals cross the component boundary (paper figure 2).
// A macro pins each signal to a specific LUT position, so configurations
// assembled later by concatenation line up electrically.
//
// Two implementation styles existed for Virtex-II: tristate-line macros
// (XAPP290) and LUT-based macros. The paper uses LUT-based ones "since they
// consume less area"; both are modelled so the trade-off is visible in the
// resource accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/geometry.hpp"
#include "fabric/resources.hpp"
#include "sim/check.hpp"

namespace rtr::busmacro {

enum class MacroStyle : std::uint8_t {
  kLutBased,   // one LUT per bit per side
  kTristate,   // tristate buffers on long lines (more area, legacy)
};

/// Direction of the signals, seen from the component that *declares* the
/// macro: kOutput drives signals out of the component, kInput receives.
enum class MacroDirection : std::uint8_t { kInput, kOutput };

/// A bus macro instance: `width` signal bits anchored at a fixed
/// region-relative CLB position. Bits occupy consecutive rows starting at
/// the anchor, eight bits per CLB (one bit per 4-input LUT).
class BusMacro {
 public:
  BusMacro(std::string name, MacroStyle style, MacroDirection dir, int width,
           fabric::ClbCoord anchor)
      : name_(std::move(name)),
        style_(style),
        dir_(dir),
        width_(width),
        anchor_(anchor) {
    RTR_CHECK(width_ > 0 && width_ <= 128, "unreasonable bus macro width");
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MacroStyle style() const { return style_; }
  [[nodiscard]] MacroDirection direction() const { return dir_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] fabric::ClbCoord anchor() const { return anchor_; }

  /// CLB rows the macro occupies (eight bits per CLB).
  [[nodiscard]] int clb_rows() const { return (width_ + 7) / 8; }

  /// Footprint inside the declaring component (the macro's LUTs/buffers
  /// straddle the boundary; this is the half inside the component).
  [[nodiscard]] fabric::ClbRect footprint() const {
    return fabric::ClbRect{anchor_.row, anchor_.col, clb_rows(), 1};
  }

  /// Fabric resources consumed per side. LUT-based: one LUT per bit.
  /// Tristate: no LUTs but twice the slice area for buffer access, which is
  /// why the paper prefers LUT-based macros.
  [[nodiscard]] fabric::Resources resources() const {
    fabric::Resources r;
    if (style_ == MacroStyle::kLutBased) {
      r.luts = width_;
      r.slices = (width_ + 1) / 2;
    } else {
      r.slices = width_;
    }
    return r;
  }

  /// Two macro declarations are *mateable* when a signal driven through one
  /// is received by the other: same style, same width, same anchor,
  /// opposite directions.
  [[nodiscard]] bool mates_with(const BusMacro& other) const {
    return style_ == other.style_ && width_ == other.width_ &&
           anchor_ == other.anchor_ && dir_ != other.dir_;
  }

  friend bool operator==(const BusMacro& a, const BusMacro& b) {
    return a.style_ == b.style_ && a.dir_ == b.dir_ && a.width_ == b.width_ &&
           a.anchor_ == b.anchor_ && a.name_ == b.name_;
  }

 private:
  std::string name_;
  MacroStyle style_;
  MacroDirection dir_;
  int width_;
  fabric::ClbCoord anchor_;
};

/// The dock's connection interface (section 3.1): two unidirectional data
/// channels plus a write-strobe, realised as LUT-based bus macros at fixed
/// positions on the region's left edge. `data_width` is 32 for the OPB dock
/// and 64 for the PLB dock.
struct ConnectionInterface {
  BusMacro write_channel;   // dock -> module
  BusMacro read_channel;    // module -> dock
  BusMacro write_strobe;    // dock -> module, 1 bit (clock-enable)

  static ConnectionInterface for_width(int data_width);

  [[nodiscard]] fabric::Resources resources() const {
    return write_channel.resources() + read_channel.resources() +
           write_strobe.resources();
  }

  /// The macros a module must declare (directions mirrored) to dock here.
  [[nodiscard]] std::vector<BusMacro> module_side() const;

  /// How many macros module_side() holds at `data_width`: the two data
  /// channels and the write strobe. Nothing is built.
  [[nodiscard]] static int module_ports(int data_width);
};

}  // namespace rtr::busmacro
