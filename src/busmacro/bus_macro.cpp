#include "busmacro/bus_macro.hpp"

namespace rtr::busmacro {

ConnectionInterface ConnectionInterface::for_width(int data_width) {
  RTR_CHECK(data_width == 32 || data_width == 64, "dock widths are 32 or 64");
  // Region-relative anchors along the region's bottom edge, one column per
  // channel (the dock sits directly below the region in the floorplans of
  // figures 3 and 4). These positions are frozen for all components of a
  // system -- that is the whole point of a bus macro.
  return ConnectionInterface{
      BusMacro{"dock_write", MacroStyle::kLutBased, MacroDirection::kOutput,
               data_width, fabric::ClbCoord{0, 0}},
      BusMacro{"dock_read", MacroStyle::kLutBased, MacroDirection::kInput,
               data_width, fabric::ClbCoord{0, 1}},
      BusMacro{"dock_we", MacroStyle::kLutBased, MacroDirection::kOutput, 1,
               fabric::ClbCoord{0, 2}},
  };
}

int ConnectionInterface::module_ports(int data_width) {
  RTR_CHECK(data_width == 32 || data_width == 64, "dock widths are 32 or 64");
  return 3;
}

std::vector<BusMacro> ConnectionInterface::module_side() const {
  auto mirror = [](const BusMacro& m) {
    return BusMacro{m.name(), m.style(),
                    m.direction() == MacroDirection::kInput
                        ? MacroDirection::kOutput
                        : MacroDirection::kInput,
                    m.width(), m.anchor()};
  };
  return {mirror(write_channel), mirror(read_channel), mirror(write_strobe)};
}

}  // namespace rtr::busmacro
