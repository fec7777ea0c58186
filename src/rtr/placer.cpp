#include "rtr/placer.hpp"

#include <algorithm>
#include <numeric>

#include "busmacro/bus_macro.hpp"
#include "sim/check.hpp"

namespace rtr {

ModuleFootprint module_footprint(hw::BehaviorId id, int dock_width) {
  const hw::ModuleShape s = hw::shape_of(id);
  return ModuleFootprint{
      s.rows, s.cols, s.brams,
      busmacro::ConnectionInterface::module_ports(dock_width)};
}

bool area_fits(const fabric::AreaFootprint& area, const ModuleFootprint& m) {
  return m.rows <= area.rows && m.cols <= area.cols &&
         m.bram_blocks <= area.bram_blocks &&
         m.bus_macro_ports <= area.bus_macro_ports;
}

AreaPlacer::AreaPlacer(std::vector<fabric::AreaFootprint> areas)
    : areas_(std::move(areas)), slots_(areas_.size()) {
  RTR_CHECK(!areas_.empty(), "placer needs at least one area");
}

AreaPlacer::Decision AreaPlacer::decide(int behavior,
                                        const ModuleFootprint& m) const {
  Decision d;
  if (const int at = area_of(behavior); at >= 0) {
    d.area = at;
    d.resident = true;
    return d;
  }
  int lru = -1;
  for (int i = 0; i < area_count(); ++i) {
    if (!area_fits(areas_[static_cast<std::size_t>(i)], m)) continue;
    const Slot& s = slots_[static_cast<std::size_t>(i)];
    if (s.resident < 0) {  // first fit: lowest-indexed empty area
      d.area = i;
      return d;
    }
    if (lru < 0 || s.last_use <
                       slots_[static_cast<std::size_t>(lru)].last_use) {
      lru = i;  // strict < keeps ties on the lowest index
    }
  }
  if (lru < 0) {
    d.compatible = false;
    return d;
  }
  d.area = lru;
  d.evicted = slots_[static_cast<std::size_t>(lru)].resident;
  return d;
}

AreaPlacer::Decision AreaPlacer::plan(int behavior,
                                      const ModuleFootprint& m) const {
  return decide(behavior, m);
}

AreaPlacer::Decision AreaPlacer::place(int behavior,
                                       const ModuleFootprint& m) {
  const Decision d = decide(behavior, m);
  if (d.area >= 0) {
    Slot& s = slots_[static_cast<std::size_t>(d.area)];
    s.resident = behavior;
    s.last_use = ++tick_;
  }
  return d;
}

void AreaPlacer::evict(int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "evict: area out of range");
  slots_[static_cast<std::size_t>(area)].resident = -1;
}

void AreaPlacer::reset() {
  for (Slot& s : slots_) s = Slot{};
  tick_ = 0;
}

int AreaPlacer::resident(int area) const {
  RTR_CHECK(area >= 0 && area < area_count(), "resident: area out of range");
  return slots_[static_cast<std::size_t>(area)].resident;
}

int AreaPlacer::area_of(int behavior) const {
  for (int i = 0; i < area_count(); ++i) {
    if (slots_[static_cast<std::size_t>(i)].resident == behavior) return i;
  }
  return -1;
}

std::vector<int> AreaPlacer::ffd_pack(
    const std::vector<fabric::AreaFootprint>& areas,
    const std::vector<ModuleFootprint>& modules) {
  std::vector<std::size_t> order(modules.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return modules[a].rows * modules[a].cols >
                            modules[b].rows * modules[b].cols;
                   });
  std::vector<int> placement(modules.size(), -1);
  std::vector<bool> used(areas.size(), false);
  for (const std::size_t mi : order) {
    for (std::size_t ai = 0; ai < areas.size(); ++ai) {
      if (used[ai] || !area_fits(areas[ai], modules[mi])) continue;
      placement[mi] = static_cast<int>(ai);
      used[ai] = true;
      break;
    }
  }
  return placement;
}

}  // namespace rtr
