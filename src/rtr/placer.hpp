// AreaPlacer: deterministic bin-packing placement of module footprints
// onto a device's co-resident dynamic areas.
//
// One device exposes N column-disjoint dynamic areas (fabric/
// dynamic_region.hpp), each hosting at most one module at a time -- an
// area is a bin of capacity one, constrained by its footprint (rows, cols,
// BRAM blocks, bus-macro ports). The placer is the pure decision core the
// ModuleManager consults before every load:
//
//   1. residency hit: the behaviour already occupies some area -- serve it
//      there (the manager only re-binds the dock, no reconfiguration);
//   2. first fit: the lowest-indexed *empty* compatible area. Area 0 is
//      the legacy primary region, so a single-behaviour workload places
//      exactly where the single-area platform would -- byte-identical
//      output (the differential test in tests/placer_test.cpp pins this);
//   3. LRU eviction: every area full -- evict the least recently used
//      compatible area (ties to the lowest index). Plain LRU measured
//      better here than policies that pin area-bound tenants (sparing the
//      one wide area's resident starves the popular narrow set of its
//      second slot);
//   4. incompatible: no area fits the footprint. The manager then targets
//      area 0 so the BitLinker reports the same "does not fit" error the
//      single-area platform would, and serving degrades to software.
//
// For batch planning (tests, docs, warm-up analysis) ffd_pack() runs the
// classic first-fit-decreasing discipline over a whole module set: sort by
// CLB demand descending, then first fit. With one-module bins that is the
// steady state the online policy converges to -- big modules claim big
// areas, evicted small modules re-place into small ones.
//
// The placer is pure and deterministic: no clocks, no RNG, no stats --
// recency is a logical use counter, so identical call sequences make
// identical decisions on any host.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/dynamic_region.hpp"
#include "hw/library.hpp"

namespace rtr {

/// Resource demand of one task module, the placement-relevant slice of
/// bitlinker::ComponentDescriptor.
struct ModuleFootprint {
  int rows = 0;
  int cols = 0;
  int bram_blocks = 0;
  int bus_macro_ports = 0;
};

/// Footprint of `id`'s component at the given dock width (hw/library.cpp
/// geometry; the port demand is the dock interface's macro count), read
/// without building the component.
[[nodiscard]] ModuleFootprint module_footprint(hw::BehaviorId id,
                                               int dock_width);

/// True when the area can host the module: CLB rectangle, BRAM grant and
/// boundary bus-macro ports all suffice.
[[nodiscard]] bool area_fits(const fabric::AreaFootprint& area,
                             const ModuleFootprint& m);

class AreaPlacer {
 public:
  explicit AreaPlacer(std::vector<fabric::AreaFootprint> areas);

  struct Decision {
    int area = -1;         // target area; -1 when no area fits
    int evicted = -1;      // behaviour displaced from `area`, -1 when none
    bool resident = false; // behaviour already occupies `area`
    bool compatible = true;
  };

  /// Decide without committing (prefetch/warm planning).
  [[nodiscard]] Decision plan(int behavior, const ModuleFootprint& m) const;

  /// Decide and commit: records residency and refreshes recency.
  Decision place(int behavior, const ModuleFootprint& m);

  /// Mark `area` empty (a load into it failed mid-stream).
  void evict(int area);
  /// Forget all residency (manager invalidate()).
  void reset();

  [[nodiscard]] int area_count() const {
    return static_cast<int>(areas_.size());
  }
  /// Behaviour resident in `area`, -1 when empty.
  [[nodiscard]] int resident(int area) const;
  /// Area hosting `behavior`, -1 when not resident anywhere.
  [[nodiscard]] int area_of(int behavior) const;
  [[nodiscard]] const std::vector<fabric::AreaFootprint>& areas() const {
    return areas_;
  }

  /// First-fit-decreasing batch packing: modules sorted by CLB demand
  /// (rows x cols) descending, ties by ascending module index, each taking
  /// the lowest-indexed free area that fits. Returns one area index per
  /// module, -1 for the unplaced.
  static std::vector<int> ffd_pack(
      const std::vector<fabric::AreaFootprint>& areas,
      const std::vector<ModuleFootprint>& modules);

 private:
  struct Slot {
    int resident = -1;
    std::uint64_t last_use = 0;
  };

  [[nodiscard]] Decision decide(int behavior, const ModuleFootprint& m) const;

  std::vector<fabric::AreaFootprint> areas_;
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;  // logical recency, not simulated time
};

}  // namespace rtr
