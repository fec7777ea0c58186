// Dynamic region: the floorplanned rectangle reserved for run-time
// reconfiguration.
//
// A dynamic region never spans the full device height (section 2.2 of the
// paper: a full-height region would cut left-right routing, and board-level
// pin constraints forbid it), so every configuration frame that carries the
// region also carries static rows above/below -- the partial configurations
// loaded at run time must preserve those rows.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "fabric/config_memory.hpp"
#include "fabric/device.hpp"
#include "fabric/geometry.hpp"
#include "fabric/resources.hpp"

namespace rtr::fabric {

/// Block RAMs granted to the dynamic region from one BRAM column.
struct BramAllocation {
  int column_index = 0;  // index into Device::bram_columns()
  int first_block = 0;
  int blocks = 0;
};

/// Capacity summary of one dynamic area, the unit the placement layer
/// reasons about (src/rtr/placer.hpp): CLB geometry, slice count, granted
/// BRAMs, and bus-macro ports. A bus macro crossing the static boundary
/// occupies one boundary CLB column, so an area terminates at most `cols`
/// interface channels -- the dock interface needs three (write channel,
/// read channel, write strobe; busmacro/bus_macro.cpp).
struct AreaFootprint {
  int rows = 0;
  int cols = 0;
  int slices = 0;
  int bram_blocks = 0;
  int bus_macro_ports = 0;
};

class DynamicRegion {
 public:
  /// Validates the floorplan: the rectangle must lie inside the device, not
  /// overlap a PPC hole, and every BRAM allocation must come from a column
  /// inside the region's column range with blocks reaching its rows.
  DynamicRegion(std::string name, const Device& dev, ClbRect rect,
                std::vector<BramAllocation> brams);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Device& device() const { return *dev_; }
  [[nodiscard]] const ClbRect& rect() const { return rect_; }
  [[nodiscard]] const std::vector<BramAllocation>& brams() const { return brams_; }

  [[nodiscard]] int clbs() const { return rect_.area(); }
  [[nodiscard]] int slices() const { return clbs() * kSlicesPerClb; }
  [[nodiscard]] int bram_blocks() const;
  /// Capacity summary for the placement layer.
  [[nodiscard]] AreaFootprint footprint() const {
    return AreaFootprint{rect_.rows, rect_.cols, slices(), bram_blocks(),
                         rect_.cols};
  }
  [[nodiscard]] Resources resources() const {
    return Resources::from_clbs(clbs(), bram_blocks());
  }
  /// Fraction of the device's slices inside the region (the paper quotes
  /// 25 % for the 32-bit system and 22.4 % for the 64-bit one).
  [[nodiscard]] double slice_percent() const {
    return percent_of(slices(), dev_->total_slices());
  }

  // --- frame geometry ---------------------------------------------------
  /// CLB columns (major addresses) covered by the region.
  [[nodiscard]] std::vector<int> clb_columns() const;
  /// First frame word carrying region rows; the words [first_word,
  /// first_word + rect().rows) of each covered frame belong to the region.
  [[nodiscard]] int first_word() const {
    return ConfigMemory::word_for_row(rect_.row0);
  }
  [[nodiscard]] int word_count() const { return rect_.rows; }

  /// True when frame `a` carries any configuration of this region.
  [[nodiscard]] bool covers(FrameAddress a) const;

  /// Number of frames that carry region configuration (all frames of every
  /// covered column, CLB and BRAM planes).
  [[nodiscard]] int covered_frames() const;

  /// Call `f(first, frames)` on every covered column once, in device scan
  /// order: the rect's CLB columns, then the allocated BRAM columns'
  /// interconnect plane, then their content plane. `first` is the column's
  /// minor-0 frame and its `frames` frames follow it in scan order, so the
  /// walk visits exactly the frames covers() accepts, without the others.
  template <typename F>
  void for_each_covered_column(F&& f) const {
    for (int c = rect_.col0; c < rect_.col_end(); ++c) {
      f(FrameAddress{ColumnType::kClb, c, 0}, kFramesPerClbColumn);
    }
    for (const int c : bram_cols_) {
      f(FrameAddress{ColumnType::kBramInterconnect, c, 0},
        kFramesPerBramInterconnect);
    }
    for (const int c : bram_cols_) {
      f(FrameAddress{ColumnType::kBramContent, c, 0}, kFramesPerBramContent);
    }
  }

  /// The same walk, one `f(FrameAddress)` call per covered frame.
  template <typename F>
  void for_each_covered_frame(F&& f) const {
    for_each_covered_column([&](FrameAddress first, int frames) {
      for (int m = 0; m < frames; ++m) {
        f(FrameAddress{first.type, first.major, m});
      }
    });
  }

  // --- module signature -------------------------------------------------
  // A loaded module advertises itself through a 4-word signature placed at
  // a fixed, region-relative location (the model equivalent of the dock
  // recognising a configured circuit). The words are: magic, module id,
  // bitwise-complement of the id, and a payload revision.
  static constexpr int kSignatureWords = 4;
  static constexpr std::uint32_t kSignatureMagic = 0xD0C4'B175;

  /// Frame that carries the signature: the last minor frame of the region's
  /// first CLB column.
  [[nodiscard]] FrameAddress signature_frame() const {
    return FrameAddress{ColumnType::kClb, rect_.col0, kFramesPerClbColumn - 1};
  }
  /// Word offset of the signature inside the signature frame.
  [[nodiscard]] int signature_word() const { return first_word(); }

  /// Scan `cm` for a valid signature; returns the module id, or -1 when no
  /// coherent signature is present (e.g. mid-reconfiguration).
  [[nodiscard]] int scan_signature(const ConfigMemory& cm) const;

  // --- floorplans of the paper's two systems -----------------------------
  /// 28x11 CLBs (308 CLBs, 25 % of slices) + 6 BRAMs on XC2VP7 (section 3).
  static DynamicRegion xc2vp7_region();
  /// 32x24 CLBs (768 CLBs, 3072 slices, 22.4 %) + 22 BRAMs on XC2VP30
  /// (section 4).
  static DynamicRegion xc2vp30_region();

  /// Extension (section 4.1 suggests "having two separate dynamic areas" to
  /// use the slices the second PPC core fragments): a second region on the
  /// XC2VP30, column-disjoint from xc2vp30_region() so the two can be
  /// reconfigured independently -- full-column frames make column-sharing
  /// regions overwrite each other.
  static DynamicRegion xc2vp30_region_b();

  // --- multi-area partitions ---------------------------------------------
  // A device hosting `n` co-resident dynamic areas. Area 0 is always the
  // legacy single region (so an --areas 1 platform is bit-for-bit the
  // pre-multi-area one, and a module placed in area 0 streams the exact
  // same configuration either way); further areas are pairwise
  // column-disjoint with it, because configuration frames span full device
  // columns (section 2) -- areas sharing a column would overwrite each
  // other on every load.

  /// XC2VP30 partitions: n=1 -> {xc2vp30_region}, n=2 -> {xc2vp30_region,
  /// xc2vp30_region_b}. Checked: 1 <= n <= kMaxAreasXc2vp30.
  static std::vector<DynamicRegion> xc2vp30_areas(int n);
  static constexpr int kMaxAreasXc2vp30 = 2;

  /// XC2VP7 partitions: n must be 1. The 32-bit system's strip already
  /// spans every column its BRAM allocations can reach (columns 3..30 of
  /// 34); the leftover 3-column margins are narrower than any module
  /// footprint, so no useful column-disjoint second area exists -- the
  /// paper's two-area suggestion (section 4.1) targets the larger part.
  static std::vector<DynamicRegion> xc2vp7_areas(int n);
  static constexpr int kMaxAreasXc2vp7 = 1;

  /// True when no configuration frame carries both regions.
  [[nodiscard]] bool column_disjoint_with(const DynamicRegion& other) const;

 private:
  std::string name_;
  const Device* dev_;
  ClbRect rect_;
  std::vector<BramAllocation> brams_;
  std::vector<int> bram_cols_;  // allocated BRAM columns, ascending, once each
};

}  // namespace rtr::fabric
