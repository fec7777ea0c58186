#include "sim/check.hpp"
#include "fabric/dynamic_region.hpp"

#include <algorithm>

namespace rtr::fabric {

namespace {
/// Row span of block `b` in a column of `blocks` blocks on a device with
/// `rows` CLB rows: blocks are spread evenly over the column height.
ClbRect block_rows(int rows, int blocks, int b) {
  const int r0 = rows * b / blocks;
  const int r1 = rows * (b + 1) / blocks;
  return ClbRect{r0, 0, r1 - r0, 1};
}
}  // namespace

DynamicRegion::DynamicRegion(std::string name, const Device& dev, ClbRect rect,
                             std::vector<BramAllocation> brams)
    : name_(std::move(name)), dev_(&dev), rect_(rect), brams_(std::move(brams)) {
  const ClbRect whole{0, 0, dev.clb_rows(), dev.clb_cols()};
  RTR_CHECK(whole.contains(rect_), "dynamic region outside device");
  RTR_CHECK(rect_.rows < dev.clb_rows(), "dynamic region must not span the full device height");
  for (const auto& h : dev.ppc_holes()) {
    RTR_CHECK(!rect_.intersects(h), "dynamic region overlaps a PPC core");
    (void)h;
  }
  for (const auto& b : brams_) {
    RTR_CHECK(b.column_index >= 0 &&
                  b.column_index < static_cast<int>(dev.bram_columns().size()),
              "BRAM column index out of range");
    const BramColumn& col = dev.bram_columns()[b.column_index];
    RTR_CHECK(col.clb_col >= rect_.col0 && col.clb_col < rect_.col_end(),
              "BRAM allocation from a column outside the region");
    RTR_CHECK(b.first_block >= 0 && b.first_block + b.blocks <= col.blocks,
              "BRAM block range outside column");
    for (int i = 0; i < b.blocks; ++i) {
      const ClbRect span =
          block_rows(dev.clb_rows(), col.blocks, b.first_block + i);
      RTR_CHECK(span.row_end() > rect_.row0 && span.row0 < rect_.row_end(),
                "allocated BRAM block does not reach the region rows");
      (void)span;
    }
    (void)col;
    bram_cols_.push_back(b.column_index);
  }
  std::sort(bram_cols_.begin(), bram_cols_.end());
  bram_cols_.erase(std::unique(bram_cols_.begin(), bram_cols_.end()),
                   bram_cols_.end());
}

int DynamicRegion::bram_blocks() const {
  int n = 0;
  for (const auto& b : brams_) n += b.blocks;
  return n;
}

std::vector<int> DynamicRegion::clb_columns() const {
  std::vector<int> cols(static_cast<std::size_t>(rect_.cols));
  for (int i = 0; i < rect_.cols; ++i) cols[static_cast<std::size_t>(i)] = rect_.col0 + i;
  return cols;
}

bool DynamicRegion::covers(FrameAddress a) const {
  switch (a.type) {
    case ColumnType::kClb:
      return a.major >= rect_.col0 && a.major < rect_.col_end();
    case ColumnType::kBramInterconnect:
    case ColumnType::kBramContent:
      return std::binary_search(bram_cols_.begin(), bram_cols_.end(), a.major);
  }
  return false;
}

int DynamicRegion::covered_frames() const {
  return rect_.cols * kFramesPerClbColumn +
         static_cast<int>(bram_cols_.size()) *
             (kFramesPerBramInterconnect + kFramesPerBramContent);
}

int DynamicRegion::scan_signature(const ConfigMemory& cm) const {
  const auto f = cm.frame(signature_frame());
  const int w = signature_word();
  const std::uint32_t magic = f[static_cast<std::size_t>(w)];
  const std::uint32_t id = f[static_cast<std::size_t>(w + 1)];
  const std::uint32_t inv = f[static_cast<std::size_t>(w + 2)];
  if (magic != kSignatureMagic || inv != ~id) return -1;
  return static_cast<int>(id);
}

DynamicRegion DynamicRegion::xc2vp7_region() {
  // Top strip of the XC2VP7: rows 29..39, columns 3..30 (28x11 = 308 CLBs,
  // 25 % of the 4928 slices), clear of the PPC hole. Six BRAMs from the two
  // leftmost BRAM columns reach the strip.
  return DynamicRegion{
      "dyn32",
      Device::xc2vp7(),
      ClbRect{/*row0=*/29, /*col0=*/3, /*rows=*/11, /*cols=*/28},
      {BramAllocation{1, 8, 3}, BramAllocation{2, 8, 3}}};
}

DynamicRegion DynamicRegion::xc2vp30_region() {
  // Top strip of the XC2VP30: rows 56..79, columns 2..33 (32x24 = 768 CLBs,
  // 3072 slices = 22.4 %). The second PPC core sits below-right of the
  // region, which is what fragments the remaining free area (section 4.1).
  return DynamicRegion{
      "dyn64",
      Device::xc2vp30(),
      ClbRect{/*row0=*/56, /*col0=*/2, /*rows=*/24, /*cols=*/32},
      {BramAllocation{0, 13, 4}, BramAllocation{1, 13, 4},
       BramAllocation{2, 13, 4}, BramAllocation{3, 13, 4},
       BramAllocation{4, 14, 3}, BramAllocation{5, 14, 3}}};
}

DynamicRegion DynamicRegion::xc2vp30_region_b() {
  // Right edge of the XC2VP30: rows 0..23, columns 34..45 (24x12 = 288
  // CLBs, 1152 slices). Clear of both PPC holes and column-disjoint from
  // the primary region. Ten BRAMs from the two rightmost columns.
  return DynamicRegion{
      "dyn64b",
      Device::xc2vp30(),
      ClbRect{/*row0=*/0, /*col0=*/34, /*rows=*/24, /*cols=*/12},
      {BramAllocation{6, 0, 5}, BramAllocation{7, 0, 5}}};
}

std::vector<DynamicRegion> DynamicRegion::xc2vp30_areas(int n) {
  RTR_CHECK(n >= 1 && n <= kMaxAreasXc2vp30,
            "the XC2VP30 hosts 1 or 2 dynamic areas");
  std::vector<DynamicRegion> areas;
  areas.push_back(xc2vp30_region());
  if (n == 2) {
    areas.push_back(xc2vp30_region_b());
    RTR_CHECK(areas[0].column_disjoint_with(areas[1]),
              "co-resident areas must be column-disjoint");
  }
  return areas;
}

std::vector<DynamicRegion> DynamicRegion::xc2vp7_areas(int n) {
  RTR_CHECK(n == 1, "the XC2VP7 has no room for a second dynamic area");
  std::vector<DynamicRegion> areas;
  areas.push_back(xc2vp7_region());
  return areas;
}

bool DynamicRegion::column_disjoint_with(const DynamicRegion& other) const {
  RTR_CHECK(dev_ == other.dev_, "regions on different devices");
  const bool clb_overlap = rect_.col0 < other.rect_.col_end() &&
                           other.rect_.col0 < rect_.col_end();
  if (clb_overlap) return false;
  for (const auto& a : brams_) {
    for (const auto& b : other.brams_) {
      if (a.column_index == b.column_index) return false;
    }
  }
  return true;
}

}  // namespace rtr::fabric
