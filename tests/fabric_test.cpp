// Unit tests for the fabric substrate: device catalog facts from the paper,
// frame addressing, configuration memory, and dynamic-region geometry.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "fabric/config_memory.hpp"
#include "fabric/device.hpp"
#include "fabric/dynamic_region.hpp"
#include "fabric/frame_address.hpp"
#include "fabric/geometry.hpp"
#include "fabric/resources.hpp"

namespace rtr::fabric {
namespace {

TEST(Geometry, RectBasics) {
  ClbRect r{2, 3, 4, 5};
  EXPECT_EQ(r.area(), 20);
  EXPECT_EQ(r.row_end(), 6);
  EXPECT_EQ(r.col_end(), 8);
  EXPECT_TRUE(r.contains(ClbCoord{2, 3}));
  EXPECT_TRUE(r.contains(ClbCoord{5, 7}));
  EXPECT_FALSE(r.contains(ClbCoord{6, 3}));
  EXPECT_FALSE(r.contains(ClbCoord{2, 8}));
}

TEST(Geometry, IntersectionAndContainment) {
  ClbRect a{0, 0, 10, 10};
  ClbRect b{5, 5, 10, 10};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.intersection(b), (ClbRect{5, 5, 5, 5}));
  EXPECT_TRUE(a.contains(ClbRect{1, 1, 2, 2}));
  EXPECT_FALSE(a.contains(b));
  ClbRect c{10, 0, 5, 5};  // touching edge: half-open, no overlap
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.intersection(c).empty());
}

TEST(Resources, ArithmeticAndFit) {
  Resources a = Resources::from_clbs(10, 2);
  EXPECT_EQ(a.slices, 40);
  EXPECT_EQ(a.luts, 80);
  EXPECT_EQ(a.flip_flops, 80);
  EXPECT_EQ(a.bram_blocks, 2);
  Resources b{10, 20, 20, 1};
  EXPECT_TRUE(b.fits_in(a));
  EXPECT_FALSE(a.fits_in(b));
  EXPECT_EQ((a + b).slices, 50);
  EXPECT_EQ((a - b).bram_blocks, 1);
  EXPECT_DOUBLE_EQ(percent_of(25, 100), 25.0);
  EXPECT_DOUBLE_EQ(percent_of(1, 0), 0.0);
}

// --- Device catalog: the facts quoted in sections 3.1 and 4.1 -------------

TEST(Device, Xc2vp7MatchesPaper) {
  const Device& d = Device::xc2vp7();
  EXPECT_EQ(d.total_slices(), 4928);
  EXPECT_EQ(d.total_brams(), 44);
  EXPECT_EQ(d.ppc_cores(), 1);
  EXPECT_EQ(d.speed_grade(), 6);
}

TEST(Device, Xc2vp30MatchesPaper) {
  const Device& d = Device::xc2vp30();
  EXPECT_EQ(d.total_slices(), 13696);
  EXPECT_EQ(d.total_brams(), 136);
  EXPECT_EQ(d.ppc_cores(), 2);
  EXPECT_EQ(d.speed_grade(), 7);
  // "about 2.7 times more slices than the previously used device"
  const double ratio = static_cast<double>(d.total_slices()) /
                       Device::xc2vp7().total_slices();
  EXPECT_NEAR(ratio, 2.78, 0.1);
}

TEST(Device, UsableClbsExcludeHoles) {
  const Device& d = Device::xc2vp7();
  EXPECT_EQ(d.total_clbs(), 40 * 34 - 16 * 8);
  // A rect fully inside a hole has no usable CLBs.
  const ClbRect& hole = d.ppc_holes()[0];
  EXPECT_EQ(d.clbs_in(hole), 0);
  EXPECT_FALSE(d.is_usable(ClbCoord{hole.row0, hole.col0}));
  EXPECT_TRUE(d.is_usable(ClbCoord{0, 0}));
  EXPECT_FALSE(d.is_usable(ClbCoord{-1, 0}));
  EXPECT_FALSE(d.is_usable(ClbCoord{0, 34}));
}

TEST(Device, FrameCounts) {
  const Device& d = Device::xc2vp7();
  EXPECT_EQ(d.columns_of(ColumnType::kClb), 34);
  EXPECT_EQ(d.columns_of(ColumnType::kBramContent), 4);
  EXPECT_EQ(d.total_frames(),
            34 * kFramesPerClbColumn +
                4 * (kFramesPerBramInterconnect + kFramesPerBramContent));
  EXPECT_EQ(d.words_per_frame(), 42);
  EXPECT_GT(d.full_bitstream_bytes(), 0);
}

// --- Frame addressing ------------------------------------------------------

TEST(FrameAddress, PackUnpackRoundTrip) {
  for (ColumnType t : {ColumnType::kClb, ColumnType::kBramInterconnect,
                       ColumnType::kBramContent}) {
    for (int major : {0, 7, 45}) {
      for (int minor : {0, 21, 63}) {
        FrameAddress a{t, major, minor};
        EXPECT_EQ(FrameAddress::unpack(a.pack()), a);
      }
    }
  }
}

TEST(FrameAddress, ValidityAgainstDevice) {
  const Device& d = Device::xc2vp7();
  EXPECT_TRUE((FrameAddress{ColumnType::kClb, 33, 21}.valid_for(d)));
  EXPECT_FALSE((FrameAddress{ColumnType::kClb, 34, 0}.valid_for(d)));
  EXPECT_FALSE((FrameAddress{ColumnType::kClb, 0, 22}.valid_for(d)));
  EXPECT_TRUE((FrameAddress{ColumnType::kBramContent, 3, 63}.valid_for(d)));
  EXPECT_FALSE((FrameAddress{ColumnType::kBramContent, 4, 0}.valid_for(d)));
}

TEST(FrameAddress, ScanOrderCoversAllFramesOnce) {
  const Device& d = Device::xc2vp7();
  FrameAddress a{ColumnType::kClb, 0, 0};
  int count = 0;
  while (a.valid_for(d)) {
    ++count;
    a = a.next_in(d);
  }
  EXPECT_EQ(count, d.total_frames());
}

// --- Configuration memory ---------------------------------------------------

TEST(ConfigMemory, GenerationBumpsOnEveryWritePath) {
  ConfigMemory cm{Device::xc2vp7()};
  EXPECT_EQ(cm.generation(), 0u);

  std::vector<std::uint32_t> data(static_cast<size_t>(cm.words_per_frame()),
                                  7u);
  const FrameAddress a{ColumnType::kClb, 5, 3};
  cm.write_frame(a, data);
  const std::uint64_t g1 = cm.generation();
  EXPECT_GT(g1, 0u);

  const std::uint32_t patch[2] = {1, 2};
  cm.write_words(a, 4, patch);
  EXPECT_GT(cm.generation(), g1);

  const std::uint64_t g2 = cm.generation();
  const auto snap = cm.snapshot();
  cm.restore(snap);
  EXPECT_GT(cm.generation(), g2);  // even a content-preserving restore

  const std::uint64_t g3 = cm.generation();
  cm.clear();
  EXPECT_GT(cm.generation(), g3);

  const std::uint64_t g4 = cm.generation();
  cm.bump_generation();  // explicit invalidation, no content change
  EXPECT_EQ(cm.generation(), g4 + 1);

  // Reads never move the tag.
  const std::uint64_t g5 = cm.generation();
  (void)cm.frame(a);
  (void)cm.snapshot();
  EXPECT_EQ(cm.generation(), g5);
}

TEST(ConfigMemory, FrameReadWriteRoundTrip) {
  ConfigMemory cm{Device::xc2vp7()};
  std::vector<std::uint32_t> data(static_cast<size_t>(cm.words_per_frame()));
  std::iota(data.begin(), data.end(), 100u);
  const FrameAddress a{ColumnType::kClb, 5, 3};
  cm.write_frame(a, data);
  auto back = cm.frame(a);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), back.begin()));
  // Neighbouring frames stay zero.
  for (std::uint32_t w : cm.frame(FrameAddress{ColumnType::kClb, 5, 4}))
    EXPECT_EQ(w, 0u);
}

TEST(ConfigMemory, WordRangeWriteIsReadModifyWrite) {
  ConfigMemory cm{Device::xc2vp7()};
  const FrameAddress a{ColumnType::kClb, 0, 0};
  std::vector<std::uint32_t> full(static_cast<size_t>(cm.words_per_frame()), 0xAAAAAAAA);
  cm.write_frame(a, full);
  const std::uint32_t patch[3] = {1, 2, 3};
  cm.write_words(a, 10, patch);
  auto f = cm.frame(a);
  EXPECT_EQ(f[9], 0xAAAAAAAAu);
  EXPECT_EQ(f[10], 1u);
  EXPECT_EQ(f[12], 3u);
  EXPECT_EQ(f[13], 0xAAAAAAAAu);
}

TEST(ConfigMemory, WordForRowMapping) {
  EXPECT_EQ(ConfigMemory::word_for_row(0), 1);
  EXPECT_EQ(ConfigMemory::word_for_row(39), 40);
}

TEST(ConfigMemory, DiffAndSnapshot) {
  ConfigMemory a{Device::xc2vp7()};
  ConfigMemory b{Device::xc2vp7()};
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 0);
  const std::uint32_t one[1] = {0xFF};
  a.write_words(FrameAddress{ColumnType::kClb, 1, 1}, 5, one);
  a.write_words(FrameAddress{ColumnType::kBramContent, 0, 9}, 0, one);
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 2);
  auto snap = a.snapshot();
  a.clear();
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 0);
  a.restore(snap);
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 2);
}

TEST(ConfigMemory, TouchedTrackingFollowsWrites) {
  ConfigMemory cm{Device::xc2vp7()};
  EXPECT_EQ(cm.touched_frames(), 0);
  const FrameAddress a{ColumnType::kClb, 1, 1};
  EXPECT_FALSE(cm.frame_touched(a));
  const std::uint32_t one[1] = {0xFF};
  cm.write_words(a, 5, one);
  EXPECT_TRUE(cm.frame_touched(a));
  EXPECT_EQ(cm.touched_frames(), 1);
  EXPECT_FALSE(cm.frame_touched(FrameAddress{ColumnType::kClb, 1, 2}));
}

TEST(ConfigMemory, WritingZerosTouchesWithoutCreatingADiff) {
  // A touched frame may still equal its untouched counterpart; the touched
  // bit is an overapproximation and must not be counted as a difference.
  ConfigMemory a{Device::xc2vp7()};
  ConfigMemory b{Device::xc2vp7()};
  const std::uint32_t zero[1] = {0};
  a.write_words(FrameAddress{ColumnType::kClb, 2, 0}, 3, zero);
  EXPECT_TRUE(a.frame_touched(FrameAddress{ColumnType::kClb, 2, 0}));
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 0);
}

TEST(ConfigMemory, ClearResetsTouchedTracking) {
  ConfigMemory cm{Device::xc2vp7()};
  const std::uint32_t one[1] = {0xFF};
  cm.write_words(FrameAddress{ColumnType::kClb, 0, 0}, 0, one);
  cm.write_words(FrameAddress{ColumnType::kBramContent, 0, 4}, 0, one);
  EXPECT_EQ(cm.touched_frames(), 2);
  cm.clear();
  EXPECT_EQ(cm.touched_frames(), 0);
  EXPECT_FALSE(cm.frame_touched(FrameAddress{ColumnType::kClb, 0, 0}));
  // Writes after a clear are tracked again.
  cm.write_words(FrameAddress{ColumnType::kClb, 3, 1}, 1, one);
  EXPECT_EQ(cm.touched_frames(), 1);
}

TEST(ConfigMemory, RestoreRecomputesTouchedFromContent) {
  ConfigMemory a{Device::xc2vp7()};
  ConfigMemory b{Device::xc2vp7()};
  const std::uint32_t one[1] = {0xFF};
  a.write_words(FrameAddress{ColumnType::kClb, 1, 1}, 5, one);
  a.write_words(FrameAddress{ColumnType::kBramContent, 0, 9}, 0, one);
  const auto snap = a.snapshot();
  a.clear();
  a.restore(snap);
  EXPECT_EQ(a.touched_frames(), 2);
  EXPECT_TRUE(a.frame_touched(FrameAddress{ColumnType::kClb, 1, 1}));
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 2);
  // Restoring the power-on snapshot drops every touched bit, so later
  // diffs skip the whole device again.
  const ConfigMemory fresh{Device::xc2vp7()};
  a.restore(fresh.snapshot());
  EXPECT_EQ(a.touched_frames(), 0);
  EXPECT_EQ(ConfigMemory::diff_frames(a, b), 0);
}

TEST(ConfigMemory, LinearIndexIsDenseAndUnique) {
  const Device& d = Device::xc2vp7();
  ConfigMemory cm{d};
  std::vector<char> seen(static_cast<size_t>(cm.total_frames()), 0);
  FrameAddress a{ColumnType::kClb, 0, 0};
  while (a.valid_for(d)) {
    const int idx = cm.linear_index(a);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, cm.total_frames());
    EXPECT_EQ(seen[static_cast<size_t>(idx)], 0);
    seen[static_cast<size_t>(idx)] = 1;
    a = a.next_in(d);
  }
}

// --- Dynamic regions: the paper's two floorplans ----------------------------

TEST(DynamicRegion, Paper32BitFloorplan) {
  const DynamicRegion r = DynamicRegion::xc2vp7_region();
  EXPECT_EQ(r.rect().rows, 11);
  EXPECT_EQ(r.rect().cols, 28);
  EXPECT_EQ(r.clbs(), 308);
  EXPECT_EQ(r.slices(), 1232);
  EXPECT_EQ(r.bram_blocks(), 6);
  EXPECT_NEAR(r.slice_percent(), 25.0, 0.01);  // "25% of the total"
}

TEST(DynamicRegion, Paper64BitFloorplan) {
  const DynamicRegion r = DynamicRegion::xc2vp30_region();
  EXPECT_EQ(r.rect().rows, 24);
  EXPECT_EQ(r.rect().cols, 32);
  EXPECT_EQ(r.clbs(), 768);
  EXPECT_EQ(r.slices(), 3072);
  EXPECT_EQ(r.bram_blocks(), 22);
  EXPECT_NEAR(r.slice_percent(), 22.4, 0.05);  // "22.4% of the total"
}

TEST(DynamicRegion, NotFullHeight) {
  // Section 2.2: dynamic areas must not span the full device height.
  const DynamicRegion r32 = DynamicRegion::xc2vp7_region();
  EXPECT_LT(r32.rect().rows, r32.device().clb_rows());
  const DynamicRegion r64 = DynamicRegion::xc2vp30_region();
  EXPECT_LT(r64.rect().rows, r64.device().clb_rows());
}

TEST(DynamicRegion, CoversItsColumnsOnly) {
  const DynamicRegion r = DynamicRegion::xc2vp7_region();
  EXPECT_TRUE(r.covers(FrameAddress{ColumnType::kClb, r.rect().col0, 0}));
  EXPECT_TRUE(r.covers(FrameAddress{ColumnType::kClb, r.rect().col_end() - 1, 21}));
  EXPECT_FALSE(r.covers(FrameAddress{ColumnType::kClb, r.rect().col_end(), 0}));
  EXPECT_FALSE(r.covers(FrameAddress{ColumnType::kClb, r.rect().col0 - 1, 0}));
  // Allocated BRAM columns are covered in both planes.
  EXPECT_TRUE(r.covers(FrameAddress{ColumnType::kBramContent, 1, 0}));
  EXPECT_TRUE(r.covers(FrameAddress{ColumnType::kBramInterconnect, 2, 0}));
  EXPECT_FALSE(r.covers(FrameAddress{ColumnType::kBramContent, 0, 0}));
  EXPECT_GT(r.covered_frames(), 28 * kFramesPerClbColumn);
}

TEST(DynamicRegion, CoveredWalkMatchesTheCoversScan) {
  // The covered-frame walk against covers() tested on every device frame:
  // the same frames, each once, in the same scan order, by whole columns.
  for (const DynamicRegion& r :
       {DynamicRegion::xc2vp7_region(), DynamicRegion::xc2vp30_region(),
        DynamicRegion::xc2vp30_region_b()}) {
    SCOPED_TRACE(r.name());
    const Device& dev = r.device();
    std::vector<FrameAddress> scan;
    for (FrameAddress a{ColumnType::kClb, 0, 0}; a.valid_for(dev);
         a = a.next_in(dev)) {
      if (r.covers(a)) scan.push_back(a);
    }
    std::vector<FrameAddress> walk;
    r.for_each_covered_frame([&](FrameAddress a) { walk.push_back(a); });
    EXPECT_EQ(walk, scan);
    EXPECT_EQ(static_cast<int>(walk.size()), r.covered_frames());

    std::vector<FrameAddress> by_column;
    r.for_each_covered_column([&](FrameAddress first, int frames) {
      EXPECT_EQ(first.minor, 0);
      EXPECT_EQ(frames, Device::frames_in_column(first.type));
      for (FrameAddress a = first; frames-- > 0; a = a.next_in(dev)) {
        by_column.push_back(a);
      }
    });
    EXPECT_EQ(by_column, scan);
  }
}

TEST(ConfigMemory, FramesSpanConsecutiveFrames) {
  ConfigMemory cm{Device::xc2vp7()};
  const FrameAddress first{ColumnType::kBramInterconnect, 1, 20};
  const std::uint32_t a[1] = {7};
  const std::uint32_t b[1] = {9};
  cm.write_words(first, 3, a);
  cm.write_words(first.next_in(cm.device()).next_in(cm.device()), 5, b);
  const auto words = cm.frames(first, 3);
  const auto wpf = static_cast<std::size_t>(cm.words_per_frame());
  ASSERT_EQ(words.size(), 3 * wpf);
  EXPECT_EQ(words[3], 7u);
  EXPECT_EQ(words[2 * wpf + 5], 9u);
  EXPECT_EQ(std::accumulate(words.begin(), words.end(), std::uint64_t{0}),
            16u);
}

TEST(DynamicRegion, ColumnListMatchesRect) {
  const DynamicRegion r = DynamicRegion::xc2vp30_region();
  const auto cols = r.clb_columns();
  ASSERT_EQ(static_cast<int>(cols.size()), 32);
  EXPECT_EQ(cols.front(), r.rect().col0);
  EXPECT_EQ(cols.back(), r.rect().col_end() - 1);
}

TEST(DynamicRegion, SignatureScan) {
  const DynamicRegion r = DynamicRegion::xc2vp7_region();
  ConfigMemory cm{r.device()};
  EXPECT_EQ(r.scan_signature(cm), -1);  // blank fabric: nothing bound

  const std::uint32_t id = 0x17;
  const std::uint32_t sig[DynamicRegion::kSignatureWords] = {
      DynamicRegion::kSignatureMagic, id, ~id, 1};
  cm.write_words(r.signature_frame(), r.signature_word(), sig);
  EXPECT_EQ(r.scan_signature(cm), 0x17);

  // Corrupt the complement word: the signature must stop validating
  // (models a half-applied reconfiguration).
  const std::uint32_t bad[1] = {0xDEAD};
  cm.write_words(r.signature_frame(), r.signature_word() + 2, bad);
  EXPECT_EQ(r.scan_signature(cm), -1);
}

TEST(DynamicRegion, SignatureLiesWithinRegionRows) {
  for (const DynamicRegion& r :
       {DynamicRegion::xc2vp7_region(), DynamicRegion::xc2vp30_region()}) {
    EXPECT_GE(r.signature_word(), r.first_word());
    EXPECT_LE(r.signature_word() + DynamicRegion::kSignatureWords,
              r.first_word() + r.word_count());
    EXPECT_TRUE(r.covers(r.signature_frame()));
  }
}

}  // namespace
}  // namespace rtr::fabric
