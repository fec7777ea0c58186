// Tests for bus macros and the BitLinker assembler: fit checking, macro
// mating, completeness, signature/payload-hash embedding, and the
// differential-configuration hazard of paper section 2.2.
#include <gtest/gtest.h>

#include <string>

#include "bitlinker/bitlinker.hpp"
#include "bitlinker/component.hpp"
#include "bitstream/partial_config.hpp"
#include "busmacro/bus_macro.hpp"
#include "fabric/device.hpp"
#include "fabric/dynamic_region.hpp"
#include "sim/random.hpp"

namespace rtr::bitlinker {
namespace {

using busmacro::BusMacro;
using busmacro::ConnectionInterface;
using busmacro::MacroDirection;
using busmacro::MacroStyle;
using fabric::ClbCoord;
using fabric::ConfigMemory;
using fabric::DynamicRegion;

// --- bus macros -------------------------------------------------------------

TEST(BusMacro, GeometryAndResources) {
  BusMacro m{"m", MacroStyle::kLutBased, MacroDirection::kOutput, 32,
             ClbCoord{0, 0}};
  EXPECT_EQ(m.clb_rows(), 4);  // 8 bits per CLB
  EXPECT_EQ(m.resources().luts, 32);
  EXPECT_EQ(m.resources().slices, 16);
  BusMacro t{"t", MacroStyle::kTristate, MacroDirection::kOutput, 32,
             ClbCoord{0, 0}};
  // The paper prefers LUT-based macros "since they consume less area".
  EXPECT_GT(t.resources().slices, m.resources().slices);
}

TEST(BusMacro, MatingRules) {
  BusMacro out{"x", MacroStyle::kLutBased, MacroDirection::kOutput, 8,
               ClbCoord{3, 5}};
  BusMacro in{"x", MacroStyle::kLutBased, MacroDirection::kInput, 8,
              ClbCoord{3, 5}};
  EXPECT_TRUE(out.mates_with(in));
  EXPECT_TRUE(in.mates_with(out));
  EXPECT_FALSE(out.mates_with(out));  // same direction
  BusMacro moved{"x", MacroStyle::kLutBased, MacroDirection::kInput, 8,
                 ClbCoord{3, 6}};
  EXPECT_FALSE(out.mates_with(moved));  // anchor moved
  BusMacro wider{"x", MacroStyle::kLutBased, MacroDirection::kInput, 16,
                 ClbCoord{3, 5}};
  EXPECT_FALSE(out.mates_with(wider));  // width mismatch
  BusMacro tri{"x", MacroStyle::kTristate, MacroDirection::kInput, 8,
               ClbCoord{3, 5}};
  EXPECT_FALSE(out.mates_with(tri));  // style mismatch
}

TEST(ConnectionInterface, WidthsAndMirroring) {
  const ConnectionInterface ci32 = ConnectionInterface::for_width(32);
  EXPECT_EQ(ci32.write_channel.width(), 32);
  EXPECT_EQ(ci32.read_channel.width(), 32);
  EXPECT_EQ(ci32.write_strobe.width(), 1);
  const auto module = ci32.module_side();
  ASSERT_EQ(module.size(), 3u);
  EXPECT_TRUE(module[0].mates_with(ci32.write_channel));
  EXPECT_TRUE(module[1].mates_with(ci32.read_channel));
  EXPECT_TRUE(module[2].mates_with(ci32.write_strobe));

  const ConnectionInterface ci64 = ConnectionInterface::for_width(64);
  EXPECT_EQ(ci64.write_channel.width(), 64);
  EXPECT_GT(ci64.resources().luts, ci32.resources().luts);
}

// --- test fixtures ----------------------------------------------------------

/// A minimal dockable component for the 32-bit region.
ComponentDescriptor make_component(const std::string& name, int behavior,
                                   int rows, int cols, int brams = 0) {
  ComponentDescriptor c;
  c.name = name;
  c.behavior_id = behavior;
  c.rows = rows;
  c.cols = cols;
  c.bram_blocks = brams;
  c.logic = fabric::Resources{rows * cols * 2, rows * cols * 4, rows * cols * 3,
                              brams};
  c.macros = ConnectionInterface::for_width(32).module_side();
  return c;
}

struct LinkerFixture {
  DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory baseline{region.device()};
  BitLinker linker{region, ConnectionInterface::for_width(32), baseline};
};

// --- assembly happy path ------------------------------------------------------

TEST(BitLinker, SingleComponentAssembles) {
  LinkerFixture fx;
  const ComponentDescriptor c = make_component("filter", 7, 8, 10);
  const LinkResult r = fx.linker.link_single(c);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  ASSERT_TRUE(r.config.has_value());
  EXPECT_TRUE(r.config->is_complete_for(fx.region));
  EXPECT_TRUE(r.config->confined_to(fx.region));
  EXPECT_EQ(r.stats.frames, fx.region.covered_frames());
  EXPECT_GT(r.stats.payload_bytes, 0);

  // Applying binds the behaviour and the payload hash validates.
  ConfigMemory cm{fx.region.device()};
  r.config->apply_to(cm);
  EXPECT_EQ(fx.region.scan_signature(cm), 7);
  const auto sig = cm.frame(fx.region.signature_frame());
  EXPECT_EQ(sig[static_cast<std::size_t>(fx.region.signature_word() + 3)],
            region_payload_hash(cm, fx.region));
}

TEST(BitLinker, CompleteConfigIndependentOfPriorState) {
  LinkerFixture fx;
  const ComponentDescriptor a = make_component("alpha", 1, 8, 10);
  const ComponentDescriptor b = make_component("beta", 2, 9, 12);
  const LinkResult ra = fx.linker.link_single(a);
  const LinkResult rb = fx.linker.link_single(b);
  ASSERT_TRUE(ra.ok() && rb.ok());

  ConfigMemory after_a{fx.region.device()};
  ra.config->apply_to(after_a);
  rb.config->apply_to(after_a);  // B over A

  ConfigMemory direct_b{fx.region.device()};
  rb.config->apply_to(direct_b);  // B over blank

  EXPECT_EQ(ConfigMemory::diff_frames(after_a, direct_b), 0);
  EXPECT_EQ(fx.region.scan_signature(after_a), 2);
}

TEST(BitLinker, StaticRowsPreserved) {
  // Frames covering the region also carry static rows; a complete config
  // must re-encode them byte-identically (section 2.2: partial configs
  // "must not disturb the circuits below or above").
  LinkerFixture fx;
  // Paint a recognisable static design everywhere outside the region rows.
  sim::Rng rng{5};
  for (int col : fx.region.clb_columns()) {
    for (int minor = 0; minor < fabric::kFramesPerClbColumn; ++minor) {
      std::vector<std::uint32_t> below(static_cast<std::size_t>(fx.region.first_word()));
      for (auto& w : below) w = rng.next_u32();
      fx.baseline.write_words(fabric::FrameAddress{fabric::ColumnType::kClb,
                                                   col, minor},
                              0, below);
    }
  }
  const ComponentDescriptor c = make_component("gamma", 3, 8, 10);
  const LinkResult r = fx.linker.link_single(c);
  ASSERT_TRUE(r.ok());

  ConfigMemory cm{fx.region.device()};
  r.config->apply_to(cm);
  for (int col : fx.region.clb_columns()) {
    for (int minor = 0; minor < fabric::kFramesPerClbColumn; ++minor) {
      const fabric::FrameAddress a{fabric::ColumnType::kClb, col, minor};
      const auto base = fx.baseline.frame(a);
      const auto got = cm.frame(a);
      for (int w = 0; w < fx.region.first_word(); ++w) {
        ASSERT_EQ(got[static_cast<std::size_t>(w)], base[static_cast<std::size_t>(w)])
            << "static row disturbed in " << a.to_string() << " word " << w;
      }
    }
  }
}

TEST(BitLinker, TwoComponentAssemblyWithInterComponentMacro) {
  // Figure 2: component A's outputs flow into component B through a bus
  // macro at a frozen position.
  LinkerFixture fx;
  ComponentDescriptor a = make_component("A", 10, 8, 6);
  a.macros.push_back(BusMacro{"a2b", MacroStyle::kLutBased,
                              MacroDirection::kOutput, 2, ClbCoord{0, 6}});
  ComponentDescriptor b;
  b.name = "B";
  b.behavior_id = 11;
  b.rows = 8;
  b.cols = 6;
  b.logic = fabric::Resources{40, 80, 60, 0};
  b.macros = {BusMacro{"a2b", MacroStyle::kLutBased, MacroDirection::kInput, 2,
                       ClbCoord{0, 0}}};

  LinkJob job;
  job.parts = {LinkInput{&a, Placement{0, 0}}, LinkInput{&b, Placement{0, 6}}};
  job.behavior_id = 42;
  const LinkResult r = fx.linker.link(job);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);

  ConfigMemory cm{fx.region.device()};
  r.config->apply_to(cm);
  EXPECT_EQ(fx.region.scan_signature(cm), 42);
}

// --- rejection paths ----------------------------------------------------------

TEST(BitLinker, RejectsOversizedComponent) {
  // The paper's SHA-1 unit "does not fit into the dynamic area of the
  // 32-bit system" -- the fit check is what detects that.
  LinkerFixture fx;
  const ComponentDescriptor sha1 = make_component("sha1", 99, 11, 40);
  const LinkResult r = fx.linker.link_single(sha1);  // 40 cols > 28
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.config.has_value());
  EXPECT_NE(r.errors[0].find("does not fit"), std::string::npos);
}

TEST(BitLinker, RejectsOverlap) {
  LinkerFixture fx;
  ComponentDescriptor a = make_component("A", 1, 8, 10);
  ComponentDescriptor b = make_component("B", 2, 8, 10);
  b.macros.clear();  // avoid double-mating the dock
  LinkJob job;
  job.parts = {LinkInput{&a, Placement{0, 0}}, LinkInput{&b, Placement{0, 5}}};
  job.behavior_id = 3;
  const LinkResult r = fx.linker.link(job);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& e : r.errors) found |= e.find("overlap") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(BitLinker, RejectsBramOverdemand) {
  LinkerFixture fx;  // region provides 6 BRAMs
  const ComponentDescriptor c = make_component("hungry", 4, 8, 10, 7);
  const LinkResult r = fx.linker.link_single(c);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& e : r.errors) found |= e.find("BRAM") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(BitLinker, RejectsUnmatedMacro) {
  LinkerFixture fx;
  ComponentDescriptor a = make_component("A", 1, 8, 10);
  a.macros.push_back(BusMacro{"dangling", MacroStyle::kLutBased,
                              MacroDirection::kOutput, 4, ClbCoord{2, 7}});
  const LinkResult r = fx.linker.link_single(a);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& e : r.errors) found |= e.find("unmated") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(BitLinker, RejectsComponentWithoutDockInterface) {
  LinkerFixture fx;
  ComponentDescriptor c = make_component("mute", 1, 8, 10);
  c.macros.clear();  // nothing mates the dock channels
  const LinkResult r = fx.linker.link_single(c);
  EXPECT_FALSE(r.ok());
}

TEST(BitLinker, RejectsOverdeclaredLogic) {
  LinkerFixture fx;
  ComponentDescriptor c = make_component("dense", 1, 2, 2);
  c.logic = fabric::Resources{1000, 2000, 2000, 0};
  const LinkResult r = fx.linker.link_single(c);
  EXPECT_FALSE(r.ok());
}

TEST(BitLinker, RejectsEmptyJob) {
  LinkerFixture fx;
  const LinkResult r = fx.linker.link(LinkJob{});
  EXPECT_FALSE(r.ok());
}

// --- the differential hazard ---------------------------------------------------

TEST(BitLinker, DifferentialIsSmallerButStateDependent) {
  // Two assemblies share a front-end component; only the back-end differs.
  // A differential configuration from assembly 1 to assembly 2 omits the
  // shared front-end frames -- which is exactly why it corrupts the region
  // when loaded onto any other prior state (paper section 2.2).
  LinkerFixture fx;
  ComponentDescriptor front = make_component("front", 0, 8, 10);
  front.macros.push_back(BusMacro{"f2b", MacroStyle::kLutBased,
                                  MacroDirection::kOutput, 4, ClbCoord{0, 10}});
  auto make_backend = [](const std::string& name) {
    ComponentDescriptor c;
    c.name = name;
    c.rows = 8;
    c.cols = 6;
    c.logic = fabric::Resources{40, 80, 60, 0};
    c.macros = {BusMacro{"f2b", MacroStyle::kLutBased, MacroDirection::kInput,
                         4, ClbCoord{0, 0}}};
    return c;
  };
  const ComponentDescriptor back_y = make_backend("back-y");
  const ComponentDescriptor back_z = make_backend("back-z");

  LinkJob job_a{{LinkInput{&front, {0, 0}}, LinkInput{&back_y, {0, 10}}}, 100, 1};
  LinkJob job_b{{LinkInput{&front, {0, 0}}, LinkInput{&back_z, {0, 10}}}, 101, 1};
  const LinkResult ra = fx.linker.link(job_a);
  ASSERT_TRUE(ra.ok()) << (ra.errors.empty() ? "" : ra.errors[0]);

  ConfigMemory holding_a{fx.region.device()};
  ra.config->apply_to(holding_a);
  const LinkResult rb_diff = fx.linker.link_differential(job_b, holding_a);
  const LinkResult rb_full = fx.linker.link(job_b);
  ASSERT_TRUE(rb_diff.ok() && rb_full.ok());
  // The shared front-end makes the differential config much smaller.
  EXPECT_LT(rb_diff.stats.payload_bytes, rb_full.stats.payload_bytes / 2);

  // Correct when the assumption holds...
  ConfigMemory cm{fx.region.device()};
  ra.config->apply_to(cm);
  rb_diff.config->apply_to(cm);
  EXPECT_EQ(fx.region.scan_signature(cm), 101);
  EXPECT_EQ(region_payload_hash(cm, fx.region),
            cm.frame(fx.region.signature_frame())
                [static_cast<std::size_t>(fx.region.signature_word() + 3)]);

  // ...but loading the same differential config on a *blank* fabric leaves
  // the front-end columns unconfigured: the payload hash no longer matches,
  // so the runtime will refuse to bind the behaviour.
  ConfigMemory blank{fx.region.device()};
  rb_diff.config->apply_to(blank);
  const auto sig = blank.frame(fx.region.signature_frame());
  const std::uint32_t stored =
      sig[static_cast<std::size_t>(fx.region.signature_word() + 3)];
  EXPECT_NE(region_payload_hash(blank, fx.region), stored);
  // The complete configuration, by contrast, is state-independent.
  ConfigMemory blank2{fx.region.device()};
  rb_full.config->apply_to(blank2);
  EXPECT_EQ(region_payload_hash(blank2, fx.region),
            blank2.frame(fx.region.signature_frame())
                [static_cast<std::size_t>(fx.region.signature_word() + 3)]);
}

TEST(BitLinker, PayloadHashIgnoresSignatureWords) {
  LinkerFixture fx;
  const ComponentDescriptor c = make_component("delta", 9, 8, 10);
  const LinkResult r = fx.linker.link_single(c);
  ASSERT_TRUE(r.ok());
  ConfigMemory cm{fx.region.device()};
  r.config->apply_to(cm);
  const std::uint32_t h1 = region_payload_hash(cm, fx.region);
  // Scribbling on the signature words must not change the payload hash.
  const std::uint32_t junk[4] = {1, 2, 3, 4};
  cm.write_words(fx.region.signature_frame(), fx.region.signature_word(), junk);
  EXPECT_EQ(region_payload_hash(cm, fx.region), h1);
}

/// Byte-wise FNV-1a 32 over the region rows of every covered frame, minus
/// the signature words: the definition region_payload_hash must meet.
std::uint32_t reference_payload_hash(const ConfigMemory& cm,
                                     const DynamicRegion& region) {
  std::uint32_t h = 2166136261u;
  const fabric::Device& dev = cm.device();
  const int sig_w0 = region.signature_word();
  for (fabric::FrameAddress a{fabric::ColumnType::kClb, 0, 0};
       a.valid_for(dev); a = a.next_in(dev)) {
    if (!region.covers(a)) continue;
    const auto f = cm.frame(a);
    const int w0 = region.first_word();
    for (int w = w0; w < w0 + region.word_count(); ++w) {
      if (a == region.signature_frame() && w >= sig_w0 &&
          w < sig_w0 + DynamicRegion::kSignatureWords) {
        continue;
      }
      const std::uint32_t v = f[static_cast<std::size_t>(w)];
      for (int i = 0; i < 4; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xFF)) * 16777619u;
      }
    }
  }
  return h;
}

TEST(BitLinker, PayloadHashMatchesByteWiseFnvOnSparseContent) {
  // Covered frames are left all zero, filled with nonzero words, or filled
  // sparsely (zero words between nonzero ones), on both devices' regions
  // and the XC2VP30's second area. Zero runs cross frame boundaries.
  for (const DynamicRegion& region :
       {DynamicRegion::xc2vp7_region(), DynamicRegion::xc2vp30_region(),
        DynamicRegion::xc2vp30_region_b()}) {
    SCOPED_TRACE(region.name());
    const fabric::Device& dev = region.device();
    sim::Rng rng{77};
    ConfigMemory cm{dev};
    int zero_frames = 0, dense_frames = 0, sparse_frames = 0;
    for (fabric::FrameAddress a{fabric::ColumnType::kClb, 0, 0};
         a.valid_for(dev); a = a.next_in(dev)) {
      if (!region.covers(a)) continue;
      // The signature frame always carries content, sparse like a module's.
      const std::uint64_t kind =
          a == region.signature_frame() ? 2 : rng.below(3);
      if (kind == 0) {
        ++zero_frames;
        continue;
      }
      std::vector<std::uint32_t> rows(
          static_cast<std::size_t>(region.word_count()));
      for (auto& w : rows) {
        w = kind == 1 ? (rng.next_u32() | 1u)
                      : (rng.below(8) == 0 ? rng.next_u32() : 0u);
      }
      (kind == 1 ? dense_frames : sparse_frames)++;
      cm.write_words(a, region.first_word(), rows);
    }
    ASSERT_GT(zero_frames, 0);
    ASSERT_GT(dense_frames, 0);
    ASSERT_GT(sparse_frames, 0);
    const std::uint32_t h = region_payload_hash(cm, region);
    EXPECT_EQ(h, reference_payload_hash(cm, region));

    // The signature words stay out of both; the signature frame's other
    // region rows are in.
    const std::uint32_t junk[DynamicRegion::kSignatureWords] = {9, 8, 7, 6};
    cm.write_words(region.signature_frame(), region.signature_word(), junk);
    EXPECT_EQ(region_payload_hash(cm, region), h);
    const int row = region.signature_word() + DynamicRegion::kSignatureWords;
    const std::uint32_t flipped[1] = {
        cm.frame(region.signature_frame())[static_cast<std::size_t>(row)] ^
        1u};
    cm.write_words(region.signature_frame(), row, flipped);
    EXPECT_NE(region_payload_hash(cm, region), h);
    EXPECT_EQ(region_payload_hash(cm, region),
              reference_payload_hash(cm, region));
  }
}

TEST(BitLinker, ThreeComponentChainAcrossTwoMacros) {
  // A -> B -> C processing chain: each boundary crossed through a bus
  // macro at a frozen position, only A mates the dock.
  LinkerFixture fx;
  ComponentDescriptor a = make_component("stage-a", 50, 8, 8);
  a.macros.push_back(BusMacro{"ab", MacroStyle::kLutBased,
                              MacroDirection::kOutput, 4, ClbCoord{0, 8}});
  ComponentDescriptor b;
  b.name = "stage-b";
  b.rows = 8;
  b.cols = 8;
  b.logic = fabric::Resources{60, 100, 80, 0};
  b.macros = {BusMacro{"ab", MacroStyle::kLutBased, MacroDirection::kInput, 4,
                       ClbCoord{0, 0}},
              BusMacro{"bc", MacroStyle::kLutBased, MacroDirection::kOutput, 4,
                       ClbCoord{0, 8}}};
  ComponentDescriptor c;
  c.name = "stage-c";
  c.rows = 8;
  c.cols = 8;
  c.logic = fabric::Resources{60, 100, 80, 0};
  c.macros = {BusMacro{"bc", MacroStyle::kLutBased, MacroDirection::kInput, 4,
                       ClbCoord{0, 0}}};

  LinkJob job{{LinkInput{&a, {0, 0}}, LinkInput{&b, {0, 8}},
               LinkInput{&c, {0, 16}}},
              77, 1};
  const LinkResult r = fx.linker.link(job);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  ConfigMemory cm{fx.region.device()};
  r.config->apply_to(cm);
  EXPECT_EQ(fx.region.scan_signature(cm), 77);

  // Breaking the middle link (move B one column right) dangles two macros.
  LinkJob broken{{LinkInput{&a, {0, 0}}, LinkInput{&b, {0, 9}},
                  LinkInput{&c, {0, 16}}},
                 77, 1};
  const LinkResult rb = fx.linker.link(broken);
  EXPECT_FALSE(rb.ok());
  int dangling = 0;
  for (const auto& e : rb.errors) dangling += e.find("unmated") != std::string::npos;
  EXPECT_GE(dangling, 2);
}

TEST(BitLinker, TristateMacrosAlsoAssembleButCostMore) {
  // The XAPP290 alternative: tristate macros mate like LUT macros but
  // consume more area (why the paper prefers LUT-based ones).
  LinkerFixture fx;
  ComponentDescriptor a = make_component("tri-a", 60, 8, 10);
  a.macros.push_back(BusMacro{"t", MacroStyle::kTristate,
                              MacroDirection::kOutput, 2, ClbCoord{0, 10}});
  ComponentDescriptor b;
  b.name = "tri-b";
  b.rows = 8;
  b.cols = 6;
  b.logic = fabric::Resources{40, 80, 60, 0};
  b.macros = {BusMacro{"t", MacroStyle::kTristate, MacroDirection::kInput, 2,
                       ClbCoord{0, 0}}};
  LinkJob job{{LinkInput{&a, {0, 0}}, LinkInput{&b, {0, 10}}}, 61, 1};
  EXPECT_TRUE(fx.linker.link(job).ok());
}

TEST(BitLinker, DifferentComponentsYieldDifferentPayloads) {
  const ComponentDescriptor a = make_component("one", 1, 8, 10);
  ComponentDescriptor b = make_component("one", 1, 8, 10);
  EXPECT_EQ(a.config_words(), b.config_words());  // identity => same bits
  b.revision = 2;
  EXPECT_NE(a.config_words(), b.config_words());  // re-implemented => differ
  ComponentDescriptor c = make_component("two", 1, 8, 10);
  EXPECT_NE(a.config_words(), c.config_words());
}

}  // namespace
}  // namespace rtr::bitlinker
