// Property tests: every hardware behavioural model is functionally
// equivalent to its golden software implementation, through both the 32-bit
// and 64-bit connection protocols, and consumes a block of strobes
// (pio_block) exactly as it consumes the same strobes one by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/golden.hpp"
#include "fabric/dynamic_region.hpp"
#include "hw/hash_units.hpp"
#include "hw/image_units.hpp"
#include "hw/library.hpp"
#include "hw/pattern_matcher.hpp"
#include "sim/random.hpp"

namespace rtr::hw {
namespace {

using apps::BinaryImage;
using apps::GrayImage;
using apps::Pattern8x8;

/// Drive a word-stream protocol at the given strobe width: packs the 32-bit
/// protocol words into strobes exactly as the drivers do.
void stream_words(HwModule& m, std::span<const std::uint32_t> words,
                  int width_bits) {
  if (width_bits == 32) {
    for (std::uint32_t w : words) m.write_word(w, 32);
    return;
  }
  for (std::size_t i = 0; i < words.size(); i += 2) {
    std::uint64_t beat = words[i];
    if (i + 1 < words.size()) beat |= static_cast<std::uint64_t>(words[i + 1]) << 32;
    m.write_word(beat, 64);
  }
}

std::vector<std::uint32_t> pack_bytes(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint32_t> words((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    words[i / 4] |= std::uint32_t{bytes[i]} << (8 * (i % 4));
  }
  return words;
}

// --- pattern matcher ----------------------------------------------------------

/// Protocol words for a byte-per-pixel image + pattern.
std::vector<std::uint32_t> pattern_stream(const BinaryImage& img,
                                          const Pattern8x8& pat) {
  std::vector<std::uint32_t> words;
  words.push_back((static_cast<std::uint32_t>(img.width) << 16) |
                  static_cast<std::uint32_t>(img.height));
  words.push_back(pat[0] | (std::uint32_t{pat[1]} << 8) |
                  (std::uint32_t{pat[2]} << 16) | (std::uint32_t{pat[3]} << 24));
  words.push_back(pat[4] | (std::uint32_t{pat[5]} << 8) |
                  (std::uint32_t{pat[6]} << 16) | (std::uint32_t{pat[7]} << 24));
  const auto packed = pack_bytes(apps::to_bytes(img));
  words.insert(words.end(), packed.begin(), packed.end());
  return words;
}

class PatternWidths : public ::testing::TestWithParam<int> {};

TEST_P(PatternWidths, MatchesGoldenOnRandomImages) {
  sim::Rng rng{41};
  for (int trial = 0; trial < 6; ++trial) {
    const int w = 4 * (4 + static_cast<int>(rng.below(20)));  // multiple of 4
    const int h = 8 + static_cast<int>(rng.below(60));
    BinaryImage img = BinaryImage::make(w, h);
    for (auto& word : img.words) word = rng.next_u32();
    Pattern8x8 pat;
    for (auto& row : pat) row = rng.next_u8();

    PatternMatcherModule m{bram_bits(6)};
    stream_words(m, pattern_stream(img, pat), GetParam());

    ASSERT_TRUE(m.result_ready());
    const auto golden = apps::pattern_match_counts(img, pat);
    ASSERT_EQ(m.result_count(), static_cast<std::int64_t>(golden.size()));
    for (std::size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(m.read_word(32), golden[i]) << "position " << i;
    }
    EXPECT_EQ(m.read_word(32), 0xFFFFFFFFu);  // exhausted
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PatternWidths, ::testing::Values(32, 64));

TEST(PatternMatcherHw, CapacityErrorOnOversizedImage) {
  PatternMatcherModule m{bram_bits(6)};  // 110592 bits
  // 512x512 = 262144 pixels: the image the 32-bit system cannot buffer.
  m.write_word((512u << 16) | 512u, 32);
  m.write_word(0, 32);
  m.write_word(0, 32);
  EXPECT_TRUE(m.capacity_error());
  // Stream the (discarded) image; the module still tracks the protocol.
  const int words = 512 * 512 / 4;
  for (int i = 0; i < words; ++i) m.write_word(0, 32);
  EXPECT_TRUE(m.result_ready());
  EXPECT_EQ(m.read_word(32), 0xFFFFFFFFu);
}

TEST(PatternMatcherHw, LargerBufferAcceptsTheSameImage) {
  PatternMatcherModule m{bram_bits(22)};  // the 64-bit region's allocation
  m.write_word((512u << 16) | 512u, 32);
  EXPECT_FALSE(m.capacity_error());
}

TEST(PatternMatcherHw, RejectsNonMultipleOf4Width) {
  PatternMatcherModule m{bram_bits(6)};
  m.write_word((30u << 16) | 16u, 32);
  EXPECT_TRUE(m.capacity_error());
}

// --- both pattern implementations against a per-bit oracle ---------------------

/// Every window rebuilt from single pixels, one count per position: an
/// oracle for the golden model's and the module's word-parallel counts.
std::vector<std::uint8_t> per_bit_counts(const BinaryImage& img,
                                         const Pattern8x8& pat) {
  std::vector<std::uint8_t> counts;
  for (int r = 0; r + 8 <= img.height; ++r) {
    for (int c = 0; c + 8 <= img.width; ++c) {
      int count = 0;
      for (int pr = 0; pr < 8; ++pr) {
        std::uint8_t window = 0;
        for (int pc = 0; pc < 8; ++pc) {
          window |= static_cast<std::uint8_t>(img.get(r + pr, c + pc) << pc);
        }
        count += std::popcount(static_cast<std::uint8_t>(
            ~(window ^ pat[static_cast<std::size_t>(pr)])));
      }
      counts.push_back(static_cast<std::uint8_t>(count));
    }
  }
  return counts;
}

enum class Fill { kRandom, kZero, kOne };

/// A `w` x `h` image and a pattern, each seeded or all zero or all one.
/// Random images also set the bits past the width in each row's last word.
std::pair<BinaryImage, Pattern8x8> pattern_case(int w, int h, Fill image,
                                                Fill pattern, sim::Rng& rng) {
  BinaryImage img = BinaryImage::make(w, h);
  for (auto& word : img.words) {
    word = image == Fill::kRandom ? rng.next_u32()
           : image == Fill::kOne  ? ~0u
                                  : 0u;
  }
  Pattern8x8 pat;
  for (auto& row : pat) {
    row = pattern == Fill::kRandom ? rng.next_u8()
          : pattern == Fill::kOne  ? std::uint8_t{0xFF}
                                   : std::uint8_t{0};
  }
  return {std::move(img), pat};
}

/// The golden model's counts, and the module's streamed counts where its
/// protocol takes the width (a multiple of 4), equal the oracle's.
void expect_oracle_counts(const BinaryImage& img, const Pattern8x8& pat) {
  SCOPED_TRACE(std::to_string(img.width) + "x" + std::to_string(img.height));
  const std::vector<std::uint8_t> want = per_bit_counts(img, pat);
  EXPECT_EQ(apps::pattern_match_counts(img, pat), want) << "golden";
  if (img.width % 4 != 0) return;
  for (const int strobe : {32, 64}) {
    PatternMatcherModule m{bram_bits(6)};
    stream_words(m, pattern_stream(img, pat), strobe);
    ASSERT_EQ(m.result_count(), static_cast<std::int64_t>(want.size()));
    std::vector<std::uint8_t> got(want.size());
    for (auto& c : got) c = static_cast<std::uint8_t>(m.read_word(32));
    EXPECT_EQ(got, want) << "module, " << strobe << "-bit strobes";
    EXPECT_EQ(m.read_word(32), 0xFFFFFFFFu);
  }
}

TEST(PatternOracle, RowEdgesAndWordBoundariesMatch) {
  // Width 8 (one position per row); widths around each multiple of 8,
  // where a row's last group of positions is partial; widths past 64,
  // where golden rows span three or more words; height 8.
  sim::Rng rng{7};
  for (const int w : {8, 9, 12, 13, 15, 16, 17, 20, 23, 24, 25, 31, 32, 33,
                      36, 63, 64, 65, 68, 95, 96, 97, 100, 129, 132, 307}) {
    for (const int h : {8, 9, 15}) {
      const auto [img, pat] = pattern_case(w, h, Fill::kRandom, Fill::kRandom, rng);
      expect_oracle_counts(img, pat);
    }
  }
}

TEST(PatternOracle, AllZeroAndAllOneImagesAndPatternsMatch) {
  sim::Rng rng{11};
  for (const int w : {8, 12, 20, 33, 68, 97}) {
    for (const Fill image : {Fill::kZero, Fill::kOne, Fill::kRandom}) {
      for (const Fill pattern : {Fill::kZero, Fill::kOne, Fill::kRandom}) {
        const auto [img, pat] = pattern_case(w, 10, image, pattern, rng);
        expect_oracle_counts(img, pat);
      }
    }
  }
}

TEST(PatternOracle, TableSizesMatch) {
  // The geometries Tables 3 and 9 run; 64x48 is also the serving size.
  sim::Rng rng{3};
  for (const auto& [w, h] :
       {std::pair{64, 48}, {128, 96}, {128, 128}, {256, 128}}) {
    const auto [img, pat] = pattern_case(w, h, Fill::kRandom, Fill::kRandom, rng);
    expect_oracle_counts(img, pat);
  }
}

TEST(PatternOracle, SeededGeometriesMatch) {
  sim::Rng rng{2024};
  for (int trial = 0; trial < 300; ++trial) {
    const int w = 8 + static_cast<int>(rng.below(300));
    const int h = 8 + static_cast<int>(rng.below(16));
    const auto [img, pat] = pattern_case(w, h, Fill::kRandom, Fill::kRandom, rng);
    expect_oracle_counts(img, pat);
  }
}

TEST(PatternMatcherHw, ResetClearsResult) {
  PatternMatcherModule m{bram_bits(6)};
  m.write_word((8u << 16) | 8u, 32);
  m.write_word(0, 32);
  m.write_word(0, 32);
  for (int i = 0; i < 8 * 8 / 4; ++i) m.write_word(0, 32);
  ASSERT_TRUE(m.result_ready());
  EXPECT_EQ(m.result_count(), 1);
  EXPECT_EQ(m.read_word(32), 64u);  // all-zero image matches zero pattern
  m.reset();
  EXPECT_FALSE(m.result_ready());
}

// --- hashes ----------------------------------------------------------------------

class HashWidths : public ::testing::TestWithParam<int> {};

TEST_P(HashWidths, JenkinsMatchesGolden) {
  sim::Rng rng{7};
  for (std::size_t len : {0u, 1u, 3u, 11u, 12u, 13u, 64u, 1000u, 4096u}) {
    std::vector<std::uint8_t> key(len);
    for (auto& b : key) b = rng.next_u8();

    JenkinsHashModule m;
    std::vector<std::uint32_t> words{static_cast<std::uint32_t>(len)};
    const auto packed = pack_bytes(key);
    words.insert(words.end(), packed.begin(), packed.end());
    stream_words(m, words, GetParam());

    ASSERT_TRUE(m.result_ready()) << "len " << len;
    EXPECT_EQ(static_cast<std::uint32_t>(m.read_word(32)),
              apps::jenkins_hash(key))
        << "len " << len;
  }
}

TEST_P(HashWidths, Sha1MatchesGolden) {
  sim::Rng rng{13};
  for (std::size_t len : {0u, 1u, 3u, 55u, 56u, 63u, 64u, 65u, 100u, 8192u}) {
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = rng.next_u8();

    Sha1Module m;
    std::vector<std::uint32_t> words{static_cast<std::uint32_t>(len)};
    const auto packed = pack_bytes(msg);
    words.insert(words.end(), packed.begin(), packed.end());
    stream_words(m, words, GetParam());

    ASSERT_TRUE(m.result_ready()) << "len " << len;
    const auto want = apps::sha1(msg);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(static_cast<std::uint32_t>(m.read_word(32)),
                want[static_cast<std::size_t>(i)])
          << "len " << len << " word " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HashWidths, ::testing::Values(32, 64));

TEST(Sha1Hw, KnownVector) {
  Sha1Module m;
  m.write_word(3, 32);
  m.write_word('a' | ('b' << 8) | ('c' << 16), 32);
  EXPECT_EQ(static_cast<std::uint32_t>(m.read_word(32)), 0xA9993E36u);
}

// --- image units -------------------------------------------------------------------

TEST(BrightnessHw, MatchesGoldenBothWidths) {
  sim::Rng rng{23};
  GrayImage img = GrayImage::make(64, 8);
  for (auto& p : img.pixels) p = rng.next_u8();
  for (int delta : {-200, -1, 0, 17, 255}) {
    const GrayImage want = apps::brightness(img, delta);
    for (int width : {32, 64}) {
      BrightnessModule m;
      m.control(static_cast<std::uint16_t>(delta));
      std::vector<std::uint8_t> out;
      const int n = width / 8;
      for (std::size_t i = 0; i < img.pixels.size(); i += static_cast<std::size_t>(n)) {
        std::uint64_t beat = 0;
        for (int j = 0; j < n; ++j) {
          beat |= static_cast<std::uint64_t>(img.pixels[i + static_cast<std::size_t>(j)])
                  << (8 * j);
        }
        m.write_word(beat, width);
        EXPECT_TRUE(m.has_output());
        const std::uint64_t res = m.read_word(width);
        for (int j = 0; j < n; ++j) {
          out.push_back(static_cast<std::uint8_t>(res >> (8 * j)));
        }
      }
      EXPECT_EQ(out, want.pixels) << "delta " << delta << " width " << width;
    }
  }
}

/// Drive a two-source module (blend/fade) and collect its packed outputs.
std::vector<std::uint8_t> run_two_source(TwoSourceModule& m,
                                         const GrayImage& a,
                                         const GrayImage& b, int width) {
  const int n = width / 16;  // pixels of each source per strobe
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < a.pixels.size(); i += static_cast<std::size_t>(n)) {
    std::uint64_t beat = 0;
    for (int j = 0; j < n; ++j) {
      beat |= static_cast<std::uint64_t>(a.pixels[i + static_cast<std::size_t>(j)])
              << (8 * j);
      beat |= static_cast<std::uint64_t>(b.pixels[i + static_cast<std::size_t>(j)])
              << (8 * (n + j));
    }
    m.write_word(beat, width);
    if (m.has_output()) {
      const std::uint64_t res = m.read_word(width);
      for (int j = 0; j < 2 * n; ++j) {
        out.push_back(static_cast<std::uint8_t>(res >> (8 * j)));
      }
    }
  }
  return out;
}

TEST(BlendHw, MatchesGoldenBothWidths) {
  sim::Rng rng{29};
  GrayImage a = GrayImage::make(64, 4);
  GrayImage b = GrayImage::make(64, 4);
  for (auto& p : a.pixels) p = rng.next_u8();
  for (auto& p : b.pixels) p = rng.next_u8();
  const GrayImage want = apps::blend_add(a, b);
  for (int width : {32, 64}) {
    BlendAddModule m;
    EXPECT_EQ(run_two_source(m, a, b, width), want.pixels) << width;
  }
}

TEST(FadeHw, MatchesGoldenBothWidths) {
  sim::Rng rng{31};
  GrayImage a = GrayImage::make(32, 4);
  GrayImage b = GrayImage::make(32, 4);
  for (auto& p : a.pixels) p = rng.next_u8();
  for (auto& p : b.pixels) p = rng.next_u8();
  for (int f : {0, 77, 128, 256}) {
    const GrayImage want = apps::fade(a, b, f);
    for (int width : {32, 64}) {
      FadeModule m;
      m.control(static_cast<std::uint32_t>(f));
      EXPECT_EQ(run_two_source(m, a, b, width), want.pixels)
          << "f " << f << " width " << width;
    }
  }
}

TEST(TwoSourceHw, OutputEverySecondStrobeOnly) {
  BlendAddModule m;
  m.write_word(0, 32);
  EXPECT_FALSE(m.has_output());
  m.write_word(0, 32);
  EXPECT_TRUE(m.has_output());
}

// --- blocks of strobes against single strobes -----------------------------------------

/// One strobe on the dock's data register: a 32-bit write, or a read.
struct Strobe {
  bool read = false;
  std::uint32_t word = 0;
};
using Strobes = std::vector<Strobe>;

/// The writes of `words`, then `reads` reads (a hash, the matcher, a sink).
Strobes writes_then_reads(std::span<const std::uint32_t> words, int reads) {
  Strobes out;
  for (const std::uint32_t w : words) out.push_back({false, w});
  out.insert(out.end(), static_cast<std::size_t>(reads), Strobe{true, 0});
  return out;
}

/// Groups of `per` writes, each followed by one read (1:1 for brightness
/// and the loopback, 2:1 for blend and fade).
Strobes grouped(std::span<const std::uint32_t> words, std::size_t per) {
  Strobes out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    out.push_back({false, words[i]});
    if ((i + 1) % per == 0) out.push_back({true, 0});
  }
  return out;
}

std::vector<std::uint32_t> seeded_words(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint32_t> words(n);
  for (auto& w : words) w = rng.next_u32();
  return words;
}

/// One pio_block call: its writes and the number of reads.
struct Block {
  std::vector<std::uint32_t> in;
  std::size_t reads = 0;
};

/// The blocks a run of strobes splits into: consecutive groups of equally
/// many writes then one read form one block, and writes left after the
/// last read form a block of their own.
std::vector<Block> blocks_of(std::span<const Strobe> run) {
  std::vector<Block> blocks;
  std::vector<std::uint32_t> pending;
  std::size_t per = 0;  // writes per read of the open block
  for (const Strobe& s : run) {
    if (!s.read) {
      pending.push_back(s.word);
      continue;
    }
    if (blocks.empty() || pending.size() != per) {
      blocks.push_back({});
      per = pending.size();
    }
    Block& b = blocks.back();
    b.in.insert(b.in.end(), pending.begin(), pending.end());
    ++b.reads;
    pending.clear();
  }
  if (!pending.empty()) blocks.push_back({std::move(pending), 0});
  return blocks;
}

/// The completion flag of the modules that have one.
std::optional<bool> result_ready(const HwModule& m) {
  if (const auto* h = dynamic_cast<const ByteStreamModule*>(&m)) {
    return h->result_ready();
  }
  if (const auto* p = dynamic_cast<const PatternMatcherModule*>(&m)) {
    return p->result_ready();
  }
  return std::nullopt;
}

/// Feed `strobes` to one fresh module in blocks, the runs between `cuts`
/// (ascending strobe indices) each split by blocks_of, and to another one
/// strobe at a time. Every read, has_output() and result_ready() after
/// every block, and a trailing 32- and 64-bit read must agree.
void expect_blocks_match(const BehaviorRegistry& reg, int id,
                         std::uint32_t control, const Strobes& strobes,
                         std::vector<std::size_t> cuts) {
  const std::unique_ptr<HwModule> block = reg.create(id);
  const std::unique_ptr<HwModule> single = reg.create(id);
  block->control(control);
  single->control(control);
  cuts.push_back(strobes.size());
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    const std::span<const Strobe> run{strobes.data() + at, cut - at};
    for (const Block& b : blocks_of(run)) {
      std::vector<std::uint32_t> out(b.reads);
      block->pio_block(b.in, out);
      const std::size_t per = b.reads == 0 ? 0 : b.in.size() / b.reads;
      std::size_t w = 0;
      for (std::size_t g = 0; g < b.reads; ++g) {
        for (std::size_t j = 0; j < per; ++j) single->write_word(b.in[w++], 32);
        ASSERT_EQ(out[g], static_cast<std::uint32_t>(single->read_word(32)))
            << "read " << g << " of a block at strobe " << at;
      }
      for (; w < b.in.size(); ++w) single->write_word(b.in[w], 32);
      ASSERT_EQ(block->has_output(), single->has_output()) << "at strobe " << at;
      ASSERT_EQ(result_ready(*block), result_ready(*single)) << "at strobe " << at;
    }
    at = cut;
  }
  EXPECT_EQ(block->read_word(32), single->read_word(32));
  EXPECT_EQ(block->read_word(64), single->read_word(64));
}

/// Every way `strobes` is cut: for short streams each single cut point and
/// a block per strobe; for all, four seeded sets of up to eight cuts.
void expect_blocks_match_every_cut(const BehaviorRegistry& reg, int id,
                                   std::uint32_t control,
                                   const Strobes& strobes, sim::Rng& rng) {
  const std::size_t n = strobes.size();
  if (n < 40) {
    std::vector<std::size_t> every;
    for (std::size_t c = 0; c <= n; ++c) {
      expect_blocks_match(reg, id, control, strobes, {c});
      every.push_back(c);
    }
    expect_blocks_match(reg, id, control, strobes, every);
  }
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::size_t> cuts(1 + rng.below(8));
    for (auto& c : cuts) c = rng.below(n + 1);
    std::sort(cuts.begin(), cuts.end());
    expect_blocks_match(reg, id, control, strobes, cuts);
  }
}

/// The protocol stream of a `w` x `h` image (random pixels, about half of
/// them set) and a random pattern, then `reads` count reads.
Strobes matcher_strobes(int w, int h, int reads, sim::Rng& rng) {
  std::vector<std::uint32_t> words{(static_cast<std::uint32_t>(w) << 16) |
                                   static_cast<std::uint32_t>(h)};
  words.push_back(rng.next_u32());
  words.push_back(rng.next_u32());
  for (int i = 0; i < w * h / 4; ++i) {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      if (rng.next_bool()) v |= std::uint32_t{rng.next_u8() | 1u} << (8 * b);
    }
    words.push_back(v);
  }
  return writes_then_reads(words, reads);
}

TEST(HwBlocks, PioBlockEqualsPerWordStrobes) {
  sim::Rng rng{2206};
  const std::size_t image_words[] = {0, 1, 2, 3, 4, 7, 19, 768};
  for (const auto& region : {fabric::DynamicRegion::xc2vp7_region(),
                             fabric::DynamicRegion::xc2vp30_region()}) {
    const BehaviorRegistry reg = standard_registry(bram_bits(region.bram_blocks()));
    for (const int id : {kPatternMatcher, kJenkinsHash, kSha1, kBrightness,
                         kBlendAdd, kFade, kLoopback, kSink, kPatternMatcherXl}) {
      ASSERT_TRUE(reg.contains(id));
      SCOPED_TRACE(std::string(task_name(static_cast<BehaviorId>(id))) +
                   " at " + std::to_string(region.bram_blocks()) + " BRAMs");
      switch (id) {
        case kJenkinsHash:
        case kSha1:
          // Every length 0-300 covers every len % 12 and len % 64.
          for (std::uint32_t len = 0; len <= 300; ++len) {
            std::vector<std::uint8_t> msg(len);
            for (auto& b : msg) b = rng.next_u8();
            std::vector<std::uint32_t> words{len};
            const auto packed = pack_bytes(msg);
            words.insert(words.end(), packed.begin(), packed.end());
            expect_blocks_match_every_cut(
                reg, id, 0, writes_then_reads(words, id == kSha1 ? 6 : 2), rng);
          }
          break;
        case kPatternMatcher:
        case kPatternMatcherXl:
          for (const auto& [w, h] : {std::pair{8, 8}, {12, 9}, {64, 48}}) {
            const int counts = (w - 7) * (h - 7);
            expect_blocks_match_every_cut(
                reg, id, 0, matcher_strobes(w, h, counts + 2, rng), rng);
          }
          // 720x576 pixels exceed both areas' buffers: a capacity error.
          expect_blocks_match_every_cut(reg, id, 0,
                                        matcher_strobes(720, 576, 3, rng), rng);
          break;
        case kBrightness:
          for (const int delta : {-255, -1, 0, 60, 255}) {
            const auto ctrl = static_cast<std::uint16_t>(delta);
            for (const std::size_t n : image_words) {
              // The drivers' 1:1 shape, and many writes before one read.
              const auto words = seeded_words(n, rng);
              expect_blocks_match_every_cut(reg, id, ctrl, grouped(words, 1), rng);
              expect_blocks_match_every_cut(reg, id, ctrl,
                                            writes_then_reads(words, 2), rng);
            }
          }
          break;
        case kBlendAdd:
        case kFade:
          for (const std::uint32_t f : {0u, 160u, 511u}) {
            if (id == kBlendAdd && f != 0) continue;
            for (const std::size_t n : image_words) {
              expect_blocks_match_every_cut(reg, id, f,
                                            grouped(seeded_words(2 * n, rng), 2),
                                            rng);
            }
          }
          break;
        case kLoopback:
        case kSink:
          for (const std::size_t n : image_words) {
            const auto words = seeded_words(n, rng);
            expect_blocks_match_every_cut(reg, id, 0, grouped(words, 1), rng);
            expect_blocks_match_every_cut(reg, id, 0,
                                          writes_then_reads(words, 3), rng);
          }
          break;
        default:
          ADD_FAILURE() << "no protocol stream for behaviour " << id;
      }
    }
  }
}

// --- library -------------------------------------------------------------------------

TEST(Library, RegistryCreatesEveryBehaviour) {
  const BehaviorRegistry reg = standard_registry(bram_bits(6));
  for (int id : {kPatternMatcher, kJenkinsHash, kSha1, kBrightness, kBlendAdd,
                 kFade}) {
    ASSERT_TRUE(reg.contains(id));
    const auto m = reg.create(id);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->behavior_id(), id);
  }
  EXPECT_FALSE(reg.contains(999));
  EXPECT_EQ(reg.create(999), nullptr);
}

TEST(Library, ComponentsCarryDockInterface) {
  for (int width : {32, 64}) {
    const auto c = component_for(kJenkinsHash, width);
    ASSERT_EQ(c.macros.size(), 3u);
    EXPECT_EQ(c.macros[0].width(), width);
    EXPECT_EQ(c.behavior_id, kJenkinsHash);
  }
}

TEST(Library, Sha1TallerThanThe32BitRegion) {
  const auto sha = component_for(kSha1, 32);
  EXPECT_GT(sha.rows, 11);          // the 28x11 region cannot host it
  EXPECT_GT(sha.rows * sha.cols, 308);
  const auto pm = component_for(kPatternMatcher, 32);
  EXPECT_LE(pm.rows, 11);
  EXPECT_LE(pm.cols, 28);
}

}  // namespace
}  // namespace rtr::hw
