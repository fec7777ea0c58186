// Tests for the golden reference implementations: SHA-1 against RFC 3174
// test vectors, Jenkins lookup2 properties, pattern matching on constructed
// cases, image ops including saturation edges.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "apps/golden.hpp"
#include "sim/random.hpp"

namespace rtr::apps {
namespace {

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// --- SHA-1 ---------------------------------------------------------------------

TEST(Sha1Golden, Rfc3174TestVector1) {
  const auto h = sha1(bytes_of("abc"));
  const std::array<std::uint32_t, 5> want = {0xA9993E36u, 0x4706816Au,
                                             0xBA3E2571u, 0x7850C26Cu,
                                             0x9CD0D89Du};
  EXPECT_EQ(h, want);
}

TEST(Sha1Golden, Rfc3174TestVector2) {
  const auto h = sha1(
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  const std::array<std::uint32_t, 5> want = {0x84983E44u, 0x1C3BD26Eu,
                                             0xBAAE4AA1u, 0xF95129E5u,
                                             0xE54670F1u};
  EXPECT_EQ(h, want);
}

TEST(Sha1Golden, Rfc3174TestVector3) {
  // One million 'a's.
  std::vector<std::uint8_t> msg(1'000'000, 'a');
  const auto h = sha1(msg);
  const std::array<std::uint32_t, 5> want = {0x34AA973Cu, 0xD4C4DAA4u,
                                             0xF61EEB2Bu, 0xDBAD2731u,
                                             0x6534016Fu};
  EXPECT_EQ(h, want);
}

TEST(Sha1Golden, EmptyMessage) {
  const auto h = sha1({});
  const std::array<std::uint32_t, 5> want = {0xDA39A3EEu, 0x5E6B4B0Du,
                                             0x3255BFEFu, 0x95601890u,
                                             0xAFD80709u};
  EXPECT_EQ(h, want);
}

TEST(Sha1Golden, BlockBoundaryLengths) {
  // Padding edge cases: 55, 56, 63, 64, 65 bytes.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    std::vector<std::uint8_t> msg(n, 0x5A);
    const auto h1 = sha1(msg);
    msg.back() ^= 1;
    const auto h2 = sha1(msg);
    EXPECT_NE(h1, h2) << "length " << n;
  }
}

// --- Jenkins lookup2 --------------------------------------------------------------

TEST(JenkinsGolden, Deterministic) {
  const std::string key = "the quick brown fox";
  EXPECT_EQ(jenkins_hash(bytes_of(key)), jenkins_hash(bytes_of(key)));
}

TEST(JenkinsGolden, SensitiveToEveryByte) {
  sim::Rng rng{3};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> key(13 + rng.below(40));
    for (auto& b : key) b = rng.next_u8();
    const std::uint32_t h = jenkins_hash(key);
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] ^= 0x40;
      EXPECT_NE(jenkins_hash(key), h) << "byte " << i;
      key[i] ^= 0x40;
    }
  }
}

TEST(JenkinsGolden, LengthIsPartOfTheHash) {
  const std::vector<std::uint8_t> a(16, 0);
  const std::vector<std::uint8_t> b(17, 0);
  EXPECT_NE(jenkins_hash(a), jenkins_hash(b));
}

TEST(JenkinsGolden, InitvalChains) {
  const std::string key = "chain";
  EXPECT_NE(jenkins_hash(bytes_of(key), 0), jenkins_hash(bytes_of(key), 1));
}

TEST(JenkinsGolden, AllTailLengthsDiffer) {
  // Exercise every switch arm of the tail handling (0..11 leftover bytes).
  std::vector<std::uint32_t> seen;
  for (int n = 12; n < 24; ++n) {
    std::vector<std::uint8_t> key(static_cast<std::size_t>(n), 0xAB);
    seen.push_back(jenkins_hash(key));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

// --- pattern matching ---------------------------------------------------------------

TEST(PatternGolden, FindsAnEmbeddedPattern) {
  BinaryImage img = BinaryImage::make(64, 48);
  Pattern8x8 pat = {0x81, 0x42, 0x24, 0x18, 0x18, 0x24, 0x42, 0x81};  // an X
  // Embed at (17, 33).
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      img.set(17 + r, 33 + c, (pat[static_cast<std::size_t>(r)] >> c) & 1);
    }
  }
  const MatchResult m = pattern_match(img, pat);
  EXPECT_EQ(m.best_count, 64);
  EXPECT_EQ(m.best_row, 17);
  EXPECT_EQ(m.best_col, 33);
}

TEST(PatternGolden, AllZeroImageMatchesZeroPatternEverywhere) {
  BinaryImage img = BinaryImage::make(16, 16);
  Pattern8x8 pat = {};
  const MatchResult m = pattern_match(img, pat);
  EXPECT_EQ(m.best_count, 64);
  EXPECT_EQ(m.best_row, 0);  // first position wins ties
  EXPECT_EQ(m.best_col, 0);
}

TEST(PatternGolden, CountsPartialMatches) {
  BinaryImage img = BinaryImage::make(8, 8);  // single position
  Pattern8x8 pat = {};
  img.set(3, 3, true);  // one mismatching pixel
  const MatchResult m = pattern_match(img, pat);
  EXPECT_EQ(m.best_count, 63);
}

TEST(PatternGolden, BitPackingRoundTrip) {
  BinaryImage img = BinaryImage::make(70, 9);  // width not a multiple of 32
  sim::Rng rng{17};
  std::vector<std::pair<int, int>> on;
  for (int i = 0; i < 100; ++i) {
    const int r = static_cast<int>(rng.below(9));
    const int c = static_cast<int>(rng.below(70));
    img.set(r, c, true);
    on.emplace_back(r, c);
  }
  for (auto [r, c] : on) EXPECT_TRUE(img.get(r, c));
  EXPECT_EQ(img.words_per_row(), 3);

  // to_bytes expands whole words: it equals the per-pixel expansion and
  // skips the bits of each row's last word past the width.
  for (const int width : {8, 13, 33, 41, 63, 70, 95}) {
    BinaryImage b = BinaryImage::make(width, 9);
    for (auto& w : b.words) w = rng.next_u32();
    const std::vector<std::uint8_t> px = to_bytes(b);
    ASSERT_EQ(px.size(), static_cast<std::size_t>(width) * 9);
    for (int r = 0; r < 9; ++r) {
      for (int c = 0; c < width; ++c) {
        ASSERT_EQ(px[static_cast<std::size_t>(r * width + c)],
                  b.get(r, c) ? 1 : 0)
            << "width " << width << " pixel " << r << "," << c;
      }
    }
  }
}

// --- image ops ------------------------------------------------------------------------

TEST(ImageGolden, BrightnessSaturates) {
  GrayImage in = GrayImage::make(4, 1);
  in.pixels = {0, 100, 200, 255};
  const GrayImage up = brightness(in, 100);
  EXPECT_EQ(up.pixels, (std::vector<std::uint8_t>{100, 200, 255, 255}));
  const GrayImage down = brightness(in, -150);
  EXPECT_EQ(down.pixels, (std::vector<std::uint8_t>{0, 0, 50, 105}));
}

TEST(ImageGolden, BlendSaturates) {
  GrayImage a = GrayImage::make(3, 1);
  GrayImage b = GrayImage::make(3, 1);
  a.pixels = {10, 200, 255};
  b.pixels = {20, 100, 255};
  const GrayImage out = blend_add(a, b);
  EXPECT_EQ(out.pixels, (std::vector<std::uint8_t>{30, 255, 255}));
}

TEST(ImageGolden, FadeEndpoints) {
  GrayImage a = GrayImage::make(2, 1);
  GrayImage b = GrayImage::make(2, 1);
  a.pixels = {240, 10};
  b.pixels = {20, 200};
  // f=0: pure B; f=256: pure A.
  EXPECT_EQ(fade(a, b, 0).pixels, b.pixels);
  EXPECT_EQ(fade(a, b, 256).pixels, a.pixels);
  // f=128: halfway (rounding toward b).
  const GrayImage mid = fade(a, b, 128);
  EXPECT_EQ(mid.pixels[0], 130);
  EXPECT_EQ(mid.pixels[1], 105);
}

TEST(ImageGolden, FadeStaysInRange) {
  sim::Rng rng{5};
  GrayImage a = GrayImage::make(64, 4);
  GrayImage b = GrayImage::make(64, 4);
  for (auto& p : a.pixels) p = rng.next_u8();
  for (auto& p : b.pixels) p = rng.next_u8();
  for (int f : {0, 64, 128, 192, 256}) {
    const GrayImage out = fade(a, b, f);
    EXPECT_EQ(out.pixels.size(), a.pixels.size());
  }
}

}  // namespace
}  // namespace rtr::apps
