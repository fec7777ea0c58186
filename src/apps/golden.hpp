// Golden (untimed) reference implementations of the paper's six tasks.
//
// Every hardware behavioural model and every timed software kernel is
// property-tested against these. They are plain C++ with no simulation
// dependencies.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace rtr::apps {

// --- bilevel images & pattern matching (paper section 3.2) -------------------

/// The words of a bit-packed bilevel image held elsewhere (a BinaryImage,
/// or a request's fixed buffer): bit (r, c) is bit (c % 32) of word
/// [r * words_per_row + c / 32], LSB-first.
struct BinaryImageView {
  int width = 0;
  int height = 0;
  std::span<const std::uint32_t> words;

  [[nodiscard]] int words_per_row() const { return (width + 31) / 32; }
};

/// A bit-packed bilevel image that owns its words, laid out as in
/// BinaryImageView.
struct BinaryImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint32_t> words;

  static BinaryImage make(int width, int height);
  [[nodiscard]] int words_per_row() const { return (width + 31) / 32; }
  [[nodiscard]] bool get(int r, int c) const;
  void set(int r, int c, bool v);
  operator BinaryImageView() const { return {width, height, words}; }
};

/// An 8x8 bilevel pattern, one byte per row (bit c of row r, LSB-first).
using Pattern8x8 = std::array<std::uint8_t, 8>;

struct MatchResult {
  int best_count = -1;  // matching pixels at the best window position
  int best_row = 0;
  int best_col = 0;
};

/// Slide `pat` over `img`; per-position counts of pixels equal to the
/// pattern's, in row-major window order ((height-7) * (width-7) entries).
std::vector<std::uint8_t> pattern_match_counts(const BinaryImageView& img,
                                               const Pattern8x8& pat);

/// Best position over the same counts (the first in row-major order wins
/// ties), counted without allocating.
MatchResult pattern_match(const BinaryImageView& img, const Pattern8x8& pat);

/// True when a window at (r, c) counting `count` beats `best`: it counts
/// more, or as many and comes first in row-major order. The best window
/// whatever order the windows are counted in.
[[nodiscard]] constexpr bool beats(const MatchResult& best, int count, int r,
                                   int c) {
  return count > best.best_count ||
         (count == best.best_count &&
          (r < best.best_row || (r == best.best_row && c < best.best_col)));
}

/// Byte-per-pixel rendering of a bilevel image (the natural C layout the
/// software baseline operates on): non-zero byte = set pixel. `out` holds
/// width * height bytes.
void to_bytes(const BinaryImageView& img, std::span<std::uint8_t> out);
std::vector<std::uint8_t> to_bytes(const BinaryImageView& img);
BinaryImage from_bytes(int width, int height, std::span<const std::uint8_t> px);

// --- Jenkins lookup2 hash (paper section 3.2, ref [8]) -----------------------

/// Bob Jenkins' lookup2 hash ("Hash functions", Dr. Dobb's Journal, 1997):
/// a 32-bit hash of a variable-length key.
std::uint32_t jenkins_hash(std::span<const std::uint8_t> key,
                           std::uint32_t initval = 0);

// --- SHA-1 (paper section 4.2, RFC 3174) -------------------------------------

/// SHA-1 digest of `msg` per RFC 3174.
std::array<std::uint32_t, 5> sha1(std::span<const std::uint8_t> msg);

// --- grayscale image tasks (paper sections 3.2 / 4.2) -------------------------

struct GrayImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;

  static GrayImage make(int width, int height);
  [[nodiscard]] std::size_t size() const { return pixels.size(); }
};

/// Brightness adjustment: out = saturate(px + delta), delta in [-255, 255].
GrayImage brightness(const GrayImage& in, int delta);

/// Additive blending: out = saturate(a + b).
GrayImage blend_add(const GrayImage& a, const GrayImage& b);

/// Fade: out = ((a - b) * f) / 256 + b, f in [0, 256].
GrayImage fade(const GrayImage& a, const GrayImage& b, int f);

/// Scalar helpers shared with the behavioural models.
[[nodiscard]] constexpr std::uint8_t sat_add(int a, int b) {
  const int s = a + b;
  return static_cast<std::uint8_t>(s < 0 ? 0 : (s > 255 ? 255 : s));
}
[[nodiscard]] constexpr std::uint8_t fade_px(int a, int b, int f) {
  const int v = ((a - b) * f) / 256 + b;
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

}  // namespace rtr::apps
