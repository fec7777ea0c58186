#include "apps/golden.hpp"

#include <algorithm>
#include <cstring>

#include "sim/check.hpp"

namespace rtr::apps {

// --- BinaryImage -------------------------------------------------------------

BinaryImage BinaryImage::make(int width, int height) {
  RTR_CHECK(width >= 8 && height >= 8, "image smaller than the pattern");
  BinaryImage img;
  img.width = width;
  img.height = height;
  img.words.assign(static_cast<std::size_t>(img.words_per_row()) *
                       static_cast<std::size_t>(height),
                   0);
  return img;
}

bool BinaryImage::get(int r, int c) const {
  const std::size_t w = static_cast<std::size_t>(r) * words_per_row() +
                        static_cast<std::size_t>(c / 32);
  return (words[w] >> (c % 32)) & 1u;
}

void BinaryImage::set(int r, int c, bool v) {
  const std::size_t w = static_cast<std::size_t>(r) * words_per_row() +
                        static_cast<std::size_t>(c / 32);
  if (v) {
    words[w] |= 1u << (c % 32);
  } else {
    words[w] &= ~(1u << (c % 32));
  }
}

namespace {

/// Eight byte lanes of a 64-bit word.
constexpr std::uint64_t kByteLanes = 0x0101010101010101ull;

/// Per-byte population count of `x`: each byte of the result counts the
/// set bits of the same byte of `x`.
constexpr std::uint64_t popcount_bytes(std::uint64_t x) {
  x = x - ((x >> 1) & (kByteLanes * 0x55));
  x = (x & (kByteLanes * 0x33)) + ((x >> 2) & (kByteLanes * 0x33));
  return (x + (x >> 4)) & (kByteLanes * 0x0F);
}

}  // namespace

namespace {

/// Window columns counted at once: bounds the engine's buffers, a multiple
/// of the eight positions one 64-bit word counts.
constexpr std::size_t kMatchColumns = 256;

/// Count every window of `img` against `pat` and hand each output row's
/// counts to visit(r, c0, counts), counts[j] belonging to window
/// (r, c0 + j): the columns a chunk of kMatchColumns at a time, each
/// chunk's rows in order, so that only the last eight image rows' window
/// bytes are kept.
template <typename Visit>
void for_each_count_row(const BinaryImageView& img, const Pattern8x8& pat,
                        Visit&& visit) {
  const auto height = static_cast<std::size_t>(img.height);
  const std::size_t cols = static_cast<std::size_t>(img.width) - 7;
  const auto wpr = static_cast<std::size_t>(img.words_per_row());
  // ring[y % 8]: image row y's window bytes, byte j holding bits
  // c0 + j .. c0 + j + 7 of the row, LSB-first. A group's eight windows come
  // from the 15 row bits at its first column; bytes past the chunk's last
  // window feed count lanes that are never handed out.
  std::array<std::array<std::uint8_t, kMatchColumns>, 8> ring;
  std::array<std::uint8_t, kMatchColumns> counts;
  for (std::size_t c0 = 0; c0 < cols; c0 += kMatchColumns) {
    const std::size_t n = std::min(kMatchColumns, cols - c0);
    for (std::size_t y = 0; y < height; ++y) {
      const std::uint32_t* row = img.words.data() + y * wpr;
      std::uint8_t* win = ring[y % 8].data();
      for (std::size_t j = 0; j < n; j += 8) {
        const std::size_t c = c0 + j;
        const std::size_t w = c / 32;
        const std::uint64_t next = w + 1 < wpr ? row[w + 1] : 0;
        const std::uint64_t bits = (row[w] | next << 32) >> (c % 32);
        for (std::size_t k = 0; k < 8; ++k) {
          win[j + k] = static_cast<std::uint8_t>(bits >> k);
        }
      }
      if (y < 7) continue;
      // Eight window positions per 64-bit word: byte k of `sum` accumulates
      // position j + k's matches over the eight pattern rows (at most 64,
      // so no byte carries into the next).
      const std::size_t r = y - 7;
      for (std::size_t j = 0; j < n; j += 8) {
        std::uint64_t sum = 0;
        for (std::size_t pr = 0; pr < 8; ++pr) {
          std::uint64_t group = 0;
          std::memcpy(&group, ring[(r + pr) % 8].data() + j, 8);
          sum += popcount_bytes(~(group ^ (kByteLanes * pat[pr])));
        }
        std::memcpy(counts.data() + j, &sum, 8);
      }
      visit(r, c0, std::span{counts}.first(n));
    }
  }
}

}  // namespace

std::vector<std::uint8_t> pattern_match_counts(const BinaryImageView& img,
                                               const Pattern8x8& pat) {
  const std::size_t cols = static_cast<std::size_t>(img.width) - 7;
  std::vector<std::uint8_t> counts(
      (static_cast<std::size_t>(img.height) - 7) * cols);
  for_each_count_row(img, pat,
                     [&](std::size_t r, std::size_t c0,
                         std::span<const std::uint8_t> row) {
                       std::copy(row.begin(), row.end(),
                                 counts.begin() + r * cols + c0);
                     });
  return counts;
}

MatchResult pattern_match(const BinaryImageView& img, const Pattern8x8& pat) {
  MatchResult res;
  for_each_count_row(img, pat,
                     [&](std::size_t r, std::size_t c0,
                         std::span<const std::uint8_t> row) {
                       for (std::size_t j = 0; j < row.size(); ++j) {
                         const auto c = static_cast<int>(c0 + j);
                         if (beats(res, row[j], static_cast<int>(r), c)) {
                           res.best_count = row[j];
                           res.best_row = static_cast<int>(r);
                           res.best_col = c;
                         }
                       }
                     });
  return res;
}

namespace {

/// Byte-per-pixel expansion of every 8-bit run of a bit-packed row: entry
/// v holds bit k of v (LSB-first) in byte k.
constexpr auto kBitBytes = [] {
  std::array<std::array<std::uint8_t, 8>, 256> t{};
  for (std::size_t v = 0; v < t.size(); ++v) {
    for (std::size_t k = 0; k < 8; ++k) t[v][k] = (v >> k) & 1;
  }
  return t;
}();

}  // namespace

void to_bytes(const BinaryImageView& img, std::span<std::uint8_t> px) {
  const auto width = static_cast<std::size_t>(img.width);
  const auto wpr = static_cast<std::size_t>(img.words_per_row());
  RTR_CHECK(px.size() == width * static_cast<std::size_t>(img.height),
            "one byte per pixel");
  // Eight pixels per table lookup; bits of a row's last word past the
  // image width are never copied.
  for (std::size_t r = 0; r < static_cast<std::size_t>(img.height); ++r) {
    const std::uint32_t* row = img.words.data() + r * wpr;
    std::uint8_t* out = px.data() + r * width;
    for (std::size_t c = 0; c < width; c += 8) {
      const std::size_t bits = (row[c / 32] >> (c % 32)) & 0xFF;
      std::memcpy(out + c, kBitBytes[bits].data(),
                  std::min<std::size_t>(8, width - c));
    }
  }
}

std::vector<std::uint8_t> to_bytes(const BinaryImageView& img) {
  std::vector<std::uint8_t> px(static_cast<std::size_t>(img.width) *
                               static_cast<std::size_t>(img.height));
  to_bytes(img, px);
  return px;
}

BinaryImage from_bytes(int width, int height,
                       std::span<const std::uint8_t> px) {
  BinaryImage img = BinaryImage::make(width, height);
  for (int r = 0; r < height; ++r) {
    for (int c = 0; c < width; ++c) {
      img.set(r, c,
              px[static_cast<std::size_t>(r) * static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(c)] != 0);
    }
  }
  return img;
}

// --- Jenkins lookup2 ----------------------------------------------------------

namespace {
constexpr void jenkins_mix(std::uint32_t& a, std::uint32_t& b,
                           std::uint32_t& c) {
  a -= b; a -= c; a ^= (c >> 13);
  b -= c; b -= a; b ^= (a << 8);
  c -= a; c -= b; c ^= (b >> 13);
  a -= b; a -= c; a ^= (c >> 12);
  b -= c; b -= a; b ^= (a << 16);
  c -= a; c -= b; c ^= (b >> 5);
  a -= b; a -= c; a ^= (c >> 3);
  b -= c; b -= a; b ^= (a << 10);
  c -= a; c -= b; c ^= (b >> 15);
}
}  // namespace

std::uint32_t jenkins_hash(std::span<const std::uint8_t> key,
                           std::uint32_t initval) {
  std::uint32_t a = 0x9e3779b9u;
  std::uint32_t b = 0x9e3779b9u;
  std::uint32_t c = initval;
  std::size_t len = key.size();
  const std::uint8_t* k = key.data();

  while (len >= 12) {
    a += k[0] + (std::uint32_t{k[1]} << 8) + (std::uint32_t{k[2]} << 16) +
         (std::uint32_t{k[3]} << 24);
    b += k[4] + (std::uint32_t{k[5]} << 8) + (std::uint32_t{k[6]} << 16) +
         (std::uint32_t{k[7]} << 24);
    c += k[8] + (std::uint32_t{k[9]} << 8) + (std::uint32_t{k[10]} << 16) +
         (std::uint32_t{k[11]} << 24);
    jenkins_mix(a, b, c);
    k += 12;
    len -= 12;
  }

  c += static_cast<std::uint32_t>(key.size());
  switch (len) {  // all the case statements fall through, as in the original
    case 11: c += std::uint32_t{k[10]} << 24; [[fallthrough]];
    case 10: c += std::uint32_t{k[9]} << 16; [[fallthrough]];
    case 9: c += std::uint32_t{k[8]} << 8; [[fallthrough]];
    case 8: b += std::uint32_t{k[7]} << 24; [[fallthrough]];
    case 7: b += std::uint32_t{k[6]} << 16; [[fallthrough]];
    case 6: b += std::uint32_t{k[5]} << 8; [[fallthrough]];
    case 5: b += k[4]; [[fallthrough]];
    case 4: a += std::uint32_t{k[3]} << 24; [[fallthrough]];
    case 3: a += std::uint32_t{k[2]} << 16; [[fallthrough]];
    case 2: a += std::uint32_t{k[1]} << 8; [[fallthrough]];
    case 1: a += k[0]; break;
    case 0: break;
  }
  jenkins_mix(a, b, c);
  return c;
}

// --- SHA-1 (RFC 3174) ----------------------------------------------------------

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

/// Rounds [20 * P, 20 * P + 20): phase P's function and constant, with
/// W[t] kept in a 16-word window, w[t % 16]. Five rounds per step, each
/// naming the working variables in its turn, so none is moved.
template <int P>
void sha1_phase(std::uint32_t (&v)[5], std::uint32_t (&w)[16]) {
  static constexpr std::uint32_t k[] = {0x5A827999u, 0x6ED9EBA1u,
                                        0x8F1BBCDCu, 0xCA62C1D6u};
  const auto round = [&w](std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                          std::uint32_t d, std::uint32_t& e, int t) {
    if (t >= 16) {
      w[t % 16] = rotl(w[(t - 3) % 16] ^ w[(t - 8) % 16] ^ w[(t - 14) % 16] ^
                           w[t % 16],
                       1);
    }
    std::uint32_t f;
    if constexpr (P == 0) {
      f = (b & c) | (~b & d);
    } else if constexpr (P == 2) {
      f = (b & c) | (b & d) | (c & d);
    } else {
      f = b ^ c ^ d;
    }
    e += rotl(a, 5) + f + w[t % 16] + k[P];
    b = rotl(b, 30);
  };
  auto& [a, b, c, d, e] = v;
  for (int t = 20 * P; t < 20 * P + 20; t += 5) {
    round(a, b, c, d, e, t);
    round(e, a, b, c, d, t + 1);
    round(d, e, a, b, c, t + 2);
    round(c, d, e, a, b, t + 3);
    round(b, c, d, e, a, t + 4);
  }
}

/// One 64-byte block of the SHA-1 compression function.
void sha1_block(std::array<std::uint32_t, 5>& h, const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    const std::uint8_t* p = block + static_cast<std::size_t>(t) * 4;
    w[t] = (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }
  std::uint32_t v[5] = {h[0], h[1], h[2], h[3], h[4]};
  sha1_phase<0>(v, w);
  sha1_phase<1>(v, w);
  sha1_phase<2>(v, w);
  sha1_phase<3>(v, w);
  for (std::size_t i = 0; i < 5; ++i) h[i] += v[i];
}

}  // namespace

std::array<std::uint32_t, 5> sha1(std::span<const std::uint8_t> msg) {
  std::array<std::uint32_t, 5> h = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};
  const std::size_t whole = msg.size() / 64 * 64;
  for (std::size_t i = 0; i < whole; i += 64) sha1_block(h, msg.data() + i);
  // The padded tail: the last partial block + 0x80 + zeros + the 64-bit
  // big-endian bit length, one block or, past 55 tail bytes, two.
  std::array<std::uint8_t, 128> tail{};
  const std::size_t rest = msg.size() - whole;
  std::copy(msg.begin() + static_cast<std::ptrdiff_t>(whole), msg.end(),
            tail.begin());
  tail[rest] = 0x80;
  const std::size_t len = rest + 9 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[len - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  for (std::size_t i = 0; i < len; i += 64) sha1_block(h, tail.data() + i);
  return h;
}

// --- grayscale tasks ------------------------------------------------------------

GrayImage GrayImage::make(int width, int height) {
  GrayImage img;
  img.width = width;
  img.height = height;
  img.pixels.assign(static_cast<std::size_t>(width) *
                        static_cast<std::size_t>(height),
                    0);
  return img;
}

// The pixel loops run over local pointers: a store through out.pixels[i]
// may alias the vectors' own data pointers, which keeps the loop scalar.

GrayImage brightness(const GrayImage& in, int delta) {
  GrayImage out = GrayImage::make(in.width, in.height);
  const std::uint8_t* src = in.pixels.data();
  std::uint8_t* dst = out.pixels.data();
  for (std::size_t i = 0, n = in.pixels.size(); i < n; ++i) {
    dst[i] = sat_add(src[i], delta);
  }
  return out;
}

GrayImage blend_add(const GrayImage& a, const GrayImage& b) {
  RTR_CHECK(a.width == b.width && a.height == b.height,
            "blend of differently sized images");
  GrayImage out = GrayImage::make(a.width, a.height);
  const std::uint8_t* pa = a.pixels.data();
  const std::uint8_t* pb = b.pixels.data();
  std::uint8_t* dst = out.pixels.data();
  for (std::size_t i = 0, n = a.pixels.size(); i < n; ++i) {
    dst[i] = sat_add(pa[i], pb[i]);
  }
  return out;
}

GrayImage fade(const GrayImage& a, const GrayImage& b, int f) {
  RTR_CHECK(a.width == b.width && a.height == b.height,
            "fade of differently sized images");
  RTR_CHECK(f >= 0 && f <= 256, "fade factor out of range");
  GrayImage out = GrayImage::make(a.width, a.height);
  const std::uint8_t* pa = a.pixels.data();
  const std::uint8_t* pb = b.pixels.data();
  std::uint8_t* dst = out.pixels.data();
  for (std::size_t i = 0, n = a.pixels.size(); i < n; ++i) {
    dst[i] = fade_px(pa[i], pb[i], f);
  }
  return out;
}

}  // namespace rtr::apps
