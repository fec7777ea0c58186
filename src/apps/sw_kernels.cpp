#include "apps/sw_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <vector>

#include "apps/memio.hpp"
#include "cpu/periodic_loop.hpp"
#include "hw/library.hpp"

namespace rtr::apps {

using bus::Addr;
using cpu::Kernel;

// Every fixed-body loop runs through cpu::run_periodic: the per-iteration
// lambda is the timing reference, the bulk lambda applies the data effect
// of the iterations the runner replays in closed form. The bulk sides
// compute with this file's helpers, which the per-iteration bodies share
// (the matcher's bulk side counts windows word-parallel), and never with
// golden.cpp's, so the golden checks still compare two programs.
namespace {

constexpr Addr at(Addr base, std::int64_t i) {
  return base + static_cast<Addr>(i);
}

constexpr std::uint8_t saturate(int v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

// --- pattern matching ---------------------------------------------------------

/// Window columns the matcher's bulk side counts at once: bounds its
/// staging buffers.
constexpr std::int64_t kWindowChunk = 256;

/// Count windows [r0, r0 + rows) x [c0, c0 + cols) of the `w`-byte-wide
/// image at `img` natively, handing each to track(r, c, count): a chunk of
/// at most kWindowChunk columns at a time, the rows of each chunk in order,
/// each row's pixels staged from memory through a fixed buffer. A window's
/// count is the number of its 64 pixels whose set-ness equals the pattern
/// bit.
template <typename Track>
void count_windows(bus::Bus& mem, Addr img, int w, std::int64_t r0,
                   std::int64_t rows, std::int64_t c0, std::int64_t cols,
                   std::uint64_t pbits, Track&& track) {
  // win[c]: window (r, cc + c)'s 64 pixel bits, pattern row pr in byte pr.
  std::array<std::uint64_t, kWindowChunk> win;
  std::array<std::uint8_t, kWindowChunk + 7> px;
  for (std::int64_t cc = c0; cc < c0 + cols; cc += kWindowChunk) {
    const auto n = static_cast<std::size_t>(
        std::min(kWindowChunk, c0 + cols - cc));
    std::fill_n(win.begin(), n, 0);
    for (std::int64_t y = 0; y < rows + 7; ++y) {
      // Pixels cc .. cc + n + 6 of image row r0 + y; column c's window
      // bits of the row: bit pc is pixel (y, cc + c + pc).
      mem.peek_block(at(img, (r0 + y) * w + cc), std::span{px}.first(n + 7));
      unsigned bits = 0;
      for (int pc = 0; pc < 7; ++pc) bits |= unsigned{px[pc] != 0} << pc;
      for (std::size_t c = 0; c < n; ++c) {
        bits |= unsigned{px[c + 7] != 0} << 7;
        win[c] = (win[c] >> 8) | std::uint64_t{bits} << 56;
        bits >>= 1;
      }
      if (y < 7) continue;
      for (std::size_t c = 0; c < n; ++c) {
        track(r0 + y - 7, cc + static_cast<std::int64_t>(c),
              64 - std::popcount(win[c] ^ pbits));
      }
    }
  }
}

// --- Jenkins lookup2 ----------------------------------------------------------

void jenkins_mix(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c) {
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

// --- SHA-1 --------------------------------------------------------------------

using Sha1Words = std::array<std::uint32_t, 5>;
using Sha1Schedule = std::array<std::uint32_t, 80>;
/// Host staging of one 64-byte block and of the whole W[] (320 bytes): the
/// bulk sides' buffers, sized by the kernel's bounds.
using BlockBytes = std::array<std::uint8_t, 64>;
using ScheduleBytes = std::array<std::uint8_t, 320>;

constexpr std::uint32_t rol(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

/// W[t] for t < 16: message bytes 4t .. 4t + 3, big-endian.
constexpr std::uint32_t big_endian(std::uint32_t b0, std::uint32_t b1,
                                   std::uint32_t b2, std::uint32_t b3) {
  return b0 << 24 | b1 << 16 | b2 << 8 | b3;
}

/// W[t] for t >= 16, from W[t-3], W[t-8], W[t-14] and W[t-16].
constexpr std::uint32_t expand(std::uint32_t w3, std::uint32_t w8,
                               std::uint32_t w14, std::uint32_t w16) {
  return rol(w3 ^ w8 ^ w14 ^ w16, 1);
}

/// The round function of each 20-round phase: rounds 0-19, 20-39, 40-59
/// and 60-79 use choose, parity, majority and parity.
constexpr std::uint32_t choose(std::uint32_t b, std::uint32_t c,
                               std::uint32_t d) {
  return (b & c) | ((~b) & d);
}
constexpr std::uint32_t parity(std::uint32_t b, std::uint32_t c,
                               std::uint32_t d) {
  return b ^ c ^ d;
}
constexpr std::uint32_t majority(std::uint32_t b, std::uint32_t c,
                                 std::uint32_t d) {
  return (b & c) | (b & d) | (c & d);
}
constexpr std::uint32_t kRoundConstant[4] = {0x5A827999u, 0x6ED9EBA1u,
                                             0x8F1BBCDCu, 0xCA62C1D6u};

/// One round on the working variables a..e: `f` of b, c and d, plus the
/// schedule word `w` and the phase's constant `kc`.
void step(std::uint32_t f, std::uint32_t w, std::uint32_t kc, Sha1Words& v) {
  auto& [a, b, c, d, e] = v;
  const std::uint32_t tmp = rol(a, 5) + f + e + w + kc;
  e = d;
  d = c;
  c = rol(b, 30);
  b = a;
  a = tmp;
}

/// Round t on a..e, with schedule word `w`.
void round(std::int64_t t, std::uint32_t w, Sha1Words& v) {
  const auto& [a, b, c, d, e] = v;
  const std::uint32_t f = t < 20   ? choose(b, c, d)
                          : t < 40 ? parity(b, c, d)
                          : t < 60 ? majority(b, c, d)
                                   : parity(b, c, d);
  step(f, w, kRoundConstant[t / 20], v);
}

/// The rounds of [from, to) that fall in phase `p`, whose function is F.
template <std::uint32_t (*F)(std::uint32_t, std::uint32_t, std::uint32_t)>
void phase_rounds(int p, const Sha1Schedule& w, std::int64_t from,
                  std::int64_t to, Sha1Words& v) {
  const std::int64_t first = std::max<std::int64_t>(from, 20 * p);
  const std::int64_t last = std::min<std::int64_t>(to, 20 * p + 20);
  const std::uint32_t kc = kRoundConstant[p];
  Sha1Words s = v;
  for (std::int64_t t = first; t < last; ++t) {
    step(F(s[1], s[2], s[3]), w[static_cast<std::size_t>(t)], kc, s);
  }
  v = s;
}

/// Rounds [from, to) on a..e, phase by phase.
void rounds(const Sha1Schedule& w, std::int64_t from, std::int64_t to,
            Sha1Words& v) {
  phase_rounds<choose>(0, w, from, to, v);
  phase_rounds<parity>(1, w, from, to, v);
  phase_rounds<majority>(2, w, from, to, v);
  phase_rounds<parity>(3, w, from, to, v);
}

/// W[from, to) of the 64-byte `block`, in order.
void schedule(std::span<const std::uint8_t> block, Sha1Schedule& w,
              std::int64_t from, std::int64_t to) {
  for (std::int64_t t = from; t < std::min<std::int64_t>(to, 16); ++t) {
    const auto i = static_cast<std::size_t>(4 * t);
    w[static_cast<std::size_t>(t)] =
        big_endian(block[i], block[i + 1], block[i + 2], block[i + 3]);
  }
  // Three words at a time: W[t], W[t+1] and W[t+2] read only words before
  // t, so each step loads what earlier steps stored, never a word it is
  // still computing.
  std::int64_t t = std::max<std::int64_t>(from, 16);
  for (; t + 3 <= to; t += 3) {
    const auto i = static_cast<std::size_t>(t);
    const std::uint32_t w0 = expand(w[i - 3], w[i - 8], w[i - 14], w[i - 16]);
    const std::uint32_t w1 = expand(w[i - 2], w[i - 7], w[i - 13], w[i - 15]);
    const std::uint32_t w2 = expand(w[i - 1], w[i - 6], w[i - 12], w[i - 14]);
    w[i] = w0;
    w[i + 1] = w1;
    w[i + 2] = w2;
  }
  for (; t < to; ++t) {
    const auto i = static_cast<std::size_t>(t);
    w[i] = expand(w[i - 3], w[i - 8], w[i - 14], w[i - 16]);
  }
}

/// W[from, to) from and to the in-memory W[] at `w_base` (sw's
/// little-endian words).
void fetch_schedule(bus::Bus& mem, Addr w_base, Sha1Schedule& w,
                    std::int64_t from, std::int64_t to) {
  ScheduleBytes bytes{};
  const auto n = static_cast<std::size_t>(to - from) * 4;
  mem.peek_block(at(w_base, 4 * from), std::span{bytes}.first(n));
  for (std::int64_t t = from; t < to; ++t) {
    w[static_cast<std::size_t>(t)] = le32(bytes, t - from);
  }
}
void store_schedule(bus::Bus& mem, Addr w_base, const Sha1Schedule& w,
                    std::int64_t from, std::int64_t to) {
  ScheduleBytes bytes{};
  for (std::int64_t t = from; t < to; ++t) {
    put_le32(bytes, t - from, w[static_cast<std::size_t>(t)]);
  }
  store_bytes(mem, at(w_base, 4 * from),
              std::span{bytes}.first(static_cast<std::size_t>(4 * (to - from))));
}

// --- image operations ---------------------------------------------------------

/// The image kernels' pixel loop: dst[i] = pixel(a[i], b[i]) over n pixels.
/// A one-source kernel passes no `b` and loads only a[i]; `work` charges
/// the CPU work between the loads and the store.
template <typename Work, typename Pixel>
void pixel_loop(Kernel& k, Addr a, std::optional<Addr> b, Addr dst, int n,
                Work&& work, Pixel&& pixel) {
  cpu::run_periodic(
      k,
      {.iterations = n,
       .reads = {bytes_at(a, n), b ? bytes_at(*b, n) : bus::AddressRange{}},
       .writes = bytes_at(dst, n)},
      [&](std::int64_t i) {
        const std::uint8_t pa = k.lbz(at(a, i));
        const std::uint8_t pb = b ? k.lbz(at(*b, i)) : 0;
        work();
        k.stb(at(dst, i), pixel(pa, pb));
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        bus::Bus& mem = k.cpu().plb();
        const auto len = static_cast<std::size_t>(count);
        const auto pa = fetch_bytes(mem, at(a, first), len);
        const auto pb = b ? fetch_bytes(mem, at(*b, first), len)
                          : std::vector<std::uint8_t>(len);
        std::vector<std::uint8_t> out(len);
        for (std::size_t j = 0; j < len; ++j) out[j] = pixel(pa[j], pb[j]);
        store_bytes(mem, at(dst, first), out);
      });
}

}  // namespace

MatchResult sw_pattern_match(Kernel& k, Addr img, int w, int h, Addr pat) {
  k.call();
  // Pattern prep: 64 byte loads, thresholded and packed into two registers
  // (the "cumbersome" bit manipulation, done once).
  std::uint64_t pbits = 0;
  cpu::run_periodic(
      k, {.iterations = 64, .reads = {bytes_at(pat, 64)}},
      [&](std::int64_t i) {
        const std::uint8_t b = k.lbz(at(pat, i));
        k.op(3);  // compare-to-zero, shift, or
        pbits |= static_cast<std::uint64_t>(b != 0) << i;
      },
      [&](std::int64_t first, std::int64_t count) {
        pbits |= fetch_pattern_bits(k.cpu().plb(), pat, first, count);
      });

  // The bulk side counts a chunk of columns at a time, so the best window
  // is kept by position, whatever order the windows are counted in.
  MatchResult best;
  const auto track = [&](std::int64_t r, std::int64_t c, int count) {
    if (beats(best, count, static_cast<int>(r), static_cast<int>(c))) {
      best.best_count = count;
      best.best_row = static_cast<int>(r);
      best.best_col = static_cast<int>(c);
    }
  };
  const std::int64_t rows = h >= 8 ? h - 7 : 0;
  const std::int64_t cols = w >= 8 ? w - 7 : 0;
  const auto image_rows = [&](std::int64_t r, std::int64_t n) {
    return bytes_at(at(img, r * w), n * w);
  };
  // Windows [r, r + n_rows) x [c, c + n_cols), counted natively.
  const auto natively = [&](std::int64_t r, std::int64_t n_rows,
                            std::int64_t c, std::int64_t n_cols) {
    if (n_rows == 0 || n_cols == 0) return;
    count_windows(k.cpu().plb(), img, w, r, n_rows, c, n_cols, pbits, track);
  };
  const auto window = [&](std::int64_t r, std::int64_t c) {
    // Straightforward C inner loops: one image byte load and a handful of
    // scalar ops per pattern pixel.
    int count = 0;
    for (int pr = 0; pr < 8; ++pr) {
      const Addr row = at(img, (r + pr) * w + c);
      for (int pc = 0; pc < 8; ++pc) {
        const std::uint8_t px = k.lbz(row + static_cast<Addr>(pc));
        k.op(3);  // extract pattern bit, compare, conditional add
        const bool pbit = (pbits >> (pr * 8 + pc)) & 1;
        count += (px != 0) == pbit;
      }
      k.op(2);  // row address update
      k.branch();
    }
    k.op(3);  // compare with the running best, bookkeeping
    k.branch();
    track(r, c, count);
  };

  cpu::run_periodic(
      k, {.iterations = rows, .reads = {image_rows(0, h)}},
      [&](std::int64_t r) {
        cpu::run_periodic(
            k, {.iterations = cols, .reads = {image_rows(r, 8)}},
            [&](std::int64_t c) { window(r, c); },
            [&](std::int64_t first, std::int64_t count) {
              natively(r, 1, first, count);
            });
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        natively(first, count, 0, cols);
      });
  return best;
}

std::uint32_t sw_jenkins(Kernel& k, Addr key, std::uint32_t len) {
  k.call();
  std::uint32_t a = 0x9e3779b9u, b = 0x9e3779b9u, c = 0;

  auto load_word = [&](Addr base) {
    // k[0] + (k[1]<<8) + (k[2]<<16) + (k[3]<<24): 4 byte loads + 6 ops.
    std::uint32_t v = k.lbz(base);
    v |= std::uint32_t{k.lbz(base + 1)} << 8;
    v |= std::uint32_t{k.lbz(base + 2)} << 16;
    v |= std::uint32_t{k.lbz(base + 3)} << 24;
    k.op(6);
    return v;
  };
  auto mix = [&] {
    k.op(36);  // 9 lines of 4 scalar ops each (sub, sub, shift, xor)
    jenkins_mix(a, b, c);
  };

  // Whole 12-byte blocks; a, b and c stay in registers.
  const std::int64_t blocks = len / 12;
  cpu::run_periodic(
      k, {.iterations = blocks, .reads = {bytes_at(key, 12 * blocks)}},
      [&](std::int64_t i) {
        const Addr p = at(key, 12 * i);
        a += load_word(p);
        b += load_word(p + 4);
        c += load_word(p + 8);
        mix();
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        const auto in = fetch_bytes(k.cpu().plb(), at(key, 12 * first),
                                    static_cast<std::size_t>(count) * 12);
        for (std::int64_t j = 0; j < count; ++j) {
          a += le32(in, 3 * j);
          b += le32(in, 3 * j + 1);
          c += le32(in, 3 * j + 2);
          jenkins_mix(a, b, c);
        }
      });
  const Addr p = at(key, 12 * blocks);
  const auto remaining = static_cast<std::uint32_t>(len - 12 * blocks);

  c += len;
  k.op(1);
  // Tail: one byte load + shift + add per leftover byte.
  std::uint8_t tail[11] = {};
  for (std::uint32_t i = 0; i < remaining; ++i) {
    tail[i] = k.lbz(p + i);
    k.op(2);
  }
  const std::uint32_t n = remaining;
  auto tail_at = [&](std::uint32_t i) { return std::uint32_t{tail[i]}; };
  if (n >= 11) c += tail_at(10) << 24;
  if (n >= 10) c += tail_at(9) << 16;
  if (n >= 9) c += tail_at(8) << 8;
  if (n >= 8) b += tail_at(7) << 24;
  if (n >= 7) b += tail_at(6) << 16;
  if (n >= 6) b += tail_at(5) << 8;
  if (n >= 5) b += tail_at(4);
  if (n >= 4) a += tail_at(3) << 24;
  if (n >= 3) a += tail_at(2) << 16;
  if (n >= 2) a += tail_at(1) << 8;
  if (n >= 1) a += tail_at(0);
  mix();
  return c;
}

std::array<std::uint32_t, 5> sw_sha1(Kernel& k, Addr msg, std::uint32_t len,
                                     Addr scratch) {
  k.call();
  k.op(30);  // context initialisation (RFC code: SHA1Reset + locals)
  Sha1Words h = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                 0xC3D2E1F0u};
  const Addr w_base = scratch;            // W[80]
  const Addr block_base = scratch + 320;  // final padded block(s)
  bus::Bus& mem = k.cpu().plb();
  const auto w_at = [&](std::int64_t t) { return at(w_base, 4 * t); };

  auto process = [&](Addr block) {
    // Schedule: W[0..15] from the block (big-endian assembly: 4 byte loads
    // + 6 ops), stored to memory.
    cpu::run_periodic(
        k,
        {.iterations = 16,
         .reads = {bytes_at(block, 64)},
         .writes = bytes_at(w_base, 64)},
        [&](std::int64_t t) {
          const Addr src = at(block, 4 * t);
          const std::uint8_t b0 = k.lbz(src);
          const std::uint8_t b1 = k.lbz(src + 1);
          const std::uint8_t b2 = k.lbz(src + 2);
          const std::uint8_t b3 = k.lbz(src + 3);
          k.op(6);
          k.sw(w_at(t), big_endian(b0, b1, b2, b3));
        },
        [&](std::int64_t first, std::int64_t count) {
          BlockBytes bytes{};
          mem.peek_block(block, bytes);
          Sha1Schedule w;
          schedule(bytes, w, first, first + count);
          store_schedule(mem, w_base, w, first, first + count);
        });
    // W[16..79]: 4 loads, 3 xors, 1 rotate, 1 store each. Iteration t reads
    // W[t-3], which this loop wrote, so the bulk side computes in order.
    cpu::run_periodic(
        k,
        {.iterations = 64,
         .reads = {bytes_at(w_base, 64)},
         .writes = bytes_at(w_at(16), 256)},
        [&](std::int64_t i) {
          const std::int64_t t = 16 + i;
          const std::uint32_t w3 = k.lw(w_at(t - 3));
          const std::uint32_t w8 = k.lw(w_at(t - 8));
          const std::uint32_t w14 = k.lw(w_at(t - 14));
          const std::uint32_t w16 = k.lw(w_at(t - 16));
          k.op(4);
          k.sw(w_at(t), expand(w3, w8, w14, w16));
          k.branch();
        },
        [&](std::int64_t first, std::int64_t count) {
          const std::int64_t from = 16 + first, to = from + count;
          Sha1Schedule w;
          fetch_schedule(mem, w_base, w, 0, from);
          schedule({}, w, from, to);
          store_schedule(mem, w_base, w, from, to);
        });
    // 80 rounds on a..e in registers; the four phases cost the same.
    Sha1Words v = h;
    cpu::run_periodic(
        k, {.iterations = 80, .reads = {bytes_at(w_base, 320)}},
        [&](std::int64_t t) {
          round(t, k.lw(w_at(t)), v);
          k.op(10);  // f, adds, rotates, register shuffle
          k.branch();
        },
        [&](std::int64_t first, std::int64_t count) {
          Sha1Schedule w;
          fetch_schedule(mem, w_base, w, first, first + count);
          rounds(w, first, first + count, v);
        });
    for (std::size_t i = 0; i < h.size(); ++i) h[i] += v[i];
    k.op(5);
  };

  // Whole blocks straight from the message.
  const std::int64_t blocks = len / 64;
  cpu::run_periodic(
      k,
      {.iterations = blocks,
       .reads = {bytes_at(msg, 64 * blocks)},
       .writes = bytes_at(w_base, 320)},
      [&](std::int64_t i) {
        process(at(msg, 64 * i));
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        BlockBytes block{};
        Sha1Schedule w;
        for (std::int64_t j = first; j < first + count; ++j) {
          mem.peek_block(at(msg, 64 * j), block);
          schedule(block, w, 0, 80);
          Sha1Words v = h;
          rounds(w, 0, 80, v);
          for (std::size_t i = 0; i < h.size(); ++i) h[i] += v[i];
        }
        store_schedule(mem, w_base, w, 0, 80);  // the last block's W[]
      });
  // Tail block(s): copy the remainder into the scratch buffer, pad, append
  // the bit length (byte stores, as in the RFC code's message block).
  std::uint32_t off = static_cast<std::uint32_t>(64 * blocks);
  std::uint32_t fill = 0;
  for (; off < len; ++off, ++fill) {
    k.stb(block_base + fill, k.lbz(msg + off));
    k.op(2);
  }
  k.stb(block_base + fill, 0x80);
  ++fill;
  const bool two_blocks = fill > 56;
  const std::uint32_t pad_end = two_blocks ? 128 : 64;
  const Addr zeros = block_base + fill;
  const std::int64_t n_zeros = pad_end - 8 - fill;
  cpu::run_periodic(
      k, {.iterations = n_zeros, .writes = bytes_at(zeros, n_zeros)},
      [&](std::int64_t i) {
        k.stb(at(zeros, i), 0);
        k.op(1);
      },
      [&](std::int64_t first, std::int64_t count) {
        // At most 63 padding zeros: the 0x80 byte and the length leave no
        // more room in the last block.
        constexpr BlockBytes kZeros{};
        store_bytes(mem, at(zeros, first),
                    std::span{kZeros}.first(static_cast<std::size_t>(count)));
      });
  fill = pad_end - 8;
  const std::uint64_t bits = std::uint64_t{len} * 8;
  for (int i = 7; i >= 0; --i) {
    k.stb(block_base + fill++, static_cast<std::uint8_t>(bits >> (8 * i)));
    k.op(1);
  }
  process(block_base);
  if (two_blocks) process(block_base + 64);
  return h;
}

void sw_brightness(Kernel& k, Addr src, Addr dst, int n, int delta) {
  k.call();
  pixel_loop(
      k, src, std::nullopt, dst, n,
      [&] { k.op(4); },  // add, clamp-low, clamp-high, address update
      [delta](int px, int) { return saturate(px + delta); });
}

void sw_blend(Kernel& k, Addr a, Addr b, Addr dst, int n) {
  k.call();
  pixel_loop(
      k, a, b, dst, n, [&] { k.op(4); },
      [](int pa, int pb) { return saturate(pa + pb); });
}

void sw_fade(Kernel& k, Addr a, Addr b, Addr dst, int n, int f) {
  k.call();
  pixel_loop(
      k, a, b, dst, n,
      [&] {
        k.op(3);  // subtract, shift, add
        k.mul();  // (a - b) * f
        k.op(3);  // clamp + address update
      },
      [f](int pa, int pb) { return saturate(((pa - pb) * f) / 256 + pb); });
}

bool has_sw_equivalent(int behavior_id) {
  switch (behavior_id) {
    case hw::kPatternMatcher:
    case hw::kPatternMatcherXl:
    case hw::kJenkinsHash:
    case hw::kSha1:
    case hw::kBrightness:
    case hw::kBlendAdd:
    case hw::kFade:
      return true;
    default:
      return false;
  }
}

}  // namespace rtr::apps
