// CRC-32 over configuration words.
//
// The configuration logic accumulates a CRC over every (register, word)
// write and compares it against the value supplied by the bitstream's CRC
// packet; a mismatch aborts configuration. We use the IEEE 802.3
// polynomial (table-driven, reflected).
//
// Every configuration word costs one CRC step in the ICAP model and in
// bitstream::serialize, so the word paths are sliced: slice k of the table
// advances a byte through k further zero bytes, which lets one step fold
// 4 (update_word) or 8 (update_register_write) bytes with independent
// lookups. update_byte is the byte-wise reference both must equal.
//
// Most configuration words are zero (the static rows of full-height
// frames), and a run of zero writes costs one closed-form step: the CRC is
// linear over GF(2), so a zero write to register r maps the state S to
// A(S) ^ A(r), where A advances the state through 8 zero bytes. k such
// writes map S to A^k(S) ^ c_k with c_k = A(r) ^ A^2(r) ^ ... ^ A^k(r).
// update_zero_writes applies A^k as power-of-two jumps from tables that
// advance the state by 2^j writes, each with its jump constant c_(2^j).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace rtr::bitstream {

namespace detail {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the classic byte table; t[k][i] is t[k-1][i] advanced by one
/// zero byte.
constexpr CrcTables make_crc_tables() {
  constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

inline constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace detail

class Crc32 {
 public:
  /// Feed one 32-bit word (little-endian byte order).
  void update_word(std::uint32_t w) {
    const auto& t = detail::kCrcTables;
    const std::uint32_t x = state_ ^ w;
    state_ = t[3][x & 0xFF] ^ t[2][(x >> 8) & 0xFF] ^ t[1][(x >> 16) & 0xFF] ^
             t[0][x >> 24];
  }

  /// Feed a register write: the register address participates in the CRC so
  /// that data words cannot be replayed to a different register undetected.
  /// The address is fed first, then the word, both little-endian.
  void update_register_write(std::uint32_t reg_addr, std::uint32_t word) {
    const auto& t = detail::kCrcTables;
    const std::uint32_t x = state_ ^ reg_addr;
    state_ = t[7][x & 0xFF] ^ t[6][(x >> 8) & 0xFF] ^ t[5][(x >> 16) & 0xFF] ^
             t[4][x >> 24] ^ t[3][word & 0xFF] ^ t[2][(word >> 8) & 0xFF] ^
             t[1][(word >> 16) & 0xFF] ^ t[0][word >> 24];
  }

  /// `k` register writes of a zero word to `reg`, in closed form: the state
  /// after k update_register_write(reg, 0) calls. Out of line, so that its
  /// jump tables are computed in one translation unit (crc.cpp).
  void update_zero_writes(std::uint32_t reg, std::uint64_t k);

  /// update_register_write(reg, w) for every word of `words`, each run of
  /// zero words in one update_zero_writes step.
  void update_register_writes(std::uint32_t reg,
                              std::span<const std::uint32_t> words) {
    const std::size_t n = words.size();
    for (std::size_t i = 0; i < n;) {
      if (words[i] != 0) {
        update_register_write(reg, words[i++]);
        continue;
      }
      std::size_t end = i + 1;
      while (end + 4 <= n && (words[end] | words[end + 1] | words[end + 2] |
                              words[end + 3]) == 0) {
        end += 4;
      }
      while (end < n && words[end] == 0) ++end;
      update_zero_writes(reg, end - i);
      i = end;
    }
  }

  void update_byte(std::uint8_t b) {
    state_ = detail::kCrcTables[0][static_cast<std::uint8_t>(state_ ^ b)] ^
             (state_ >> 8);
  }

  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace rtr::bitstream
