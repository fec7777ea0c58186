#include "bitstream/crc.hpp"

namespace rtr::bitstream {

namespace {

/// A linear map of the CRC state, byte-sliced: the image of x is the xor of
/// m[b][byte b of x]. A plain array, because compile-time evaluation
/// indexes it about three times faster than nested std::arrays.
struct CrcJump {
  std::uint32_t m[4][256];
};

constexpr std::uint32_t jump(const CrcJump& j, std::uint32_t x) {
  return j.m[0][x & 0xFF] ^ j.m[1][(x >> 8) & 0xFF] ^
         j.m[2][(x >> 16) & 0xFF] ^ j.m[3][x >> 24];
}

/// Jumps of 1, 2, 4, ... 128 register writes.
constexpr int kJumpLevels = 8;
using CrcJumps = std::array<CrcJump, kJumpLevels>;

/// j[0] is A, the zero write (slices 7..4, the address half of a sliced
/// register write); j[k] is j[k-1] applied twice.
constexpr CrcJumps make_crc_jumps() {
  CrcJumps j{};
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t i = 0; i < 256; ++i) {
      j[0].m[b][i] = detail::kCrcTables[7 - b][i];
    }
  }
  for (std::size_t k = 1; k < j.size(); ++k) {
    for (std::size_t b = 0; b < 4; ++b) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        j[k].m[b][i] = jump(j[k - 1], jump(j[k - 1], i << (8 * b)));
      }
    }
  }
  return j;
}

constexpr CrcJumps kCrcJumps = make_crc_jumps();

}  // namespace

void Crc32::update_zero_writes(std::uint32_t reg, std::uint64_t k) {
  // The constant of jump j, c_(2^j), is doubled alongside the jumps:
  // c_(2m) = A^m(c_m) ^ c_m.
  constexpr int kTop = kJumpLevels - 1;
  std::uint32_t c = jump(kCrcJumps[0], reg);  // c_1
  for (int j = 0; j < kTop && (k >> j) != 0; ++j) {
    if ((k >> j) & 1) state_ = jump(kCrcJumps[j], state_) ^ c;
    c ^= jump(kCrcJumps[j], c);
  }
  // Runs longer than the largest jump take it repeatedly.
  for (std::uint64_t q = k >> kTop; q != 0; --q) {
    state_ = jump(kCrcJumps[kTop], state_) ^ c;
  }
}

}  // namespace rtr::bitstream
