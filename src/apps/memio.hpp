// Host-side staging of workload data in simulated memory (zero simulated
// time; the modelled experiments start with their inputs already resident,
// as the paper's do).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "bus/bus.hpp"

namespace rtr::apps {

inline void store_bytes(bus::Bus& b, bus::Addr base,
                        std::span<const std::uint8_t> data) {
  b.poke_block(base, data);
}

inline std::vector<std::uint8_t> fetch_bytes(bus::Bus& b, bus::Addr base,
                                             std::size_t n) {
  std::vector<std::uint8_t> out(n);
  b.peek_block(base, out);
  return out;
}

/// The `n` bytes at `base`.
constexpr bus::AddressRange bytes_at(bus::Addr base, std::int64_t n) {
  return {base, static_cast<std::uint64_t>(n)};
}

/// Bits [first, first + count) of the thresholded 8x8 pattern at `base`,
/// one byte per pixel: bit i is set when byte i is non-zero, as the
/// pattern-preparation loops of the matcher's drivers pack it.
inline std::uint64_t fetch_pattern_bits(bus::Bus& b, bus::Addr base,
                                        std::int64_t first,
                                        std::int64_t count) {
  std::array<std::uint8_t, 64> px{};
  const auto n = static_cast<std::size_t>(count);
  b.peek_block(base + static_cast<bus::Addr>(first), std::span{px}.first(n));
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < n; ++j) {
    bits |= std::uint64_t{px[j] != 0} << (static_cast<std::size_t>(first) + j);
  }
  return bits;
}

/// Little-endian halfword and word j of a memory block, as lhz and lw
/// read them, and the word sw writes.
inline std::uint32_t le16(std::span<const std::uint8_t> b, std::int64_t j) {
  const std::uint8_t* p = b.data() + 2 * j;
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8;
}
inline std::uint32_t le32(std::span<const std::uint8_t> b, std::int64_t j) {
  return le16(b, 2 * j) | le16(b, 2 * j + 1) << 16;
}
inline void put_le32(std::span<std::uint8_t> b, std::int64_t j,
                     std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    b[static_cast<std::size_t>(4 * j + k)] =
        static_cast<std::uint8_t>(v >> (8 * k));
  }
}

/// Blocks of words in the simulator's little-endian memory convention:
/// store_words writes them as sw does, fetch_words reads them as lw does
/// (into `words`).
/// One block copy where that is the host's byte order, byte by byte
/// elsewhere.
inline void store_words(bus::Bus& b, bus::Addr base,
                        std::span<const std::uint32_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    b.poke_block(base, {reinterpret_cast<const std::uint8_t*>(words.data()),
                        words.size() * 4});
  } else {
    std::vector<std::uint8_t> bytes(words.size() * 4);
    for (std::size_t i = 0; i < words.size(); ++i) {
      put_le32(bytes, static_cast<std::int64_t>(i), words[i]);
    }
    b.poke_block(base, bytes);
  }
}

inline void fetch_words(bus::Bus& b, bus::Addr base,
                        std::span<std::uint32_t> words) {
  const std::size_t n = words.size();
  if constexpr (std::endian::native == std::endian::little) {
    b.peek_block(base, {reinterpret_cast<std::uint8_t*>(words.data()), n * 4});
  } else {
    const std::vector<std::uint8_t> bytes = fetch_bytes(b, base, n * 4);
    for (std::size_t i = 0; i < n; ++i) {
      words[i] = le32(bytes, static_cast<std::int64_t>(i));
    }
  }
}

}  // namespace rtr::apps
