// Host-side staging of workload data in simulated memory (zero simulated
// time; the modelled experiments start with their inputs already resident,
// as the paper's do).
#pragma once

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

inline void store_words(bus::Bus& b, bus::Addr base,
                        std::span<const std::uint32_t> words) {
  // Words are staged in the simulator's little-endian memory convention;
  // serialise explicitly so the block path is host-endian independent.
  std::vector<std::uint8_t> bytes(words.size() * 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    bytes[i * 4 + 0] = static_cast<std::uint8_t>(words[i]);
    bytes[i * 4 + 1] = static_cast<std::uint8_t>(words[i] >> 8);
    bytes[i * 4 + 2] = static_cast<std::uint8_t>(words[i] >> 16);
    bytes[i * 4 + 3] = static_cast<std::uint8_t>(words[i] >> 24);
  }
  b.poke_block(base, bytes);
}

}  // namespace rtr::apps
