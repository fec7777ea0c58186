// The three test vectors of RFC 3174 (section 7.3), shared by the checks
// of the golden SHA-1, the software kernel and the hardware unit, so that
// each of the three programs meets the standard on its own.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace rtr::test {

struct Sha1Vector {
  std::string_view text;  // the message is `text` repeated `repeat` times
  std::size_t repeat;
  std::array<std::uint32_t, 5> digest;

  [[nodiscard]] std::vector<std::uint8_t> message() const {
    std::vector<std::uint8_t> msg;
    msg.reserve(text.size() * repeat);
    for (std::size_t i = 0; i < repeat; ++i) {
      msg.insert(msg.end(), text.begin(), text.end());
    }
    return msg;
  }
};

inline constexpr std::array<Sha1Vector, 3> kRfc3174Vectors = {{
    {"abc",
     1,
     {0xA9993E36u, 0x4706816Au, 0xBA3E2571u, 0x7850C26Cu, 0x9CD0D89Du}},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     1,
     {0x84983E44u, 0x1C3BD26Eu, 0xBAAE4AA1u, 0xF95129E5u, 0xE54670F1u}},
    // One million 'a's.
    {"a",
     1'000'000,
     {0x34AA973Cu, 0xD4C4DAA4u, 0xF61EEB2Bu, 0xDBAD2731u, 0x6534016Fu}},
}};

}  // namespace rtr::test
