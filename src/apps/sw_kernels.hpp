// Timed software baselines ("software-only implementation running on the
// embedded CPU"). Each kernel executes the real computation against data in
// simulated memory, charging PPC405 instruction and memory-system costs
// through cpu::Kernel. Results are functionally exact, so every kernel is
// verified against the golden implementations.
//
// Coding model: scalar locals live in registers (free); arrays -- inputs,
// outputs, lookup tables, the SHA-1 W[] schedule -- live in memory and pay
// for every access. This mirrors compiled C on the 405. Every fixed-body
// loop runs on cpu::run_periodic: iterations 0 and 1 go through the CPU and
// bus models, and the rest are applied in closed form where the runner
// allows it, with the same timing, statistics and memory.
#pragma once

#include <array>
#include <cstdint>

#include "apps/golden.hpp"
#include "bus/types.hpp"
#include "cpu/kernel.hpp"

namespace rtr::apps {

/// Naive C pattern matching over a byte-per-pixel bilevel image at `img`
/// (w*h bytes, row-major). The 64-byte pattern at `pat` is preloaded and
/// bit-packed into two registers once. Returns the best window position.
MatchResult sw_pattern_match(cpu::Kernel& k, bus::Addr img, int w, int h,
                             bus::Addr pat);

/// Jenkins lookup2 over `len` key bytes at `key` (byte loads and shifts, as
/// in the public-domain 32-bit-optimised source).
std::uint32_t sw_jenkins(cpu::Kernel& k, bus::Addr key, std::uint32_t len);

/// SHA-1 per the RFC 3174 reference code structure: the 80-word message
/// schedule W[] lives in memory at `scratch`, followed by the padded tail
/// block(s). A tail of 56 or more bytes pads into a second block, so the
/// scratch needs 448 bytes (320 for W[], 128 for two blocks).
std::array<std::uint32_t, 5> sw_sha1(cpu::Kernel& k, bus::Addr msg,
                                     std::uint32_t len, bus::Addr scratch);

/// out[i] = saturate(src[i] + delta) over n pixels.
void sw_brightness(cpu::Kernel& k, bus::Addr src, bus::Addr dst, int n,
                   int delta);

/// dst[i] = saturate(a[i] + b[i]).
void sw_blend(cpu::Kernel& k, bus::Addr a, bus::Addr b, bus::Addr dst, int n);

/// dst[i] = ((a[i] - b[i]) * f) / 256 + b[i], f in [0, 256].
void sw_fade(cpu::Kernel& k, bus::Addr a, bus::Addr b, bus::Addr dst, int n,
             int f);

/// True when a hardware behaviour (hw::BehaviorId) has a software kernel the
/// serving layer can degrade to. Test circuits (loopback, sink) do not; both
/// pattern matcher variants share sw_pattern_match (the software loop has no
/// image-capacity limit).
bool has_sw_equivalent(int behavior_id);

}  // namespace rtr::apps
