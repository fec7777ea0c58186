// Hardware/software drivers: the timed CPU-side loops that feed the dynamic
// area, for programmed I/O (both systems) and for scatter-gather DMA with
// the output FIFO (64-bit system).
//
// PIO drivers take the dock's data-register address and work on either
// platform -- that is exactly the paper's section 4.2 experiment of moving
// the 32-bit tasks "without any modifications" to the new system.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "apps/golden.hpp"
#include "bus/types.hpp"
#include "cpu/kernel.hpp"
#include "rtr/platform.hpp"

namespace rtr::apps {

// --- raw transfer loops (tables 2 and 7) --------------------------------------

/// Sequence of `n` writes: each item fetched from memory, stored to the
/// dock. Returns total time.
sim::SimTime pio_write_seq(cpu::Kernel& k, bus::Addr mem, bus::Addr dock,
                           int n);
/// Sequence of `n` reads: each item read from the dock, stored to memory.
sim::SimTime pio_read_seq(cpu::Kernel& k, bus::Addr mem, bus::Addr dock,
                          int n);
/// Interleaved write/read pairs (n of each).
sim::SimTime pio_interleaved_seq(cpu::Kernel& k, bus::Addr mem,
                                 bus::Addr dock, int n);

// --- DMA transfer flows (table 8) -----------------------------------------------
// The DMA flows and drivers need a platform with a DMA engine
// (Platform::has_dma, the 64-bit system).

/// DMA a block of `n` 64-bit items memory -> dock stream register.
sim::SimTime dma_write_seq(Platform& p, bus::Addr mem, int n);
/// DMA-drain `n` 64-bit items dock FIFO -> memory (FIFO pre-filled by the
/// caller).
sim::SimTime dma_read_seq(Platform& p, bus::Addr mem, int n);
/// Block-interleaved write/read through the output FIFO: stream until the
/// FIFO fills, stop, drain by DMA, repeat (paper section 4.2).
sim::SimTime dma_interleaved_seq(Platform& p, bus::Addr src, bus::Addr dst,
                                 int n);

// --- task drivers (hardware versions) --------------------------------------------

/// Pattern matching: stream geometry, bit-packed pattern, 4 pixels per
/// write; read one count per window position, tracking the best on the CPU.
MatchResult hw_pattern_match_pio(cpu::Kernel& k, bus::Addr dock, bus::Addr img,
                                 int w, int h, bus::Addr pat);

/// Jenkins: stream length + key words; read the hash.
std::uint32_t hw_jenkins_pio(cpu::Kernel& k, bus::Addr dock, bus::Addr key,
                             std::uint32_t len);

/// SHA-1: stream length + message words; read the five digest words.
std::array<std::uint32_t, 5> hw_sha1_pio(cpu::Kernel& k, bus::Addr dock,
                                         bus::Addr msg, std::uint32_t len);

/// Brightness via PIO, 4 pixels per transfer.
void hw_brightness_pio(cpu::Kernel& k, bus::Addr dock, bus::Addr src,
                       bus::Addr dst, int n, int delta);
/// Additive blending via PIO: 2+2 pixels per write, packed groups of 4 read
/// back every second write.
void hw_blend_pio(cpu::Kernel& k, bus::Addr dock, bus::Addr a, bus::Addr b,
                  bus::Addr dst, int n);
/// Fade via PIO: control word f, then as blend.
void hw_fade_pio(cpu::Kernel& k, bus::Addr dock, bus::Addr a, bus::Addr b,
                 bus::Addr dst, int n, int f);

// --- 64-bit DMA task drivers (table 12) ---------------------------------------------

/// Timing breakdown of a DMA-driven task.
struct DmaTaskStats {
  sim::SimTime data_preparation;  // CPU packing of the two sources
  sim::SimTime total;             // end-to-end, including preparation
};

/// Brightness with 64-bit DMA: no data preparation needed (one source).
DmaTaskStats hw_brightness_dma(Platform& p, bus::Addr src, bus::Addr dst,
                               int n, int delta);
/// Blend with 64-bit DMA: the CPU first interleaves the two sources into
/// `staging` (charged as data preparation), then DMA streams blocks.
DmaTaskStats hw_blend_dma(Platform& p, bus::Addr a, bus::Addr b,
                          bus::Addr staging, bus::Addr dst, int n);
DmaTaskStats hw_fade_dma(Platform& p, bus::Addr a, bus::Addr b,
                         bus::Addr staging, bus::Addr dst, int n, int f);

/// One buffer of a batched multi-buffer scatter-gather chain: where its
/// (prepared) feed data lives, where its output goes, and how many bytes
/// move each way. Feed beats must fit the output FIFO: the chain alternates
/// feed and drain descriptors, so the FIFO high-water mark is one segment's
/// worth of results.
struct SgSeg {
  bus::Addr src = 0;              // prepared feed source (incrementing)
  std::uint64_t feed_bytes = 0;   // multiple of 8
  bus::Addr dst = 0;              // output destination (incrementing)
  std::uint64_t drain_bytes = 0;  // multiple of 8
};

/// Batched scatter-gather DMA (docs/SERVING.md "Batching"): one descriptor
/// chain of [feed, drain] pairs covering every segment, programmed with a
/// single register sequence and completed by a single interrupt. The
/// per-request costs a one-buffer-per-chain flow pays N times -- the go
/// kick, the completion interrupt, the handler -- are paid once for the
/// whole batch; the resident module streams straight from buffer to buffer.
/// Returns the chain's completion time.
sim::SimTime hw_sg_batch_dma(Platform& p, std::span<const SgSeg> segs);

/// Data preparation for one two-source segment: interleave sources `a` and
/// `b` into [A0..A3 B0..B3] beats at `staging` (the paper's section 4.2
/// preparation cost, charged to the CPU). `n` output pixels -> n/4 beats.
sim::SimTime dma_prepare_interleave(cpu::Kernel& k, bus::Addr a, bus::Addr b,
                                    bus::Addr staging, int n);

/// Overlapped variant: "since the CPU is free during DMA transfers, it can
/// be used for other purposes" (paper section 4.1) -- while the DMA engine
/// streams block k, the CPU prepares block k+1, then sleeps until the
/// completion interrupt. The benefit depends on where the CPU's prep
/// traffic goes: with the D-cache off every prep access contends for the
/// same PLB the DMA occupies, so overlap gains little; with the cache on
/// the prep runs genuinely in parallel (see the extension bench).
/// `staging` must hold 2x the block size (double buffering).
DmaTaskStats hw_blend_dma_overlapped(Platform& p, bus::Addr a, bus::Addr b,
                                     bus::Addr staging, bus::Addr dst, int n);

}  // namespace rtr::apps
