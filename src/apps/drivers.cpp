#include "apps/drivers.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "apps/memio.hpp"
#include "cpu/periodic_loop.hpp"
#include "dma/dma.hpp"
#include "sim/check.hpp"

namespace rtr::apps {

using bus::Addr;
using cpu::Kernel;
using sim::SimTime;

namespace {
/// Control register: same offset relative to the data register on both
/// docks (see dock::OpbDock::kControlReg / dock::PlbDock::kControl).
constexpr Addr ctrl_of(Addr dock_data) { return (dock_data & ~0x3Full) + 0x20; }

constexpr Addr word_at(Addr base, std::int64_t i) {
  return base + static_cast<Addr>(i) * 4;
}
constexpr bus::AddressRange words_at(Addr base, std::int64_t n) {
  return bytes_at(base, n * 4);
}

/// Loop iterations a bulk side stages at once. Its blocks of strobes are
/// cut into chunks of this many iterations, which equal the whole block
/// strobe for strobe, so that fixed buffers hold every chunk's words.
constexpr std::int64_t kChunk = 512;
using ChunkWords = std::array<std::uint32_t, kChunk>;

/// f(at, n) for each chunk [at, at + n) of iterations [first, first + count).
template <typename F>
void by_chunks(std::int64_t first, std::int64_t count, F&& f) {
  for (std::int64_t done = 0; done < count; done += kChunk) {
    f(first + done, std::min(kChunk, count - done));
  }
}

/// The first `n` words of a chunk buffer.
template <std::size_t N>
std::span<std::uint32_t> first_words(std::array<std::uint32_t, N>& buf,
                                     std::int64_t n) {
  return std::span{buf}.first(static_cast<std::size_t>(n));
}

/// The bulk side of a PIO loop (cpu::run_periodic): memory moves through
/// the backdoor in blocks, and the data words go to the dock's endpoint
/// slave in blocks of strobes (bus::Slave::pio_block), so the module and
/// the dock's counters see every word while no bus does.
class BulkPort {
 public:
  BulkPort(Kernel& k, Addr dock)
      : mem_(&k.cpu().plb()), dock_addr_(dock), dock_(&mem_->endpoint(dock)) {}

  /// words.size() words from `base`, in one block.
  void peek(Addr base, std::span<std::uint32_t> words) const {
    fetch_words(*mem_, base, words);
  }
  void poke(Addr base, std::span<const std::uint32_t> words) {
    store_words(*mem_, base, words);
  }

  /// One block of data-register strobes: the writes of `in`, with a read
  /// into each word of `out` after every in.size() / out.size() of them.
  void strobe(std::span<const std::uint32_t> in, std::span<std::uint32_t> out) {
    dock_->pio_block(dock_addr_, in, out);
  }

 private:
  bus::Bus* mem_;
  Addr dock_addr_;
  bus::Slave* dock_;
};

/// for (i = 0; i < n; ++i) DOCK = src[i];
void pio_feed(Kernel& k, Addr dock, Addr src, std::int64_t n) {
  cpu::run_periodic(
      k, {.iterations = n, .reads = {words_at(src, n)}},
      [&](std::int64_t i) {
        const std::uint32_t v = k.lw(word_at(src, i));
        k.sw(dock, v);
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        BulkPort port(k, dock);
        ChunkWords in;
        by_chunks(first, count, [&](std::int64_t at, std::int64_t n) {
          port.peek(word_at(src, at), first_words(in, n));
          port.strobe(first_words(in, n), {});
        });
      });
}

/// for (i = 0; i < n; ++i) { DOCK = src[i]; dst[i] = DOCK; }
void pio_exchange(Kernel& k, Addr dock, Addr src, Addr dst, std::int64_t n) {
  cpu::run_periodic(
      k,
      {.iterations = n,
       .reads = {words_at(src, n)},
       .writes = words_at(dst, n)},
      [&](std::int64_t i) {
        const std::uint32_t v = k.lw(word_at(src, i));
        k.sw(dock, v);
        const std::uint32_t r = k.lw(dock);
        k.sw(word_at(dst, i), r);
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        BulkPort port(k, dock);
        ChunkWords in, out;
        by_chunks(first, count, [&](std::int64_t at, std::int64_t n) {
          port.peek(word_at(src, at), first_words(in, n));
          port.strobe(first_words(in, n), first_words(out, n));
          port.poke(word_at(dst, at), first_words(out, n));
        });
      });
}
}  // namespace

// --- raw transfer loops -----------------------------------------------------------

SimTime pio_write_seq(Kernel& k, Addr mem, Addr dock, int n) {
  const SimTime t0 = k.now();
  k.call();
  pio_feed(k, dock, mem, n);
  return k.now() - t0;
}

SimTime pio_read_seq(Kernel& k, Addr mem, Addr dock, int n) {
  const SimTime t0 = k.now();
  k.call();
  cpu::run_periodic(
      k, {.iterations = n, .writes = words_at(mem, n)},
      [&](std::int64_t i) {
        const std::uint32_t v = k.lw(dock);
        k.sw(word_at(mem, i), v);
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        BulkPort port(k, dock);
        ChunkWords out;
        by_chunks(first, count, [&](std::int64_t at, std::int64_t n) {
          port.strobe({}, first_words(out, n));
          port.poke(word_at(mem, at), first_words(out, n));
        });
      });
  return k.now() - t0;
}

SimTime pio_interleaved_seq(Kernel& k, Addr mem, Addr dock, int n) {
  const SimTime t0 = k.now();
  k.call();
  pio_exchange(k, dock, mem, word_at(mem, n), n);
  return k.now() - t0;
}

// --- DMA flows ------------------------------------------------------------------------

namespace {
/// CPU-side cost of building and kicking one descriptor chain, then the
/// chain itself; the CPU sleeps until the dock's completion interrupt.
SimTime run_dma_chain(Platform& p, std::span<const dma::DmaDescriptor> chain) {
  cpu::Kernel& k = p.kernel();
  // Program the dock's scatter-gather registers: src/dst/len/flags per
  // descriptor plus the go bit -- real (uncached) bus writes.
  const Addr dma_regs = p.spec().dock_range.base + dock::PlbDock::kDmaRegs;
  for (std::size_t d = 0; d < chain.size(); ++d) {
    k.op(8);  // marshal one descriptor
    for (int r = 0; r < 5; ++r) {
      k.sw(dma_regs + static_cast<Addr>(r) * 4, 0);
    }
  }
  k.sw(dma_regs + 0x1C, 1);  // go

  const SimTime done = p.dma().run_chain(chain, k.now());
  p.plb_dock().signal_done(done);
  k.cpu().take_interrupt(p.intc().assertion_time(p.spec().dock_irq));
  // Interrupt handler: identify the source and acknowledge it at the OPB
  // interrupt controller (through the bridge), then return.
  (void)k.lw(p.spec().intc.base + cpu::InterruptController::kStatusReg);
  k.sw(p.spec().intc.base + cpu::InterruptController::kAckReg,
       1u << p.spec().dock_irq);
  k.op(20);  // handler prologue/epilogue beyond the entry cost
  p.intc().clear(p.spec().dock_irq);
  return done;
}
}  // namespace

SimTime dma_write_seq(Platform& p, Addr mem, int n) {
  const SimTime t0 = p.kernel().now();
  const dma::DmaDescriptor feed{mem, p.dock_stream(),
                                static_cast<std::uint64_t>(n) * 8, true,
                                false};
  run_dma_chain(p, {&feed, 1});
  return p.kernel().now() - t0;
}

SimTime dma_read_seq(Platform& p, Addr mem, int n) {
  const SimTime t0 = p.kernel().now();
  const dma::DmaDescriptor drain{p.dock_fifo(), mem,
                                 static_cast<std::uint64_t>(n) * 8, false,
                                 true};
  run_dma_chain(p, {&drain, 1});
  return p.kernel().now() - t0;
}

SimTime dma_interleaved_seq(Platform& p, Addr src, Addr dst, int n) {
  const SimTime t0 = p.kernel().now();
  const int depth = p.plb_dock().fifo_depth();
  int done = 0;
  while (done < n) {
    const int chunk = std::min(depth, n - done);
    const dma::DmaDescriptor chain[2] = {
        {src + static_cast<Addr>(done) * 8, p.dock_stream(),
         static_cast<std::uint64_t>(chunk) * 8, true, false},
        {p.dock_fifo(), dst + static_cast<Addr>(done) * 8,
         static_cast<std::uint64_t>(chunk) * 8, false, true},
    };
    run_dma_chain(p, chain);
    done += chunk;
  }
  return p.kernel().now() - t0;
}

// --- task drivers -------------------------------------------------------------------------

MatchResult hw_pattern_match_pio(Kernel& k, Addr dock, Addr img, int w, int h,
                                 Addr pat) {
  k.call();
  k.sw(ctrl_of(dock), 0);  // re-arm the matcher
  // Geometry word.
  k.op(3);
  k.sw(dock, (static_cast<std::uint32_t>(w) << 16) |
                 static_cast<std::uint32_t>(h));
  // Pattern: loaded and bit-packed once by the CPU (64 bytes -> 2 words).
  std::uint64_t pbits = 0;
  cpu::run_periodic(
      k, {.iterations = 64, .reads = {bytes_at(pat, 64)}},
      [&](std::int64_t i) {
        const std::uint8_t b = k.lbz(pat + static_cast<Addr>(i));
        k.op(3);
        pbits |= std::uint64_t{b != 0} << i;
      },
      [&](std::int64_t first, std::int64_t count) {
        pbits |= fetch_pattern_bits(k.cpu().plb(), pat, first, count);
      });
  k.sw(dock, static_cast<std::uint32_t>(pbits));
  k.sw(dock, static_cast<std::uint32_t>(pbits >> 32));
  // Image: one word = 4 pixel bytes, straight from memory.
  pio_feed(k, dock, img, w * h / 4);
  // Results: one count per window position; the CPU tracks the best.
  MatchResult best;
  const int cols = w - 7;
  const auto track = [&](std::int64_t i, int count) {
    if (count > best.best_count) {
      best.best_count = count;
      best.best_row = static_cast<int>(i / cols);
      best.best_col = static_cast<int>(i % cols);
    }
  };
  cpu::run_periodic(
      k, {.iterations = (h - 7) * cols},
      [&](std::int64_t i) {
        const auto count = static_cast<int>(k.lw(dock));
        k.op(3);
        k.branch();
        track(i, count);
      },
      [&](std::int64_t first, std::int64_t count) {
        BulkPort port(k, dock);
        ChunkWords counts;
        by_chunks(first, count, [&](std::int64_t at, std::int64_t n) {
          port.strobe({}, first_words(counts, n));
          for (std::int64_t j = 0; j < n; ++j) {
            track(at + j,
                  static_cast<int>(counts[static_cast<std::size_t>(j)]));
          }
        });
      });
  return best;
}

std::uint32_t hw_jenkins_pio(Kernel& k, Addr dock, Addr key,
                             std::uint32_t len) {
  k.call();
  k.sw(ctrl_of(dock), 0);  // re-arm for a new key
  k.sw(dock, len);
  pio_feed(k, dock, key, (len + 3) / 4);
  return k.lw(dock);
}

std::array<std::uint32_t, 5> hw_sha1_pio(Kernel& k, Addr dock, Addr msg,
                                         std::uint32_t len) {
  k.call();
  k.sw(ctrl_of(dock), 0);  // re-arm for a new key
  k.sw(dock, len);
  pio_feed(k, dock, msg, (len + 3) / 4);
  std::array<std::uint32_t, 5> digest;
  for (auto& d : digest) d = k.lw(dock);
  return digest;
}

void hw_brightness_pio(Kernel& k, Addr dock, Addr src, Addr dst, int n,
                       int delta) {
  RTR_CHECK(n % 4 == 0, "pixel count must be a multiple of 4");
  k.call();
  k.sw(ctrl_of(dock), static_cast<std::uint16_t>(delta));
  pio_exchange(k, dock, src, dst, n / 4);
}

namespace {
void two_source_pio(Kernel& k, Addr dock, Addr a, Addr b, Addr dst, int n) {
  RTR_CHECK(n % 4 == 0, "pixel count must be a multiple of 4");
  cpu::run_periodic(
      k,
      {.iterations = n / 4,
       .reads = {bytes_at(a, n), bytes_at(b, n)},
       .writes = bytes_at(dst, n)},
      [&](std::int64_t i) {
        // Two writes of [A0 A1 B0 B1]: the CPU combines the two sources
        // ("this overhead is included in the measured times").
        const auto px = static_cast<Addr>(i) * 4;  // the group's first pixel
        for (int half = 0; half < 2; ++half) {
          const Addr off = px + static_cast<Addr>(2 * half);
          const std::uint32_t pa = k.lhz(a + off);
          const std::uint32_t pb = k.lhz(b + off);
          k.op(3);  // shift + or + address update
          k.sw(dock, pa | (pb << 16));
        }
        // One packed read of 4 result pixels.
        const std::uint32_t r = k.lw(dock);
        k.sw(word_at(dst, i), r);
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        BulkPort port(k, dock);
        ChunkWords pa, pb, out;
        std::array<std::uint32_t, 2 * kChunk> in;
        by_chunks(first, count, [&](std::int64_t at, std::int64_t n) {
          port.peek(word_at(a, at), first_words(pa, n));
          port.peek(word_at(b, at), first_words(pb, n));
          // Each group's halves [A0 A1 B0 B1] and [A2 A3 B2 B3], then a
          // read.
          for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
            in[2 * j] = (pa[j] & 0xFFFFu) | pb[j] << 16;
            in[2 * j + 1] = pa[j] >> 16 | (pb[j] & 0xFFFF0000u);
          }
          port.strobe(first_words(in, 2 * n), first_words(out, n));
          port.poke(word_at(dst, at), first_words(out, n));
        });
      });
}
}  // namespace

void hw_blend_pio(Kernel& k, Addr dock, Addr a, Addr b, Addr dst, int n) {
  k.call();
  k.sw(ctrl_of(dock), 0);  // reset the output packing phase
  two_source_pio(k, dock, a, b, dst, n);
}

void hw_fade_pio(Kernel& k, Addr dock, Addr a, Addr b, Addr dst, int n,
                 int f) {
  k.call();
  k.sw(ctrl_of(dock), static_cast<std::uint32_t>(f));
  two_source_pio(k, dock, a, b, dst, n);
}

// --- 64-bit DMA task drivers -----------------------------------------------------------------

DmaTaskStats hw_brightness_dma(Platform& p, Addr src, Addr dst, int n,
                               int delta) {
  RTR_CHECK(n % 8 == 0, "pixel count must be a multiple of 8");
  Kernel& k = p.kernel();
  const SimTime t0 = k.now();
  k.call();
  k.sw(ctrl_of(p.dock_data()), static_cast<std::uint16_t>(delta));

  // "The 64-bit data transfers could be employed without additional work,
  // since only one image is involved": blocks straight from the source.
  const int beats = n / 8;
  const int depth = p.plb_dock().fifo_depth();
  int done = 0;
  while (done < beats) {
    const int chunk = std::min(depth, beats - done);
    const dma::DmaDescriptor chain[2] = {
        {src + static_cast<Addr>(done) * 8, p.dock_stream(),
         static_cast<std::uint64_t>(chunk) * 8, true, false},
        {p.dock_fifo(), dst + static_cast<Addr>(done) * 8,
         static_cast<std::uint64_t>(chunk) * 8, false, true},
    };
    run_dma_chain(p, chain);
    done += chunk;
  }
  return {SimTime::zero(), k.now() - t0};
}

SimTime dma_prepare_interleave(Kernel& k, Addr a, Addr b, Addr staging,
                               int n) {
  // Data preparation: interleave the sources into DMA-able beats of
  // [A0..A3 B0..B3] -- "directly attributable to the constraints of the
  // DMA transfer mode".
  const SimTime t0 = k.now();
  const int beats = n / 4;  // one beat per 4 output pixels
  cpu::run_periodic(
      k,
      {.iterations = beats,
       .reads = {words_at(a, beats), words_at(b, beats)},
       .writes = words_at(staging, 2 * beats)},
      [&](std::int64_t i) {
        const std::uint32_t va = k.lw(word_at(a, i));
        const std::uint32_t vb = k.lw(word_at(b, i));
        k.sw(word_at(staging, 2 * i), va);
        k.sw(word_at(staging, 2 * i + 1), vb);
        k.op(2);
        k.branch();
      },
      [&](std::int64_t first, std::int64_t count) {
        bus::Bus& mem = k.cpu().plb();
        const auto pa = fetch_bytes(mem, word_at(a, first),
                                    static_cast<std::size_t>(count) * 4);
        const auto pb = fetch_bytes(mem, word_at(b, first),
                                    static_cast<std::size_t>(count) * 4);
        std::vector<std::uint8_t> out(pa.size() * 2);
        for (std::int64_t j = 0; j < count; ++j) {
          put_le32(out, 2 * j, le32(pa, j));
          put_le32(out, 2 * j + 1, le32(pb, j));
        }
        store_bytes(mem, word_at(staging, 2 * first), out);
      });
  return k.now() - t0;
}

SimTime hw_sg_batch_dma(Platform& p, std::span<const SgSeg> segs) {
  std::vector<dma::DmaDescriptor> chain;
  chain.reserve(segs.size() * 2);
  for (const SgSeg& s : segs) {
    RTR_CHECK(s.drain_bytes / 8 <=
                  static_cast<std::uint64_t>(p.plb_dock().fifo_depth()),
              "batched segment must fit the output FIFO");
    chain.push_back({s.src, p.dock_stream(), s.feed_bytes, true,
                     false});
    chain.push_back({p.dock_fifo(), s.dst, s.drain_bytes, false,
                     true});
  }
  return run_dma_chain(p, chain);
}

namespace {
DmaTaskStats two_source_dma(Platform& p, Addr a, Addr b, Addr staging,
                            Addr dst, int n) {
  RTR_CHECK(n % 8 == 0, "pixel count must be a multiple of 8");
  Kernel& k = p.kernel();
  const SimTime t0 = k.now();
  const int beats = n / 4;  // one beat per 4 output pixels
  const SimTime prep = dma_prepare_interleave(k, a, b, staging, n);

  // Stream blocks: 2 beats in -> 1 FIFO entry; a feed chunk of 2*depth
  // beats fills the FIFO exactly.
  const int depth = p.plb_dock().fifo_depth();
  int done = 0;
  while (done < beats) {
    int chunk = std::min(2 * (depth & ~1), beats - done);
    if (chunk > 1) chunk &= ~1;  // keep the pair phase aligned
    const dma::DmaDescriptor chain[2] = {
        {staging + static_cast<Addr>(done) * 8, p.dock_stream(),
         static_cast<std::uint64_t>(chunk) * 8, true, false},
        {p.dock_fifo(), dst + static_cast<Addr>(done) * 4,
         static_cast<std::uint64_t>(chunk) * 4, false, true},
    };
    run_dma_chain(p, chain);
    done += chunk;
  }
  return {prep, k.now() - t0};
}
}  // namespace

DmaTaskStats hw_blend_dma(Platform& p, Addr a, Addr b, Addr staging,
                          Addr dst, int n) {
  p.kernel().call();
  p.kernel().sw(ctrl_of(p.dock_data()), 0);
  return two_source_dma(p, a, b, staging, dst, n);
}

DmaTaskStats hw_fade_dma(Platform& p, Addr a, Addr b, Addr staging,
                         Addr dst, int n, int f) {
  Kernel& k = p.kernel();
  k.call();
  k.sw(ctrl_of(p.dock_data()), static_cast<std::uint32_t>(f));
  return two_source_dma(p, a, b, staging, dst, n);
}

DmaTaskStats hw_blend_dma_overlapped(Platform& p, Addr a, Addr b,
                                     Addr staging, Addr dst, int n) {
  RTR_CHECK(n % 8 == 0, "pixel count must be a multiple of 8");
  Kernel& k = p.kernel();
  const SimTime t0 = k.now();
  k.call();
  k.sw(ctrl_of(p.dock_data()), 0);

  const int beats = n / 4;  // one beat per 4 output pixels
  const int depth = p.plb_dock().fifo_depth();
  const int block = std::min(2 * (depth & ~1), beats);
  const Addr dma_regs = p.spec().dock_range.base + dock::PlbDock::kDmaRegs;

  // Prepare one block of [A0..A3 B0..B3] beats into half-buffer `half`.
  auto prep = [&](int first_beat, int count, int half) {
    return dma_prepare_interleave(
        k, word_at(a, first_beat), word_at(b, first_beat),
        staging + static_cast<Addr>(half) * static_cast<Addr>(block) * 8,
        4 * count);
  };

  SimTime prep_total = prep(0, std::min(block, beats), 0);
  int done = 0;
  int half = 0;
  while (done < beats) {
    const int chunk = std::min(block, beats - done);
    // The DMA reads staging from memory: write back any cached prep data.
    k.cpu().flush_dcache_range(
        staging + static_cast<Addr>(half) * static_cast<Addr>(block) * 8,
        static_cast<std::uint64_t>(chunk) * 8);
    // Kick the DMA chain for the prepared block...
    k.op(8);
    for (int r = 0; r < 10; ++r) k.sw(dma_regs + (r % 8) * 4, 0);
    const dma::DmaDescriptor chain[2] = {
        {staging + static_cast<Addr>(half) * static_cast<Addr>(block) * 8,
         p.dock_stream(), static_cast<std::uint64_t>(chunk) * 8,
         true, false},
        {p.dock_fifo(), dst + static_cast<Addr>(done) * 4,
         static_cast<std::uint64_t>(chunk) * 4, false, true},
    };
    const SimTime dma_done = p.dma().run_chain(chain, k.now());
    p.plb_dock().signal_done(dma_done);

    // ...and prepare the next block while it runs.
    const int next = done + chunk;
    if (next < beats) {
      prep_total += prep(next, std::min(block, beats - next), 1 - half);
    }
    k.cpu().take_interrupt(p.intc().assertion_time(p.spec().dock_irq));
    (void)k.lw(p.spec().intc.base +
               cpu::InterruptController::kStatusReg);
    k.sw(p.spec().intc.base + cpu::InterruptController::kAckReg,
         1u << p.spec().dock_irq);
    p.intc().clear(p.spec().dock_irq);
    done = next;
    half = 1 - half;
  }
  return {prep_total, k.now() - t0};
}

}  // namespace rtr::apps
