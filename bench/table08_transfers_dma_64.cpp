// Table 8: 64-bit DMA-controlled transfers between dynamic region and
// external memory (section 4.2). "Each transfer involves a 64-bit value,
// using the data path to the fullest. The interleaved write/read operations
// are block-interleaved ... the current output FIFO stores up to 2047
// 64-bit values."
#include <cstdio>

#include "apps/drivers.hpp"
#include "bench/common.hpp"
#include "report/table.hpp"

using namespace rtr;

int main() {
  Platform64 p;
  const auto data = bench::random_bytes(8 * 16384);
  apps::store_bytes(p.cpu().plb(), bench::kA64, data);

  report::Table t{
      "Table 8: 64-bit DMA-controlled transfers (64-bit system, output FIFO "
      "depth 2047)",
      {"Operation", "Transfers (64-bit)", "Total (us)",
       "Avg per transfer (us)"}};

  for (int n : {2047, 16384}) {
    // Write: memory -> dynamic region (sink module, no FIFO involvement).
    bench::must_load(p, hw::kSink);
    const auto w = apps::dma_write_seq(p, bench::kA64, n);
    t.row({"write (mem -> dyn region)", report::fmt_int(n), report::fmt_us(w),
           report::fmt_us(sim::SimTime{w.ps() / n})});

    // Read: dynamic region -> memory. The FIFO is refilled block by block
    // (capped by its depth); only the drain is the measured read.
    bench::must_load(p, hw::kLoopback);
    sim::SimTime read_total = sim::SimTime::zero();
    int done = 0;
    while (done < n) {
      const int chunk = std::min(p.plb_dock().fifo_depth(), n - done);
      apps::dma_write_seq(p, bench::kA64 + static_cast<bus::Addr>(done) * 8,
                          chunk);  // refill (not measured)
      read_total += apps::dma_read_seq(
          p, bench::kOut64 + static_cast<bus::Addr>(done) * 8, chunk);
      done += chunk;
    }
    t.row({"read (dyn region -> mem)", report::fmt_int(n),
           report::fmt_us(read_total),
           report::fmt_us(sim::SimTime{read_total.ps() / n})});

    // Interleaved: stream until the FIFO fills, stop, drain by DMA, repeat.
    const auto i = apps::dma_interleaved_seq(p, bench::kA64, bench::kOut64, n);
    t.row({"interleaved write/read (block)", report::fmt_int(n),
           report::fmt_us(i), report::fmt_us(sim::SimTime{i.ps() / n})});
  }
  t.print();
  std::printf("\nCompare per-transfer times with table 7 (CPU-controlled "
              "32-bit): DMA moves 8 bytes per transfer in pipelined bursts "
              "while the CPU is free.\n");
  return 0;
}
