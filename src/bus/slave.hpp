// Bus slave interface.
//
// Slaves are functional models with timing: an access takes a start time
// (the bus hands over the data phase) and returns an absolute completion
// time, so composed paths (PLB -> bridge -> OPB -> SRAM) accumulate each
// segment's clock alignment and wait states naturally.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "bus/types.hpp"
#include "sim/check.hpp"
#include "sim/time.hpp"

namespace rtr::bus {

class Bus;

struct SlaveResult {
  std::uint64_t data = 0;
  sim::SimTime done;
};

class Slave {
 public:
  virtual ~Slave() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Single-beat read of `bytes` (1/2/4 on OPB, up to 8 on PLB). `addr` is
  /// the full bus address (slaves receive absolute addresses and subtract
  /// their own base).
  virtual SlaveResult read(Addr addr, int bytes, sim::SimTime start) = 0;

  /// Single-beat write; returns completion time.
  virtual sim::SimTime write(Addr addr, std::uint64_t data, int bytes,
                             sim::SimTime start) = 0;

  /// Burst read of 64-bit beats (PLB line transfers and DMA). The default
  /// implementation degenerates to repeated single beats; burst-capable
  /// slaves (DDR, dock FIFO) override with pipelined timing. `increment`
  /// distinguishes memory-style targets from fixed-register streams (dock
  /// stream/FIFO, the HWICAP data window).
  virtual SlaveResult burst_read(Addr addr, std::span<std::uint64_t> out,
                                 sim::SimTime start, bool increment);

  /// Burst write of 64-bit beats; returns completion time.
  virtual sim::SimTime burst_write(Addr addr,
                                   std::span<const std::uint64_t> data,
                                   sim::SimTime start, bool increment);

  /// Functional backdoor access with no timing and no side effects, used by
  /// the CPU's cache model for hits (the data would be in the cache array)
  /// and by workload setup. Only memory-like slaves support it; peeking a
  /// peripheral is a modelling bug and aborts.
  [[nodiscard]] virtual std::uint64_t peek(Addr addr, int bytes) const;
  virtual void poke(Addr addr, std::uint64_t data, int bytes);

  /// Bulk backdoor access (workload staging and result readback). The
  /// default degenerates to a byte loop; memory slaves override with a
  /// memcpy-based fast path into their backing store.
  virtual void peek_block(Addr addr, std::span<std::uint8_t> out) const;
  virtual void poke_block(Addr addr, std::span<const std::uint8_t> data);

  /// A block of 32-bit programmed-I/O strobes on one register, as the bulk
  /// side of a closed-form CPU loop hands them over: no timing, no bus
  /// transaction. With `out` empty it is `in.size()` writes; with `in`
  /// empty, `out.size()` reads; otherwise `out.size()` groups, each of
  /// `in.size() / out.size()` writes followed by one read (see
  /// for_each_pio_group). It must equal the same single beats one by one;
  /// the default is that loop.
  virtual void pio_block(Addr addr, std::span<const std::uint32_t> in,
                         std::span<std::uint32_t> out);

  /// The bus a bridge forwards its window to; null for a slave that serves
  /// its accesses itself.
  [[nodiscard]] virtual Bus* forwards_to() const { return nullptr; }
};

/// Split a programmed-I/O block (Slave::pio_block) into its groups:
/// `writes(span)` with each group's writes, then `read()` for its read. A
/// block without reads is one group of writes.
template <typename Writes, typename Read>
void for_each_pio_group(std::span<const std::uint32_t> in,
                        std::span<std::uint32_t> out, Writes&& writes,
                        Read&& read) {
  if (out.empty()) {
    writes(in);
    return;
  }
  RTR_CHECK(in.size() % out.size() == 0,
            "a PIO block's writes split evenly between its reads");
  const std::size_t per = in.size() / out.size();
  for (std::size_t g = 0; g < out.size(); ++g) {
    writes(in.subspan(g * per, per));
    out[g] = read();
  }
}

}  // namespace rtr::bus
