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

  /// The bus a bridge forwards its window to; null for a slave that serves
  /// its accesses itself.
  [[nodiscard]] virtual Bus* forwards_to() const { return nullptr; }
};

}  // namespace rtr::bus
