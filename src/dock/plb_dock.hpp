// PLB Dock: the 64-bit system's wrapper (paper section 4.1).
//
// Master/slave peripheral on the PLB with three capabilities beyond the OPB
// dock:
//   1. a scatter-gather DMA data path: the stream register accepts 64-bit
//      burst beats, each strobing the module once;
//   2. an output FIFO (2047 x 64 bit) capturing the module's results during
//      streaming, drained by DMA to memory;
//   3. an interrupt generator, so the CPU need not poll transfer status.
//
// CPU programmed I/O still moves 32 bits per access ("load and store
// instructions handle items of size up to 32 bits"), which is why PIO on
// this system gains only from clocking/bridge effects, not from bus width.
#pragma once

#include <cstdint>
#include <deque>

#include "bus/slave.hpp"
#include "cpu/intc.hpp"
#include "fabric/resources.hpp"
#include "hw/module.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace rtr::dock {

class PlbDock : public bus::Slave {
 public:
  // Register map (offsets).
  static constexpr bus::Addr kPioData = 0x00;   // 32-bit PIO read/write
  static constexpr bus::Addr kStream = 0x08;    // 64-bit write: strobe module
  static constexpr bus::Addr kFifoPop = 0x10;   // 64-bit read: pop output FIFO
  static constexpr bus::Addr kStatus = 0x18;    // 32-bit read
  static constexpr bus::Addr kControl = 0x20;   // 32-bit write: module control
  // Scatter-gather DMA programming registers (source, destination, length,
  // flags, chain pointer, go). Functionally inert in this model -- the
  // DmaEngine carries the descriptors -- but the driver's register writes
  // pay real bus time.
  static constexpr bus::Addr kDmaRegs = 0x40;
  static constexpr bus::Addr kDmaRegsEnd = 0x60;

  static constexpr int kDefaultFifoDepth = 2047;  // 64-bit words (paper 4.2)

  /// Status register layout: [15:0] FIFO count, bit 16 overflow, bit 17
  /// underflow.
  static constexpr std::uint32_t kStatusOverflow = 1u << 16;
  static constexpr std::uint32_t kStatusUnderflow = 1u << 17;

  PlbDock(sim::Simulation& sim, sim::Clock& plb_clock, bus::AddressRange range,
          int fifo_depth = kDefaultFifoDepth)
      : sim_(&sim),
        clock_(&plb_clock),
        range_(range),
        fifo_depth_(fifo_depth),
        writes_(&sim.stats().counter("dock64.writes")),
        reads_(&sim.stats().counter("dock64.reads")),
        orphans_(&sim.stats().counter("dock64.orphan_accesses")),
        fifo_pushes_(&sim.stats().counter("dock64.fifo_pushes")),
        fifo_occupancy_(&sim.stats().accumulator("dock64.fifo_occupancy")) {}

  [[nodiscard]] std::string name() const override { return "PLB Dock"; }
  [[nodiscard]] bus::AddressRange range() const { return range_; }
  [[nodiscard]] static constexpr int data_width() { return 64; }
  /// Wrapper + DMA controller + FIFO + interrupt generator. The FIFO's
  /// 2047 x 64 bits occupy 8 of the region-external BRAMs.
  [[nodiscard]] fabric::Resources cost() const {
    return fabric::Resources{690, 1040, 930, 8};
  }

  void bind(hw::HwModule* m) {
    module_ = m;
    if (module_) module_->reset();
    fifo_.clear();
    overflow_ = underflow_ = false;
  }
  void unbind() { module_ = nullptr; }
  [[nodiscard]] hw::HwModule* bound() const { return module_; }

  /// Route the dock's completion interrupt.
  void set_irq(cpu::InterruptController* intc, int line) {
    intc_ = intc;
    irq_line_ = line;
  }
  /// Device side: signal transfer completion at `at` (used by the DMA
  /// engine on chain completion).
  void signal_done(sim::SimTime at) {
    if (intc_) intc_->raise(irq_line_, at);
  }
  [[nodiscard]] int irq_line() const { return irq_line_; }

  // --- FIFO observability -------------------------------------------------
  [[nodiscard]] int fifo_count() const { return static_cast<int>(fifo_.size()); }
  [[nodiscard]] int fifo_depth() const { return fifo_depth_; }
  [[nodiscard]] bool overflowed() const { return overflow_; }
  [[nodiscard]] bool underflowed() const { return underflow_; }

  // --- bus interface --------------------------------------------------------
  bus::SlaveResult read(bus::Addr addr, int bytes,
                        sim::SimTime start) override;
  sim::SimTime write(bus::Addr addr, std::uint64_t data, int bytes,
                     sim::SimTime start) override;

  /// A block of PIO strobes on the data register (the closed-form bulk
  /// side of a CPU loop).
  void pio_block(bus::Addr addr, std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;

  /// Pipelined burst pop from the FIFO (DMA drain path).
  bus::SlaveResult burst_read(bus::Addr addr, std::span<std::uint64_t> out,
                              sim::SimTime start, bool increment) override;
  /// Pipelined burst into the stream register (DMA feed path): one module
  /// strobe per beat, outputs captured into the FIFO.
  sim::SimTime burst_write(bus::Addr addr,
                           std::span<const std::uint64_t> data,
                           sim::SimTime start, bool increment) override;

 private:
  void strobe64(std::uint64_t data);
  std::uint64_t pop_fifo();
  /// Emit a FIFO-occupancy counter sample at `at` (tracing only).
  void trace_fifo(sim::SimTime at);

  sim::Simulation* sim_;
  sim::Clock* clock_;
  bus::AddressRange range_;
  int fifo_depth_;
  hw::HwModule* module_ = nullptr;
  std::deque<std::uint64_t> fifo_;
  bool overflow_ = false;
  bool underflow_ = false;
  cpu::InterruptController* intc_ = nullptr;
  int irq_line_ = 0;
  sim::Counter* writes_;
  sim::Counter* reads_;
  sim::Counter* orphans_;
  sim::Counter* fifo_pushes_;
  sim::Accumulator* fifo_occupancy_;
};

}  // namespace rtr::dock
