// OPB Dock: the 32-bit system's wrapper between the OPB and the dynamic
// region (paper section 3.1).
//
// The dock is an OPB slave with a fixed address range. It latches incoming
// data (kept stable for the module between writes), generates the write
// strobe the module uses as clock enable, and multiplexes the module's read
// channel onto bus reads. When no behaviour is bound (blank or
// half-configured region) writes are dropped and reads return a poison
// value -- exactly the "garbage" a real design would sample.
#pragma once

#include <cstdint>
#include <span>

#include "bus/slave.hpp"
#include "fabric/resources.hpp"
#include "hw/module.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace rtr::dock {

inline constexpr std::uint64_t kUnboundReadValue = 0xDEADBEEFDEADBEEFULL;

/// A block of strobes on either dock's data register (bus::Slave::pio_block):
/// the counters advance as the single beats would advance them, and the
/// bound module consumes the block whole. With nothing bound, every strobe
/// is an orphan access and every read returns the poison value.
inline void data_block(hw::HwModule* module, sim::Counter& writes,
                       sim::Counter& reads, sim::Counter& orphans,
                       std::span<const std::uint32_t> in,
                       std::span<std::uint32_t> out) {
  writes.add(static_cast<std::int64_t>(in.size()));
  reads.add(static_cast<std::int64_t>(out.size()));
  if (module) {
    module->pio_block(in, out);
    return;
  }
  orphans.add(static_cast<std::int64_t>(in.size() + out.size()));
  bus::for_each_pio_group(
      in, out, [](std::span<const std::uint32_t>) {},
      [] { return static_cast<std::uint32_t>(kUnboundReadValue); });
}

class OpbDock : public bus::Slave {
 public:
  static constexpr bus::Addr kDataReg = 0x0;
  /// Control strobe: re-arms the module / carries a task parameter. The
  /// same offset on both docks so drivers are system-agnostic.
  static constexpr bus::Addr kControlReg = 0x20;

  OpbDock(sim::Simulation& sim, sim::Clock& opb_clock, bus::AddressRange range)
      : clock_(&opb_clock),
        range_(range),
        writes_(&sim.stats().counter("dock32.writes")),
        reads_(&sim.stats().counter("dock32.reads")),
        orphans_(&sim.stats().counter("dock32.orphan_accesses")) {}

  [[nodiscard]] std::string name() const override { return "OPB Dock"; }
  [[nodiscard]] bus::AddressRange range() const { return range_; }
  [[nodiscard]] static constexpr int data_width() { return 32; }
  /// Fabric cost of the wrapper (address decode + latches + macros).
  [[nodiscard]] fabric::Resources cost() const {
    return fabric::Resources{140, 210, 190, 0};
  }

  /// Bind the behavioural model of the currently configured circuit. The
  /// runtime calls this only after the load validated: by the signature +
  /// payload-hash walk, or by a cached plan's recorded verdict
  /// (Platform::load_plan).
  void bind(hw::HwModule* m) {
    module_ = m;
    if (module_) module_->reset();
  }
  void unbind() { module_ = nullptr; }
  [[nodiscard]] hw::HwModule* bound() const { return module_; }

  bus::SlaveResult read(bus::Addr addr, int bytes,
                        sim::SimTime start) override {
    RTR_CHECK(bytes == 4 && addr - range_.base == kDataReg,
              "OPB dock supports 32-bit data reads");
    reads_->add();
    std::uint64_t v = kUnboundReadValue & 0xFFFFFFFFu;
    if (module_) {
      v = module_->read_word(32) & 0xFFFFFFFFu;
    } else {
      orphans_->add();
    }
    return {v, clock_->after_cycles(start, 2)};
  }

  sim::SimTime write(bus::Addr addr, std::uint64_t data, int bytes,
                     sim::SimTime start) override {
    const bus::Addr off = addr - range_.base;
    RTR_CHECK(bytes == 4 && (off == kDataReg || off == kControlReg),
              "OPB dock supports 32-bit data/control writes");
    writes_->add();
    if (module_) {
      if (off == kDataReg) {
        module_->write_word(data & 0xFFFFFFFFu, 32);
      } else {
        module_->control(static_cast<std::uint32_t>(data));
      }
    } else {
      orphans_->add();
    }
    return clock_->after_cycles(start, 2);
  }

  void pio_block(bus::Addr addr, std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override {
    RTR_CHECK(addr - range_.base == kDataReg,
              "OPB dock blocks strobe the data register");
    data_block(module_, *writes_, *reads_, *orphans_, in, out);
  }

 private:
  sim::Clock* clock_;
  bus::AddressRange range_;
  hw::HwModule* module_ = nullptr;
  sim::Counter* writes_;
  sim::Counter* reads_;
  sim::Counter* orphans_;
};

}  // namespace rtr::dock
