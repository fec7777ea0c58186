#include "dock/plb_dock.hpp"

#include "dock/opb_dock.hpp"  // kUnboundReadValue, data_block
#include "sim/check.hpp"

namespace rtr::dock {

using sim::SimTime;

void PlbDock::strobe64(std::uint64_t data) {
  if (!module_) {
    orphans_->add();
    return;
  }
  module_->write_word(data, 64);
  if (module_->has_output()) {
    if (static_cast<int>(fifo_.size()) >= fifo_depth_) {
      overflow_ = true;  // result lost; driver software sized blocks wrong
      return;
    }
    fifo_.push_back(module_->read_word(64));
    fifo_pushes_->add();
    fifo_occupancy_->sample(static_cast<double>(fifo_.size()));
  }
}

void PlbDock::trace_fifo(sim::SimTime at) {
  sim_->tracer().counter("dock64.fifo",
                         static_cast<std::int64_t>(fifo_.size()), at);
}

std::uint64_t PlbDock::pop_fifo() {
  if (fifo_.empty()) {
    underflow_ = true;
    return kUnboundReadValue;
  }
  const std::uint64_t v = fifo_.front();
  fifo_.pop_front();
  return v;
}

bus::SlaveResult PlbDock::read(bus::Addr addr, int bytes, SimTime start) {
  const bus::Addr off = addr - range_.base;
  reads_->add();
  if (off == kPioData) {
    RTR_CHECK(bytes == 4, "PIO data reads are 32-bit");
    std::uint64_t v = kUnboundReadValue & 0xFFFFFFFFu;
    if (module_) {
      v = module_->read_word(32) & 0xFFFFFFFFu;
    } else {
      orphans_->add();
    }
    return {v, clock_->after_cycles(start, 2)};
  }
  if (off == kFifoPop) {
    RTR_CHECK(bytes == 8, "FIFO pops are 64-bit");
    const std::uint64_t v = pop_fifo();
    const SimTime done = clock_->after_cycles(start, 2);
    if (sim_->tracer().enabled()) trace_fifo(done);
    return {v, done};
  }
  if (off == kStatus) {
    RTR_CHECK(bytes == 4, "status reads are 32-bit");
    std::uint32_t v = static_cast<std::uint32_t>(fifo_.size()) & 0xFFFF;
    if (overflow_) v |= kStatusOverflow;
    if (underflow_) v |= kStatusUnderflow;
    return {v, clock_->after_cycles(start, 2)};
  }
  RTR_CHECK(false, "read from undefined PLB dock register");
  __builtin_unreachable();
}

SimTime PlbDock::write(bus::Addr addr, std::uint64_t data, int bytes,
                       SimTime start) {
  const bus::Addr off = addr - range_.base;
  writes_->add();
  if (off == kPioData) {
    RTR_CHECK(bytes == 4, "PIO data writes are 32-bit");
    if (module_) {
      module_->write_word(data & 0xFFFFFFFFu, 32);
    } else {
      orphans_->add();
    }
    return clock_->after_cycles(start, 2);
  }
  if (off == kStream) {
    RTR_CHECK(bytes == 8, "stream writes are 64-bit");
    strobe64(data);
    const SimTime done = clock_->after_cycles(start, 2);
    if (sim_->tracer().enabled()) trace_fifo(done);
    return done;
  }
  if (off == kControl) {
    RTR_CHECK(bytes == 4, "control writes are 32-bit");
    if (module_) {
      module_->control(static_cast<std::uint32_t>(data));
    } else {
      orphans_->add();
    }
    return clock_->after_cycles(start, 2);
  }
  if (off >= kDmaRegs && off < kDmaRegsEnd) {
    RTR_CHECK(bytes == 4, "DMA register writes are 32-bit");
    return clock_->after_cycles(start, 1);
  }
  RTR_CHECK(false, "write to undefined PLB dock register");
  __builtin_unreachable();
}

void PlbDock::pio_block(bus::Addr addr, std::span<const std::uint32_t> in,
                        std::span<std::uint32_t> out) {
  RTR_CHECK(addr - range_.base == kPioData,
            "PLB dock blocks strobe the PIO data register");
  data_block(module_, *writes_, *reads_, *orphans_, in, out);
}

bus::SlaveResult PlbDock::burst_read(bus::Addr addr,
                                     std::span<std::uint64_t> out,
                                     SimTime start, bool /*increment*/) {
  RTR_CHECK(addr - range_.base == kFifoPop, "bursts read the FIFO register");
  SimTime t = clock_->after_cycles(start, 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = pop_fifo();
    if (i > 0) t = t + clock_->cycles(1);
  }
  reads_->add(static_cast<std::int64_t>(out.size()));
  if (sim_->tracer().enabled()) trace_fifo(t);
  return {out.empty() ? 0 : out.back(), t};
}

SimTime PlbDock::burst_write(bus::Addr addr,
                             std::span<const std::uint64_t> data,
                             SimTime start, bool /*increment*/) {
  RTR_CHECK(addr - range_.base == kStream, "bursts write the stream register");
  SimTime t = clock_->after_cycles(start, 2);
  for (std::size_t i = 0; i < data.size(); ++i) {
    strobe64(data[i]);
    if (i > 0) t = t + clock_->cycles(1);
  }
  writes_->add(static_cast<std::int64_t>(data.size()));
  if (sim_->tracer().enabled()) trace_fifo(t);
  return t;
}

}  // namespace rtr::dock
