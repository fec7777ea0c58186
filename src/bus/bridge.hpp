// PLB-to-OPB bridge.
//
// In the 32-bit system the external memory and all peripherals sit behind
// this bridge, so every CPU access to them pays the bridge's forwarding
// latency on top of both buses' protocols -- one of the paper's explanations
// for the 64-bit system's 4-6x faster programmed transfers ("the additional
// improvement presumably comes from the fact that no PLB-to-OPB bridge is
// used", section 4.2).
#pragma once

#include "bus/bus.hpp"
#include "bus/slave.hpp"

namespace rtr::bus {

class PlbOpbBridge : public Slave {
 public:
  /// `forward_cycles` is the request-forwarding latency in OPB cycles.
  explicit PlbOpbBridge(OpbBus& opb, int forward_cycles = 4)
      : opb_(&opb),
        forward_cycles_(forward_cycles),
        crossings_(&opb.simulation().stats().counter("bridge.crossings")),
        splits_(&opb.simulation().stats().counter("bridge.beat_splits")) {}

  [[nodiscard]] std::string name() const override { return "PLB-OPB bridge"; }

  SlaveResult read(Addr addr, int bytes, sim::SimTime start) override;
  sim::SimTime write(Addr addr, std::uint64_t data, int bytes,
                     sim::SimTime start) override;

  [[nodiscard]] OpbBus& opb() const { return *opb_; }

  /// Backdoor access forwards to the OPB side (cacheable memory can live
  /// behind the bridge, as in the 32-bit system); a block goes across in
  /// one call, not one per byte.
  [[nodiscard]] std::uint64_t peek(Addr addr, int bytes) const override {
    return opb_->peek(addr, bytes);
  }
  void poke(Addr addr, std::uint64_t data, int bytes) override {
    opb_->poke(addr, data, bytes);
  }
  void peek_block(Addr addr, std::span<std::uint8_t> out) const override {
    opb_->peek_block(addr, out);
  }
  void poke_block(Addr addr, std::span<const std::uint8_t> data) override {
    opb_->poke_block(addr, data);
  }

  [[nodiscard]] Bus* forwards_to() const override { return opb_; }

  /// The counters every forwarded access advances, registered as
  /// `bridge.crossings` and `bridge.beat_splits`.
  [[nodiscard]] sim::Counter& crossings() const { return *crossings_; }
  [[nodiscard]] sim::Counter& beat_splits() const { return *splits_; }

 private:
  [[nodiscard]] sim::SimTime forwarded(sim::SimTime start) const {
    return opb_->clock().after_cycles(start, forward_cycles_);
  }

  void trace_crossing(const char* op, Addr addr, sim::SimTime start,
                      sim::SimTime done);

  OpbBus* opb_;
  int forward_cycles_;
  sim::Counter* crossings_;
  sim::Counter* splits_;
  int trace_track_ = -1;
};

}  // namespace rtr::bus
