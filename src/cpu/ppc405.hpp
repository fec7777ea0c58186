// PowerPC 405 timing model.
//
// Not an ISA interpreter: software kernels run as annotated C++ against this
// model, charging cycles per operation and routing every memory access
// through the cache and bus models. The properties the paper's results rest
// on are preserved exactly:
//   * load/store instructions move at most 32 bits ("the CPU does not
//     support programmatic 64-bit data transfers");
//   * only cacheable accesses benefit from the 64-bit bus, via 4-beat
//     line-fill bursts;
//   * I/O regions (docks, ICAP, UART) are non-cacheable: every access is a
//     full bus transaction the CPU stalls on.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/bus.hpp"
#include "cpu/cache.hpp"
#include "sim/kernel.hpp"

namespace rtr::cpu {

struct Ppc405Params {
  sim::Frequency freq = sim::Frequency::from_mhz(200);
  CacheParams dcache{};
  /// Pipeline cost of taking an interrupt and dispatching the handler.
  int interrupt_entry_cycles = 40;
};

class Ppc405 {
 public:
  /// `cacheable` lists the address ranges the MMU maps write-back
  /// cacheable; everything else is guarded (uncached, strictly ordered).
  Ppc405(sim::Simulation& sim, sim::Clock& cpu_clock, bus::PlbBus& plb,
         std::vector<bus::AddressRange> cacheable, Ppc405Params params = {});

  [[nodiscard]] sim::SimTime now() const { return now_; }
  void reset_time(sim::SimTime t = sim::SimTime::zero()) { now_ = t; }
  [[nodiscard]] sim::Clock& clock() const { return *clock_; }
  [[nodiscard]] bus::PlbBus& plb() const { return *plb_; }
  [[nodiscard]] DataCache& dcache() { return dcache_; }
  [[nodiscard]] const Ppc405Params& params() const { return params_; }

  /// Spend `cycles` CPU cycles computing (no memory traffic).
  void tick(std::int64_t cycles) {
    now_ += clock_->cycles(cycles);
    sim_->observe(now_);
  }

  /// Idle until absolute time `t` (e.g. sleeping for an interrupt).
  void idle_until(sim::SimTime t) {
    if (t > now_) now_ = t;
    sim_->observe(now_);
  }

  /// Take an interrupt that was (or will be) asserted at `asserted_at`:
  /// the core idles until then, pays the entry cost, and resumes.
  void take_interrupt(sim::SimTime asserted_at) {
    idle_until(asserted_at);
    tick(params_.interrupt_entry_cycles);
  }

  // --- loads/stores (max 32 bits, as on the real core) -------------------
  std::uint32_t load32(bus::Addr a) { return static_cast<std::uint32_t>(load(a, 4)); }
  std::uint16_t load16(bus::Addr a) { return static_cast<std::uint16_t>(load(a, 2)); }
  std::uint8_t load8(bus::Addr a) { return static_cast<std::uint8_t>(load(a, 1)); }
  void store32(bus::Addr a, std::uint32_t v) { store(a, v, 4); }
  void store16(bus::Addr a, std::uint16_t v) { store(a, v, 2); }
  void store8(bus::Addr a, std::uint8_t v) { store(a, v, 1); }

  /// Write back + invalidate the whole D-cache (dcbf loop), charging the
  /// writeback bursts. Driver software runs this before DMA.
  void flush_dcache();
  /// Flush only [addr, addr+len) (dcbf over a buffer).
  void flush_dcache_range(bus::Addr addr, std::uint64_t len);

  [[nodiscard]] bool is_cacheable(bus::Addr a) const;
  /// True when any byte of `r` is cacheable.
  [[nodiscard]] bool is_cacheable(bus::AddressRange r) const;

  /// The counters every load and every store advances, registered as
  /// `cpu.loads` and `cpu.stores`.
  [[nodiscard]] sim::Counter& loads() const { return *loads_; }
  [[nodiscard]] sim::Counter& stores() const { return *stores_; }

 private:
  std::uint64_t load(bus::Addr a, int bytes);
  void store(bus::Addr a, std::uint64_t v, int bytes);
  /// Fetch the line containing `a`; assumes the cache already allocated it.
  void fill_line(bus::Addr a);
  void write_back_line(bus::Addr line_addr);

  sim::Simulation* sim_;
  sim::Clock* clock_;
  bus::PlbBus* plb_;
  std::vector<bus::AddressRange> cacheable_;
  Ppc405Params params_;
  DataCache dcache_;
  sim::SimTime now_;
  sim::Counter* loads_;
  sim::Counter* stores_;
  sim::Counter* dcache_hits_;
  sim::Counter* dcache_misses_;
};

}  // namespace rtr::cpu
