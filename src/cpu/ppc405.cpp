#include "cpu/ppc405.hpp"

#include "sim/check.hpp"

namespace rtr::cpu {

using bus::Addr;
using sim::SimTime;

Ppc405::Ppc405(sim::Simulation& sim, sim::Clock& cpu_clock, bus::PlbBus& plb,
               std::vector<bus::AddressRange> cacheable, Ppc405Params params)
    : sim_(&sim),
      clock_(&cpu_clock),
      plb_(&plb),
      cacheable_(std::move(cacheable)),
      params_(params),
      dcache_(params.dcache),
      loads_(&sim.stats().counter("cpu.loads")),
      stores_(&sim.stats().counter("cpu.stores")),
      dcache_hits_(&sim.stats().counter("cpu.dcache.hits")),
      dcache_misses_(&sim.stats().counter("cpu.dcache.misses")) {}

bool Ppc405::is_cacheable(Addr a) const {
  for (const auto& r : cacheable_) {
    if (r.contains(a)) return true;
  }
  return false;
}

bool Ppc405::is_cacheable(bus::AddressRange r) const {
  if (r.size == 0) return false;
  for (const auto& c : cacheable_) {
    if (c.overlaps(r)) return true;
  }
  return false;
}

void Ppc405::write_back_line(Addr line_addr) {
  const int line = dcache_.params().line_bytes;
  std::vector<std::uint64_t> beats(static_cast<std::size_t>(line / 8));
  for (std::size_t i = 0; i < beats.size(); ++i) {
    beats[i] = plb_->peek(line_addr + i * 8, 8);
  }
  now_ = plb_->burst_write(line_addr, beats, now_);
}

void Ppc405::fill_line(Addr a) {
  const int line = dcache_.params().line_bytes;
  const Addr line_addr = dcache_.line_of(a);
  std::vector<std::uint64_t> beats(static_cast<std::size_t>(line / 8));
  const auto r = plb_->burst_read(line_addr, beats, now_);
  now_ = r.done;
  // Data is left in the functional memory (the cache array is timing-only).
}

std::uint64_t Ppc405::load(Addr a, int bytes) {
  loads_->add();
  if (is_cacheable(a)) {
    const auto res = dcache_.load(a);
    (res.hit ? dcache_hits_ : dcache_misses_)->add();
    if (res.writeback) write_back_line(res.victim_line);
    if (res.fill) fill_line(a);
    tick(1);  // the load instruction itself
    return plb_->peek(a, bytes);
  }
  // Guarded access: a full bus transaction the core stalls on.
  const auto r = plb_->read(a, bytes, now_);
  now_ = r.done;
  tick(1);
  return r.data;
}

void Ppc405::store(Addr a, std::uint64_t v, int bytes) {
  stores_->add();
  if (is_cacheable(a)) {
    const auto res = dcache_.store(a);
    (res.hit ? dcache_hits_ : dcache_misses_)->add();
    if (res.hit) {
      plb_->poke(a, v, bytes);  // cache array write; reaches memory at flush
      tick(1);
      return;
    }
    // Store miss: no allocation; the write goes to the bus. The core does
    // not stall on the posted write beyond issuing it, but the bus is a
    // shared resource, so we account the transaction and continue from its
    // completion (single outstanding store).
    now_ = plb_->write(a, v, bytes, now_);
    tick(1);
    return;
  }
  now_ = plb_->write(a, v, bytes, now_);
  tick(1);
}

void Ppc405::flush_dcache() {
  for (Addr line : dcache_.flush_all()) write_back_line(line);
  // dcbf sweep cost: one instruction per line of the cache.
  const auto& p = dcache_.params();
  tick(p.size_bytes / p.line_bytes);
}

void Ppc405::flush_dcache_range(Addr addr, std::uint64_t len) {
  for (Addr line : dcache_.flush_range(addr, len)) write_back_line(line);
  const int line_bytes = dcache_.params().line_bytes;
  const std::int64_t lines =
      len == 0 ? 0
               : static_cast<std::int64_t>(
                     (addr + len - 1) / static_cast<Addr>(line_bytes) -
                     addr / static_cast<Addr>(line_bytes) + 1);
  tick(lines);
}

}  // namespace rtr::cpu
