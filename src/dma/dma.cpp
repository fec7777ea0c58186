#include "dma/dma.hpp"

#include <vector>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace rtr::dma {

using sim::SimTime;

DmaEngine::DmaEngine(sim::Simulation& sim, bus::PlbBus& plb, DmaParams params)
    : sim_(&sim),
      plb_(&plb),
      params_(params),
      bytes_moved_(&sim.stats().counter("dma.bytes")),
      descriptors_(&sim.stats().counter("dma.descriptors")),
      chains_(&sim.stats().counter("dma.chains")),
      chain_descriptors_(&sim.stats().counter("dma.chain.descriptors")),
      chain_setup_ps_(&sim.stats().counter("dma.chain.setup_ps")),
      chain_transfer_ps_(&sim.stats().counter("dma.chain.transfer_ps")) {
  RTR_CHECK(params_.burst_beats > 0, "burst length must be positive");
}

SimTime DmaEngine::run_chain(std::span<const DmaDescriptor> chain,
                             SimTime start) {
  trace::Tracer& tr = sim_->tracer();
  const bool tracing = tr.enabled();
  if (tracing && trace_track_ < 0) trace_track_ = tr.track("DMA");

  SimTime t = start;
  std::int64_t setup_ps = 0;
  std::vector<std::uint64_t> buf;
  for (const DmaDescriptor& d : chain) {
    RTR_CHECK(d.bytes % 8 == 0, "DMA length must be a multiple of 8 bytes");
    descriptors_->add();
    const SimTime desc_start = t;
    t = plb_->clock().after_cycles(t, params_.descriptor_setup_cycles);
    setup_ps += (t - desc_start).ps();
    if (tracing) {
      // Scatter-gather descriptor fetch + decode, then the burst loop.
      tr.complete(trace_track_, "sg_fetch", desc_start, t);
      tr.begin(trace_track_, "descriptor", t);
    }

    std::uint64_t moved = 0;
    while (moved < d.bytes) {
      const std::uint64_t chunk_bytes =
          std::min<std::uint64_t>(d.bytes - moved,
                                  static_cast<std::uint64_t>(params_.burst_beats) * 8);
      const std::size_t beats = chunk_bytes / 8;
      buf.resize(beats);
      const bus::Addr src = d.src + (d.src_increment ? moved : 0);
      const bus::Addr dst = d.dst + (d.dst_increment ? moved : 0);
      const SimTime burst_start = t;
      const auto r = plb_->burst_read(src, buf, t, d.src_increment);
      if (fault::FaultInjector* fi = sim_->faults()) {
        fi->filter_beats(buf, r.done);
      }
      t = buf.empty() ? r.done
                      : plb_->burst_write(dst, buf, r.done, d.dst_increment);
      moved += chunk_bytes;
      if (tracing) {
        tr.complete(trace_track_, "burst", burst_start, t, "bytes",
                    static_cast<std::int64_t>(chunk_bytes));
      }
    }
    bytes_moved_->add(static_cast<std::int64_t>(d.bytes));
    if (tracing) {
      tr.end(trace_track_, t);
      tr.counter("dma.bytes_moved", bytes_moved_->value(), t);
    }
  }
  chains_->add();
  chain_descriptors_->add(static_cast<std::int64_t>(chain.size()));
  chain_setup_ps_->add(setup_ps);
  chain_transfer_ps_->add((t - start).ps() - setup_ps);
  return t;
}

}  // namespace rtr::dma
