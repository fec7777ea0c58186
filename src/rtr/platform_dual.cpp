#include "rtr/platform_dual.hpp"

#include <sstream>

#include "busmacro/bus_macro.hpp"
#include "sim/check.hpp"

namespace rtr {

using sim::Frequency;

Platform64Dual::Platform64Dual(PlatformOptions opts)
    : opts_(opts),
      cpu_clk_(sim_.add_clock("cpu", Frequency::from_mhz(300))),
      bus_clk_(sim_.add_clock("bus", Frequency::from_mhz(100))),
      plb_(sim_, bus_clk_),
      opb_(sim_, bus_clk_),
      fabric_(fabric::Device::xc2vp30()),
      baseline_(fabric::Device::xc2vp30()),
      registry_(hw::standard_registry(hw::bram_bits(6))) {
  if (opts_.tracer) sim_.attach_tracer(*opts_.tracer);
  regions_[0] = std::make_unique<fabric::DynamicRegion>(
      fabric::DynamicRegion::xc2vp30_region());
  regions_[1] = std::make_unique<fabric::DynamicRegion>(
      fabric::DynamicRegion::xc2vp30_region_b());
  RTR_CHECK(regions_[0]->column_disjoint_with(*regions_[1]),
            "dual regions must not share configuration columns");

  bridge_ = std::make_unique<bus::PlbOpbBridge>(opb_);
  bram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::bram_on_plb(kBramRange, bus_clk_, 8));
  ddr_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::ddr_on_plb(kDdrRange, bus_clk_));
  uart_ = std::make_unique<Uart>(bus_clk_, kUartRange);
  icap_ = std::make_unique<icap::IcapController>(sim_, bus_clk_, kIcapRange,
                                                 fabric_);
  intc_ = std::make_unique<cpu::InterruptController>(bus_clk_, kIntcRange);
  docks_[0] = std::make_unique<dock::PlbDock>(sim_, bus_clk_, kDockARange,
                                              opts_.fifo_depth);
  docks_[1] = std::make_unique<dock::PlbDock>(sim_, bus_clk_, kDockBRange,
                                              opts_.fifo_depth);
  docks_[0]->set_irq(intc_.get(), kDockAIrq);
  docks_[1]->set_irq(intc_.get(), kDockBIrq);
  dma_ = std::make_unique<dma::DmaEngine>(sim_, plb_);
  for (int r = 0; r < kRegions; ++r) {
    linkers_[r] = std::make_unique<bitlinker::BitLinker>(
        *regions_[r], busmacro::ConnectionInterface::for_width(64), baseline_);
  }

  plb_.attach(kDdrRange, *ddr_);
  plb_.attach(kBramRange, *bram_);
  plb_.attach(kDockARange, *docks_[0]);
  plb_.attach(kDockBRange, *docks_[1]);
  plb_.attach(kBridgeWindow, *bridge_);
  opb_.attach(kUartRange, *uart_);
  opb_.attach(kIcapRange, *icap_);
  opb_.attach(kIntcRange, *intc_);

  std::vector<bus::AddressRange> cacheable;
  if (opts_.enable_dcache) cacheable.push_back(kDdrRange);
  cpu_ = std::make_unique<cpu::Ppc405>(
      sim_, cpu_clk_, plb_, std::move(cacheable),
      cpu::Ppc405Params{.freq = Frequency::from_mhz(300)});
  kernel_ = std::make_unique<cpu::Kernel>(*cpu_);
}

ReconfigStats Platform64Dual::load_module(int region, hw::BehaviorId id) {
  const int r = check(region);
  return detail::do_load(id, 64, *linkers_[r], plb_,
                         r == 0 ? kConfigStagingA : kConfigStagingB, *icap_,
                         *kernel_, fabric_, *regions_[r], registry_,
                         *docks_[r], modules_[r], /*deadline=*/{});
}

void Platform64Dual::unload(int region) {
  const int r = check(region);
  docks_[r]->unbind();
  modules_[r].reset();
}

std::string Platform64Dual::topology() const {
  std::ostringstream os;
  os << "64-bit system with two dynamic areas (XC2VP30-FF896-7, extension)\n"
     << "  PPC405 @ 300 MHz, PLB/OPB @ 100 MHz\n"
     << "  PLB: DDR, BRAM, PLB Dock A, PLB Dock B, bridge\n"
     << "  OPB: UART, OPB HWICAP, interrupt controller\n";
  for (int r = 0; r < kRegions; ++r) {
    os << "  region " << r << " ('" << regions_[r]->name() << "'): "
       << regions_[r]->rect().cols << "x" << regions_[r]->rect().rows
       << " CLBs at (" << regions_[r]->rect().row0 << ","
       << regions_[r]->rect().col0 << "), " << regions_[r]->bram_blocks()
       << " BRAMs\n";
  }
  return os.str();
}

}  // namespace rtr
