#include "rtr/platform.hpp"

#include <bit>
#include <iomanip>
#include <sstream>
#include <utility>

#include "bitstream/partial_config.hpp"
#include "busmacro/bus_macro.hpp"
#include "cpu/periodic_loop.hpp"
#include "sim/check.hpp"

namespace rtr {

using bus::Addr;
using sim::Frequency;
using sim::SimTime;

namespace {

/// Build the platform's fault injector from its fault plan. Null when
/// nothing is scheduled, so the components' injection points stay on their
/// fast path.
std::unique_ptr<fault::FaultInjector> arm_faults(const PlatformOptions& opts,
                                                 sim::Simulation& sim) {
  if (opts.fault_plan.empty()) return nullptr;
  auto fi = std::make_unique<fault::FaultInjector>(opts.fault_plan);
  fi->bind(sim);
  sim.attach_faults(*fi);
  return fi;
}

/// Copy a prepared stream into staging memory: a host backdoor write, no
/// simulated time. One block copy where SparseMemory's little-endian layout
/// is the host's; word by word elsewhere.
void stage_words(bus::Bus& mem_bus, Addr staging,
                 std::span<const std::uint32_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    mem_bus.poke_block(staging,
                       {reinterpret_cast<const std::uint8_t*>(words.data()),
                        words.size() * 4});
  } else {
    for (std::size_t i = 0; i < words.size(); ++i) {
      mem_bus.poke(staging + i * 4, words[i], 4);
    }
  }
}

/// Iteration i of the CPU streaming loop
///   for (i = 0; i < n; ++i) { w = cfg[i]; HWICAP_DATA = w; }
void icap_load_word(cpu::Kernel& k, Addr staging, Addr icap_data,
                    std::int64_t i) {
  const std::uint32_t w = k.lw(staging + static_cast<Addr>(i) * 4);
  k.sw(icap_data, w);
  k.op(2);  // index increment + compare
  k.branch();
}

}  // namespace

namespace detail {

std::int64_t icap_load_loop(cpu::Kernel& k, Addr staging, std::int64_t words,
                            Addr icap_data, sim::SimTime deadline) {
  k.call();
  return cpu::run_iterations(k, deadline, 0, words, [&](std::int64_t i) {
    icap_load_word(k, staging, icap_data, i);
  });
}

std::int64_t icap_load_bulk(cpu::Kernel& k,
                            std::span<const std::uint32_t> words, Addr staging,
                            icap::IcapController& icap, SimTime deadline) {
  const Addr icap_data = icap.range().base + icap::IcapController::kDataReg;
  const auto n = static_cast<std::int64_t>(words.size());
  k.call();
  return cpu::run_periodic(
      k,
      {.iterations = n,
       .reads = {bus::AddressRange{staging, static_cast<std::uint64_t>(n) * 4}},
       .deadline = deadline},
      [&](std::int64_t i) { icap_load_word(k, staging, icap_data, i); },
      // The ICAP still receives every word, so frames, CRC and status come
      // from its state machine.
      [&](std::int64_t first, std::int64_t count) {
        icap.feed(words.subspan(static_cast<std::size_t>(first),
                                static_cast<std::size_t>(count)));
      });
}

bool region_validates(const fabric::ConfigMemory& cm,
                      const fabric::DynamicRegion& region, int* behavior_id) {
  const int id = region.scan_signature(cm);
  if (id < 0) return false;
  const auto f = cm.frame(region.signature_frame());
  const std::uint32_t stored =
      f[static_cast<std::size_t>(region.signature_word() + 3)];
  if (stored != bitlinker::region_payload_hash(cm, region)) return false;
  *behavior_id = id;
  return true;
}

/// Record one reconfiguration span on the "RTR" track, tagged complete or
/// differential (the distinction §2.2 turns on), and bump the matching byte
/// counter so stat dumps attribute configuration traffic by flavour.
void account_reconfig(sim::Simulation& sim, bool differential,
                      const ReconfigStats& stats) {
  sim.stats()
      .counter(differential ? "reconfig.differential_bytes"
                            : "reconfig.complete_bytes")
      .add(stats.config_bytes);
  if (stats.watchdog) sim.stats().counter("reconfig.watchdog_aborts").add();
  trace::Tracer& tr = sim.tracer();
  if (tr.enabled()) {
    const int track = tr.track("RTR");
    tr.complete(track,
                differential ? "reconfig:differential" : "reconfig:complete",
                stats.started, stats.finished, "stream_words",
                stats.stream_words);
    if (const sim::RequestContext* rq = sim.active_request()) {
      // Link the ICAP/DMA transfer into the serving request's flow chain.
      tr.flow(trace::Phase::kFlowStep, track, "req", rq->id, stats.started);
    }
    if (stats.watchdog) {
      tr.instant(track, "reconfig:watchdog_abort", stats.finished);
    } else if (!stats.ok) {
      tr.instant(track, "reconfig:failed", stats.finished);
    }
  }
}

}  // namespace detail


// --- SystemSpec ------------------------------------------------------------------

const SystemSpec& SystemSpec::of(int system) {
  RTR_CHECK(system == 32 || system == 64, "the systems are 32 and 64");
  return system == 32 ? k32 : k64;
}

// --- Platform --------------------------------------------------------------------

Platform::Area::Area(const fabric::DynamicRegion& r,
                     const fabric::ConfigMemory& baseline, int dock_width)
    : region(r),
      linker(region, busmacro::ConnectionInterface::for_width(dock_width),
             baseline) {}

Platform::Platform(const SystemSpec& spec, PlatformOptions opts)
    : spec_(spec),
      opts_(std::move(opts)),
      faults_(arm_faults(opts_, sim_)),
      cpu_clk_(sim_.add_clock("cpu", Frequency::from_mhz(spec_.cpu_mhz))),
      bus_clk_(sim_.add_clock("bus", Frequency::from_mhz(spec_.bus_mhz))),
      plb_(sim_, bus_clk_),
      opb_(sim_, bus_clk_),
      fabric_(spec_.device()),
      baseline_(spec_.device()),
      // Task components own at most the 6 BRAMs of the XC2VP7 region they
      // were designed for; the 64-bit system reuses them unmodified
      // (section 4.2).
      registry_(hw::standard_registry(hw::bram_bits(6))) {
  // The dynamic areas, the primary region first. The spec's area builder
  // checks the count (and, with two areas, the column-disjointness that
  // lets them reconfigure independently). Each area's linker points at its
  // region: reserve once so the emplace_backs cannot reallocate under them.
  const auto regions = spec_.areas(opts_.dynamic_areas);
  areas_.reserve(regions.size());
  for (const fabric::DynamicRegion& r : regions) {
    areas_.emplace_back(r, baseline_, dock_width());
  }

  if (opts_.tracer) sim_.attach_tracer(*opts_.tracer);
  const bool ddr = spec_.memory == SystemSpec::Memory::kDdrOnPlb;
  bridge_ = std::make_unique<bus::PlbOpbBridge>(opb_);
  bram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::bram_on_plb(spec_.bram, bus_clk_, 8));
  ext_mem_ = std::make_unique<mem::MemorySlave>(
      ddr ? mem::MemorySlave::ddr_on_plb(spec_.memory_range, bus_clk_)
          : mem::MemorySlave::sram_on_opb(spec_.memory_range, bus_clk_));
  uart_ = std::make_unique<Uart>(bus_clk_, spec_.uart);
  if (spec_.gpio.size > 0) {
    gpio_ = std::make_unique<Gpio>(bus_clk_, spec_.gpio);
  }
  icap_ = std::make_unique<icap::IcapController>(sim_, bus_clk_, spec_.icap,
                                                 fabric_);
  if (spec_.intc.size > 0) {
    intc_ = std::make_unique<cpu::InterruptController>(bus_clk_, spec_.intc);
  }
  if (spec_.has_dma()) {
    plb_dock_ = std::make_unique<dock::PlbDock>(sim_, bus_clk_,
                                                spec_.dock_range,
                                                opts_.fifo_depth);
    plb_dock_->set_irq(intc_.get(), spec_.dock_irq);
    dma_ = std::make_unique<dma::DmaEngine>(sim_, plb_);
  } else {
    opb_dock_ =
        std::make_unique<dock::OpbDock>(sim_, bus_clk_, spec_.dock_range);
  }

  // The memory map, in the order of figures 3 and 4: external memory, BRAM
  // and (on the 64-bit system) the dock on the PLB ahead of the bridge;
  // the UART, GPIO, HWICAP, interrupt controller and (on the 32-bit
  // system) memory and dock on the OPB.
  if (ddr) plb_.attach(spec_.memory_range, *ext_mem_);
  plb_.attach(spec_.bram, *bram_);
  if (plb_dock_) plb_.attach(spec_.dock_range, *plb_dock_);
  plb_.attach(spec_.bridge_window, *bridge_);
  if (!ddr) opb_.attach(spec_.memory_range, *ext_mem_);
  opb_.attach(spec_.uart, *uart_);
  if (gpio_) opb_.attach(spec_.gpio, *gpio_);
  opb_.attach(spec_.icap, *icap_);
  if (intc_) opb_.attach(spec_.intc, *intc_);
  if (opb_dock_) opb_.attach(spec_.dock_range, *opb_dock_);

  std::vector<bus::AddressRange> cacheable;
  if (opts_.enable_dcache) cacheable.push_back(spec_.memory_range);
  cpu_ = std::make_unique<cpu::Ppc405>(
      sim_, cpu_clk_, plb_, std::move(cacheable),
      cpu::Ppc405Params{.freq = Frequency::from_mhz(spec_.cpu_mhz)});
  kernel_ = std::make_unique<cpu::Kernel>(*cpu_);
}

bus::Bus& Platform::memory_bus() {
  if (spec_.memory == SystemSpec::Memory::kDdrOnPlb) return plb_;
  return opb_;
}

void Platform::bind_dock(hw::HwModule* m) {
  if (plb_dock_) {
    plb_dock_->bind(m);
  } else {
    opb_dock_->bind(m);
  }
}

void Platform::unbind_dock() {
  if (plb_dock_) {
    plb_dock_->unbind();
  } else {
    opb_dock_->unbind();
  }
}

ReconfigStats Platform::load_module(hw::BehaviorId id, int area) {
  return link_and_load(id, area, /*dma=*/false);
}

ReconfigStats Platform::load_module_dma(hw::BehaviorId id) {
  if (!has_dma()) return no_dma();
  return link_and_load(id, 0, /*dma=*/true);
}

ReconfigStats Platform::load_config(const bitstream::PartialConfig& cfg) {
  const auto words = bitstream::serialize(cfg);
  return load_stream(words, cfg.payload_bytes(),
                     /*differential=*/!cfg.is_complete_for(region()));
}

ReconfigStats Platform::load_stream(std::span<const std::uint32_t> words,
                                    std::int64_t config_bytes,
                                    bool differential, int area) {
  return stream_load(words, config_bytes, differential, area, /*dma=*/false);
}

ReconfigStats Platform::load_stream_dma(std::span<const std::uint32_t> words,
                                        std::int64_t config_bytes,
                                        bool differential, int area) {
  if (!has_dma()) return no_dma();
  return stream_load(words, config_bytes, differential, area, /*dma=*/true);
}

ReconfigStats Platform::no_dma() {
  ReconfigStats stats;
  stats.started = stats.finished = kernel_->now();
  stats.error = "this system has no DMA engine";
  return stats;
}

/// The timed component load: link `id`'s component against `area`'s
/// BitLinker, then stream the serialised words. Linking and serialising take
/// no simulated time, so the stream starts at the load's start. A link
/// error returns before anything is staged or accounted.
ReconfigStats Platform::link_and_load(hw::BehaviorId id, int area, bool dma) {
  const auto linked =
      linker(area).link_single(hw::component_for(id, dock_width()));
  if (!linked.ok()) {
    ReconfigStats stats;
    stats.error = linked.errors.front();
    stats.started = stats.finished = kernel_->now();
    return stats;
  }
  const auto words = bitstream::serialize(*linked.config);
  return stream_load(words, linked.stats.payload_bytes,
                     /*differential=*/false, area, dma);
}

/// Stage a serialised stream in memory, drive it into the HWICAP -- by the
/// CPU, or by one DMA descriptor -- validate the area's region and bind the
/// behaviour. Every load ends here. The span is read in place (cached word
/// streams are staged without a host-side copy); only an armed fault plan,
/// which has to mutate the staged words, or an odd word count on the DMA
/// path, which moves whole 64-bit beats, forces a local copy.
ReconfigStats Platform::stream_load(std::span<const std::uint32_t> words,
                                    std::int64_t config_bytes,
                                    bool differential, int area, bool dma) {
  Area& a = at(area);
  sync_area_gens();
  ReconfigStats stats;
  stats.started = kernel_->now();
  stats.config_bytes = config_bytes;
  if (dma && load_deadline_.ps() > 0 && stats.started >= load_deadline_) {
    // Aborted before the dock unbinds or the fabric is touched: whatever
    // circuit was active stays active.
    stats.finished = stats.started;
    stats.watchdog = true;
    stats.error = "watchdog: load deadline already expired at DMA issue";
    detail::account_reconfig(sim_, differential, stats);
    return stats;
  }

  fault::FaultInjector* fi = sim_.faults();
  std::vector<std::uint32_t> local;
  if ((dma && words.size() % 2 != 0) || fi != nullptr) {
    local.assign(words.begin(), words.end());
    if (dma && local.size() % 2 != 0) local.push_back(bitstream::kDummyWord);
    if (fi != nullptr) fi->corrupt_staged(local, kernel_->now());
    words = local;
  }
  stats.stream_words = static_cast<std::int64_t>(words.size());
  // Configurations are prepared offline and already resident in external
  // memory (as in the paper's flow); staging them is a host operation.
  const Addr staging = spec_.config_staging;
  stage_words(memory_bus(), staging, words);

  // Unbind before touching the fabric: the circuit is about to disappear.
  unbind_dock();
  a.module.reset();

  const Addr icap_base = spec_.icap.base;
  // Reset the ICAP state machine.
  cpu_->store32(icap_base + icap::IcapController::kControlReg, 1);
  bool streamed = true;
  if (!dma) {
    const std::int64_t n =
        detail::icap_load_bulk(*kernel_, words, staging, *icap_,
                               load_deadline_);
    if (n < stats.stream_words) {
      // Watchdog abort: the partial stream never reaches the done state;
      // the next load's ICAP reset discards it.
      stats.finished = kernel_->now();
      stats.watchdog = true;
      stats.error = "watchdog: load deadline expired after " +
                    std::to_string(n) + "/" +
                    std::to_string(stats.stream_words) + " words";
      streamed = false;
    }
  } else {
    // One scatter-gather descriptor: staging -> HWICAP data window (fixed
    // destination; the bridge splits each 64-bit beat into two data words).
    kernel_->op(30);  // descriptor setup
    const dma::DmaDescriptor d{
        staging, icap_base + icap::IcapController::kDataReg,
        static_cast<std::uint64_t>(words.size()) * 4, true, false};
    const sim::SimTime done = dma_->run_one(d, kernel_->now());
    if (load_deadline_.ps() > 0 && done > load_deadline_) {
      // The completion interrupt would arrive after the deadline: the
      // watchdog fires instead, the CPU abandons the wait and the partial
      // stream is discarded by the next load's ICAP reset.
      cpu_->idle_until(load_deadline_);
      stats.finished = kernel_->now();
      stats.watchdog = true;
      stats.error = "watchdog: DMA reconfiguration missed the load deadline";
      streamed = false;
    } else {
      const Addr intc_base = spec_.intc.base;
      plb_dock_->signal_done(done);
      cpu_->take_interrupt(intc_->assertion_time(spec_.dock_irq));
      (void)cpu_->load32(intc_base + cpu::InterruptController::kStatusReg);
      cpu_->store32(intc_base + cpu::InterruptController::kAckReg,
                    1u << spec_.dock_irq);
      intc_->clear(spec_.dock_irq);
    }
  }

  if (streamed) {
    const std::uint32_t status =
        cpu_->load32(icap_base + icap::IcapController::kStatusReg);
    stats.finished = kernel_->now();
    int bound_id = -1;
    if (!(status & icap::IcapController::kStatusDone)) {
      stats.error = "ICAP did not complete (CRC or protocol error)";
    } else if (!detail::region_validates(fabric_, a.region, &bound_id)) {
      stats.error = "region signature/payload validation failed";
    } else if (auto module = registry_.create(bound_id); !module) {
      stats.error = "no behavioural model registered for id " +
                    std::to_string(bound_id);
    } else {
      a.module = std::move(module);
      bind_dock(a.module.get());
      stats.ok = true;
    }
  }
  note_fabric_write(area);
  // The dock unbinds before the fabric is touched and only a successful
  // load re-binds, so on failure no area is active.
  active_area_ = stats.ok ? area : -1;
  detail::account_reconfig(sim_, differential, stats);
  return stats;
}

void Platform::activate_area(int area) {
  Area& a = at(area);
  if (area == active_area_) return;
  RTR_CHECK(a.module != nullptr, "activate_area: area hosts no module");
  // Cross-area activation: re-select the dock's bus-macro mux and let the
  // target circuit reset (bind() resets it) -- a register write plus
  // settle, orders of magnitude below any reconfiguration.
  kernel_->op(8);
  unbind_dock();
  bind_dock(a.module.get());
  active_area_ = area;
}

void Platform::note_fabric_write(int area) {
  if (fabric_.generation() == fabric_gen_seen_) return;  // nothing written
  if (faults_ != nullptr) {
    // A corrupted stream word can carry a frame address outside the target
    // area's columns: attribute conservatively to every area.
    bump_all_area_gens();
    return;
  }
  at(area).gen = ++area_gen_tick_;
  fabric_gen_seen_ = fabric_.generation();
}

void Platform::unload() {
  unbind_dock();
  for (Area& a : areas_) a.module.reset();
  active_area_ = -1;
}

void Platform::external_reset() {
  // Fabric configuration untouched: the configured circuits survive, their
  // flip-flop state restarts.
  icap_->reset();
  for (Area& a : areas_) {
    if (a.module) a.module->reset();
  }
}

std::vector<ResourceRow> Platform::resource_table() const {
  std::vector<ResourceRow> rows;
  for (const char* core : spec_.cpu_rows) {
    if (core != nullptr) rows.push_back({core, {}, /*hard_block=*/true});
  }
  rows.push_back({"JTAGPPC", jtag_.cost(), /*hard_block=*/true});
  rows.push_back({"PLB (64-bit) + arbiter", spec_.plb_cost, false});
  rows.push_back(
      {"OPB (32-bit) + arbiter", fabric::Resources{80, 120, 100, 0}, false});
  rows.push_back(
      {"PLB-OPB bridge", fabric::Resources{110, 170, 150, 0}, false});
  rows.push_back(
      {"BRAM memory controller (PLB)", bram_->controller_cost(), false});
  rows.push_back({spec_.memory_row, ext_mem_->controller_cost(), false});
  rows.push_back({"UART", uart_->cost(), false});
  if (gpio_) rows.push_back({"GPIO", gpio_->cost(), false});
  if (intc_) {
    rows.push_back(
        {"Interrupt controller (OPB)", intc_->controller_cost(), false});
  }
  rows.push_back({"Reset block", reset_block_.cost(), false});
  rows.push_back({"OPB HWICAP", icap_->controller_cost(), false});
  const fabric::Resources dock_cost =
      plb_dock_ ? plb_dock_->cost() : opb_dock_->cost();
  rows.push_back(
      {spec_.dock_row,
       dock_cost +
           busmacro::ConnectionInterface::for_width(dock_width()).resources(),
       false});
  return rows;
}

std::string Platform::topology() const {
  // One line per attached slave, in the bus order the constructor attaches
  // them; the bridge has no address of its own.
  const bool ddr = spec_.memory == SystemSpec::Memory::kDdrOnPlb;
  std::ostringstream os;
  const auto slave = [&](const char* label, const bus::AddressRange& r) {
    os << "    |- " << std::left << std::setw(25) << label << std::hex
       << r.base << std::dec << "\n";
  };
  os << spec_.title << "\n"
     << "  PPC405 @ " << spec_.cpu_mhz << " MHz" << spec_.cpu_note << "\n"
     << "  PLB @ " << spec_.bus_mhz << " MHz\n";
  if (ddr) slave(spec_.memory_label, spec_.memory_range);
  slave("BRAM controller", spec_.bram);
  if (plb_dock_) slave(spec_.dock_label, spec_.dock_range);
  os << "    |- PLB-OPB bridge\n"
     << "  OPB @ " << spec_.bus_mhz << " MHz\n";
  if (!ddr) slave(spec_.memory_label, spec_.memory_range);
  slave("UART", spec_.uart);
  if (gpio_) slave("GPIO (LEDs/buttons)", spec_.gpio);
  slave("OPB HWICAP -> ICAP", spec_.icap);
  if (intc_) slave("interrupt controller", spec_.intc);
  if (opb_dock_) slave(spec_.dock_label, spec_.dock_range);
  for (const Area& a : areas_) {
    const fabric::DynamicRegion& r = a.region;
    os << "  dynamic area";
    if (areas_.size() > 1) os << " (" << r.name() << ")";
    os << ": " << r.rect().cols << "x" << r.rect().rows << " CLBs, "
       << r.bram_blocks() << " BRAMs (" << r.slice_percent()
       << "% of slices)\n";
  }
  os << "  reset block, JTAGPPC\n";
  return os.str();
}

}  // namespace rtr
