#include "rtr/platform.hpp"

#include <bit>
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

namespace {

/// Stage a serialised stream in memory, drive it through the HWICAP with
/// the CPU, validate the region and bind the behaviour. Shared by the
/// component loads, the raw-configuration loads and the cached-plan
/// streaming loads. The span is read in place (cached word streams are
/// staged without a host-side copy); only an armed fault plan -- which has
/// to mutate the staged words -- forces a local copy.
template <typename Dock>
void stream_and_bind(std::span<const std::uint32_t> words, bus::Bus& mem_bus,
                     Addr staging, icap::IcapController& icap,
                     cpu::Kernel& kernel,
                     const fabric::ConfigMemory& fabric_state,
                     const fabric::DynamicRegion& region,
                     const hw::BehaviorRegistry& registry, Dock& dock,
                     std::unique_ptr<hw::HwModule>& slot,
                     ReconfigStats& stats, sim::SimTime deadline) {
  stats.stream_words = static_cast<std::int64_t>(words.size());
  std::vector<std::uint32_t> faulted;  // copy-on-fault only
  if (fault::FaultInjector* fi = mem_bus.simulation().faults()) {
    faulted.assign(words.begin(), words.end());
    fi->corrupt_staged(faulted, kernel.now());
    words = faulted;
  }

  // Configurations are prepared offline and already resident in external
  // memory (as in the paper's flow); staging them is a host operation.
  stage_words(mem_bus, staging, words);

  // Unbind before touching the fabric: the circuit is about to disappear.
  dock.unbind();
  slot.reset();

  const Addr icap_base = icap.range().base;
  cpu::Ppc405& cpu = kernel.cpu();
  // Reset the ICAP state machine.
  cpu.store32(icap_base + icap::IcapController::kControlReg, 1);
  const std::int64_t streamed =
      detail::icap_load_bulk(kernel, words, staging, icap, deadline);
  if (streamed < stats.stream_words) {
    // Watchdog abort: the partial stream never reaches the done state; the
    // next load's ICAP reset discards it.
    stats.finished = kernel.now();
    stats.watchdog = true;
    stats.error = "watchdog: load deadline expired after " +
                  std::to_string(streamed) + "/" +
                  std::to_string(stats.stream_words) + " words";
    return;
  }
  const std::uint32_t status =
      cpu.load32(icap_base + icap::IcapController::kStatusReg);
  stats.finished = kernel.now();

  if (!(status & icap::IcapController::kStatusDone)) {
    stats.error = "ICAP did not complete (CRC or protocol error)";
    return;
  }
  int bound_id = -1;
  if (!detail::region_validates(fabric_state, region, &bound_id)) {
    stats.error = "region signature/payload validation failed";
    return;
  }
  auto module = registry.create(bound_id);
  if (!module) {
    stats.error = "no behavioural model registered for id " +
                  std::to_string(bound_id);
    return;
  }
  slot = std::move(module);
  dock.bind(slot.get());
  stats.ok = true;
}

/// The timed component load: link `id`'s component against `linker`'s area,
/// then hand the serialised stream to `load_stream(words, config_bytes)`
/// (the platform's own load_stream or load_stream_dma for that area).
/// Linking and serialising take no simulated time, so the stream starts at
/// the load's start. A link error returns before anything is staged or
/// accounted.
template <typename LoadStream>
ReconfigStats do_load(hw::BehaviorId id, int dock_width,
                      bitlinker::BitLinker& linker, SimTime now,
                      LoadStream&& load_stream) {
  const auto linked = linker.link_single(hw::component_for(id, dock_width));
  if (!linked.ok()) {
    ReconfigStats stats;
    stats.error = linked.errors.front();
    stats.started = stats.finished = now;
    return stats;
  }
  const auto words = bitstream::serialize(*linked.config);
  return load_stream(std::span<const std::uint32_t>{words},
                     linked.stats.payload_bytes);
}

/// The CPU-driven streaming load every non-DMA load of both platforms ends
/// in: stream_and_bind, then account the reconfiguration.
template <typename Dock>
ReconfigStats do_load_stream(std::span<const std::uint32_t> words,
                             std::int64_t config_bytes, bool differential,
                             bus::Bus& mem_bus, Addr staging,
                             icap::IcapController& icap, cpu::Kernel& kernel,
                             const fabric::ConfigMemory& fabric_state,
                             const fabric::DynamicRegion& region,
                             const hw::BehaviorRegistry& registry, Dock& dock,
                             std::unique_ptr<hw::HwModule>& slot,
                             sim::SimTime deadline) {
  ReconfigStats stats;
  stats.started = kernel.now();
  stats.config_bytes = config_bytes;
  stream_and_bind(words, mem_bus, staging, icap, kernel, fabric_state, region,
                  registry, dock, slot, stats, deadline);
  detail::account_reconfig(mem_bus.simulation(), differential, stats);
  return stats;
}

}  // namespace

// --- Platform32 ----------------------------------------------------------------

Platform32::Platform32(PlatformOptions opts)
    : opts_(opts),
      faults_(arm_faults(opts_, sim_)),
      cpu_clk_(sim_.add_clock("cpu", Frequency::from_mhz(200))),
      bus_clk_(sim_.add_clock("bus", Frequency::from_mhz(50))),
      plb_(sim_, bus_clk_),
      opb_(sim_, bus_clk_),
      region_(fabric::DynamicRegion::xc2vp7_region()),
      fabric_(region_.device()),
      baseline_(region_.device()),
      registry_(hw::standard_registry(hw::bram_bits(region_.bram_blocks()))) {
  RTR_CHECK(opts_.dynamic_areas == 1,
            "the XC2VP7 hosts a single dynamic area (its strip already "
            "spans every BRAM-reachable column; use the 64-bit system)");
  if (opts_.tracer) sim_.attach_tracer(*opts_.tracer);
  bridge_ = std::make_unique<bus::PlbOpbBridge>(opb_);
  bram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::bram_on_plb(kBramRange, bus_clk_, 8));
  sram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::sram_on_opb(kSramRange, bus_clk_));
  uart_ = std::make_unique<Uart>(bus_clk_, kUartRange);
  gpio_ = std::make_unique<Gpio>(bus_clk_, kGpioRange);
  icap_ = std::make_unique<icap::IcapController>(sim_, bus_clk_, kIcapRange,
                                                 fabric_);
  dock_ = std::make_unique<dock::OpbDock>(sim_, bus_clk_, kDockRange);
  linker_ = std::make_unique<bitlinker::BitLinker>(
      region_, busmacro::ConnectionInterface::for_width(32), baseline_);

  plb_.attach(kBramRange, *bram_);
  plb_.attach(kBridgeWindow, *bridge_);
  opb_.attach(kSramRange, *sram_);
  opb_.attach(kUartRange, *uart_);
  opb_.attach(kGpioRange, *gpio_);
  opb_.attach(kIcapRange, *icap_);
  opb_.attach(kDockRange, *dock_);

  std::vector<bus::AddressRange> cacheable;
  if (opts_.enable_dcache) cacheable.push_back(kSramRange);
  cpu_ = std::make_unique<cpu::Ppc405>(
      sim_, cpu_clk_, plb_, std::move(cacheable),
      cpu::Ppc405Params{.freq = Frequency::from_mhz(200)});
  kernel_ = std::make_unique<cpu::Kernel>(*cpu_);
}

ReconfigStats Platform32::load_module(hw::BehaviorId id) {
  return do_load(id, 32, *linker_, kernel_->now(),
                 [&](auto words, std::int64_t config_bytes) {
                   return load_stream(words, config_bytes,
                                      /*differential=*/false);
                 });
}

ReconfigStats Platform32::load_config(const bitstream::PartialConfig& cfg) {
  const auto words = bitstream::serialize(cfg);
  return load_stream(words, cfg.payload_bytes(),
                     /*differential=*/!cfg.is_complete_for(region_));
}

ReconfigStats Platform32::load_stream(std::span<const std::uint32_t> words,
                                      std::int64_t config_bytes,
                                      bool differential, int area) {
  check_area(area);
  return do_load_stream(words, config_bytes, differential, opb_,
                        kConfigStaging, *icap_, *kernel_, fabric_, region_,
                        registry_, *dock_, module_, load_deadline_);
}

void Platform32::unload() {
  dock_->unbind();
  module_.reset();
}

void Platform32::external_reset() {
  // Fabric configuration untouched: the configured circuit survives, its
  // flip-flop state restarts.
  icap_->reset();
  if (module_) module_->reset();
}

std::vector<ResourceRow> Platform32::resource_table() const {
  const auto dock_if = busmacro::ConnectionInterface::for_width(32);
  return {
      {"PPC405 core", {}, /*hard_block=*/true},
      {"JTAGPPC", jtag_.cost(), /*hard_block=*/true},
      {"PLB (64-bit) + arbiter", fabric::Resources{150, 230, 200, 0}, false},
      {"OPB (32-bit) + arbiter", fabric::Resources{80, 120, 100, 0}, false},
      {"PLB-OPB bridge", fabric::Resources{110, 170, 150, 0}, false},
      {"BRAM memory controller (PLB)", bram_->controller_cost(), false},
      {"External SRAM controller (OPB)", sram_->controller_cost(), false},
      {"UART", uart_->cost(), false},
      {"GPIO", gpio_->cost(), false},
      {"Reset block", reset_block_.cost(), false},
      {"OPB HWICAP", icap_->controller_cost(), false},
      {"OPB Dock (incl. bus macros)", dock_->cost() + dock_if.resources(),
       false},
  };
}

std::string Platform32::topology() const {
  std::ostringstream os;
  os << "32-bit system (XC2VP7-FG456-6), figure 3\n"
     << "  PPC405 @ 200 MHz\n"
     << "  PLB @ 50 MHz\n"
     << "    |- BRAM controller          " << std::hex << kBramRange.base
     << "\n"
     << "    |- PLB-OPB bridge\n"
     << "  OPB @ 50 MHz\n"
     << "    |- ext. SRAM (32 MB)        " << kSramRange.base << "\n"
     << "    |- UART                     " << kUartRange.base << "\n"
     << "    |- GPIO (LEDs/buttons)      " << kGpioRange.base << "\n"
     << "    |- OPB HWICAP -> ICAP       " << kIcapRange.base << "\n"
     << "    |- OPB Dock                 " << kDockRange.base << std::dec
     << "\n"
     << "  dynamic area: " << region_.rect().cols << "x" << region_.rect().rows
     << " CLBs, " << region_.bram_blocks() << " BRAMs ("
     << region_.slice_percent() << "% of slices)\n"
     << "  reset block, JTAGPPC\n";
  return os.str();
}

// --- Platform64 -----------------------------------------------------------------

Platform64::Platform64(PlatformOptions opts)
    : opts_(opts),
      faults_(arm_faults(opts_, sim_)),
      cpu_clk_(sim_.add_clock("cpu", Frequency::from_mhz(300))),
      bus_clk_(sim_.add_clock("bus", Frequency::from_mhz(100))),
      plb_(sim_, bus_clk_),
      opb_(sim_, bus_clk_),
      fabric_(fabric::Device::xc2vp30()),
      baseline_(fabric::Device::xc2vp30()),
      // Task components own at most the 6 BRAMs they were designed with on
      // the 32-bit system -- they are reused unmodified (section 4.2).
      registry_(hw::standard_registry(hw::bram_bits(6))) {
  if (opts_.tracer) sim_.attach_tracer(*opts_.tracer);
  bridge_ = std::make_unique<bus::PlbOpbBridge>(opb_);
  bram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::bram_on_plb(kBramRange, bus_clk_, 8));
  ddr_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::ddr_on_plb(kDdrRange, bus_clk_));
  uart_ = std::make_unique<Uart>(bus_clk_, kUartRange);
  icap_ = std::make_unique<icap::IcapController>(sim_, bus_clk_, kIcapRange,
                                                 fabric_);
  intc_ = std::make_unique<cpu::InterruptController>(bus_clk_, kIntcRange);
  dock_ = std::make_unique<dock::PlbDock>(sim_, bus_clk_, kDockRange,
                                          opts_.fifo_depth);
  dock_->set_irq(intc_.get(), kDockIrq);
  dma_ = std::make_unique<dma::DmaEngine>(sim_, plb_);

  // The dynamic areas, the primary region first. xc2vp30_areas() checks the
  // count and the pairwise column-disjointness that lets the areas
  // reconfigure independently. Each area's linker points at its region:
  // reserve once so the emplace_backs cannot reallocate under them.
  const auto regions =
      fabric::DynamicRegion::xc2vp30_areas(opts_.dynamic_areas);
  areas_.reserve(regions.size());
  for (const fabric::DynamicRegion& r : regions) {
    areas_.emplace_back(r, baseline_);
  }

  plb_.attach(kDdrRange, *ddr_);
  plb_.attach(kBramRange, *bram_);
  plb_.attach(kDockRange, *dock_);
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

Platform64::Area::Area(const fabric::DynamicRegion& r,
                       const fabric::ConfigMemory& baseline)
    : region(r),
      linker(region, busmacro::ConnectionInterface::for_width(64), baseline) {}

ReconfigStats Platform64::load_module(hw::BehaviorId id, int area) {
  return do_load(id, 64, linker(area), kernel_->now(),
                 [&](auto words, std::int64_t config_bytes) {
                   return load_stream(words, config_bytes,
                                      /*differential=*/false, area);
                 });
}

ReconfigStats Platform64::load_config(const bitstream::PartialConfig& cfg) {
  const auto words = bitstream::serialize(cfg);
  return load_stream(words, cfg.payload_bytes(),
                     /*differential=*/!cfg.is_complete_for(region()));
}

ReconfigStats Platform64::load_stream(std::span<const std::uint32_t> words,
                                      std::int64_t config_bytes,
                                      bool differential, int area) {
  Area& a = at(area);
  sync_area_gens();
  const ReconfigStats stats = do_load_stream(
      words, config_bytes, differential, plb_, kConfigStaging, *icap_,
      *kernel_, fabric_, a.region, registry_, *dock_, a.module,
      load_deadline_);
  note_fabric_write(area);
  // The dock unbinds before the fabric is touched and only a successful
  // load re-binds, so on failure no area is active.
  active_area_ = stats.ok ? area : -1;
  return stats;
}

void Platform64::activate_area(int area) {
  Area& a = at(area);
  if (area == active_area_) return;
  RTR_CHECK(a.module != nullptr, "activate_area: area hosts no module");
  // Cross-area activation: re-select the dock's bus-macro mux and let the
  // target circuit reset (bind() resets it) -- a register write plus
  // settle, orders of magnitude below any reconfiguration.
  kernel_->op(8);
  dock_->unbind();
  dock_->bind(a.module.get());
  active_area_ = area;
}

void Platform64::note_fabric_write(int area) {
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

ReconfigStats Platform64::load_module_dma(hw::BehaviorId id) {
  return do_load(id, 64, linker(), kernel_->now(),
                 [&](auto words, std::int64_t config_bytes) {
                   return load_stream_dma(words, config_bytes,
                                          /*differential=*/false);
                 });
}

ReconfigStats Platform64::load_stream_dma(std::span<const std::uint32_t> words,
                                          std::int64_t config_bytes,
                                          bool differential, int area) {
  Area& a = at(area);
  sync_area_gens();
  ReconfigStats stats;
  stats.started = kernel_->now();
  stats.config_bytes = config_bytes;
  if (load_deadline_.ps() > 0 && stats.started >= load_deadline_) {
    // Aborted before the dock unbinds or the fabric is touched: whatever
    // circuit was active stays active.
    stats.finished = stats.started;
    stats.watchdog = true;
    stats.error = "watchdog: load deadline already expired at DMA issue";
    detail::account_reconfig(sim_, differential, stats);
    return stats;
  }
  // Every exit past the unbind below goes through here: the dock re-binds
  // only on success, so on failure no area is active.
  const auto finish = [&]() -> ReconfigStats {
    note_fabric_write(area);
    active_area_ = stats.ok ? area : -1;
    detail::account_reconfig(sim_, differential, stats);
    return stats;
  };

  // The 64-bit DMA engine moves whole beats: an odd word count needs a pad
  // word, and an armed fault plan mutates the staged stream -- both force a
  // local copy. Even-sized fault-free streams (every cached plan, padded at
  // build time or naturally even) go straight from the span to staging.
  std::vector<std::uint32_t> local;
  if (words.size() % 2 != 0 || faults_ != nullptr) {
    local.assign(words.begin(), words.end());
    if (local.size() % 2 != 0) local.push_back(bitstream::kDummyWord);
    if (faults_) faults_->corrupt_staged(local, kernel_->now());
    words = local;
  }
  stats.stream_words = static_cast<std::int64_t>(words.size());
  stage_words(plb_, kConfigStaging, words);

  dock_->unbind();
  a.module.reset();

  cpu_->store32(kIcapRange.base + icap::IcapController::kControlReg, 1);
  // One scatter-gather descriptor: staging -> HWICAP data window (fixed
  // destination; the bridge splits each 64-bit beat into two data words).
  kernel_->op(30);  // descriptor setup
  const dma::DmaDescriptor d{kConfigStaging,
                             kIcapRange.base + icap::IcapController::kDataReg,
                             static_cast<std::uint64_t>(words.size()) * 4,
                             true, false};
  const sim::SimTime done = dma_->run_one(d, kernel_->now());
  if (load_deadline_.ps() > 0 && done > load_deadline_) {
    // The completion interrupt would arrive after the deadline: the watchdog
    // fires instead, the CPU abandons the wait and the partial stream is
    // discarded by the next load's ICAP reset.
    cpu_->idle_until(load_deadline_);
    stats.finished = kernel_->now();
    stats.watchdog = true;
    stats.error = "watchdog: DMA reconfiguration missed the load deadline";
    return finish();
  }
  dock_->signal_done(done);
  cpu_->take_interrupt(intc_->assertion_time(kDockIrq));
  (void)cpu_->load32(kIntcRange.base + cpu::InterruptController::kStatusReg);
  cpu_->store32(kIntcRange.base + cpu::InterruptController::kAckReg,
                1u << kDockIrq);
  intc_->clear(kDockIrq);

  const std::uint32_t status =
      cpu_->load32(kIcapRange.base + icap::IcapController::kStatusReg);
  stats.finished = kernel_->now();
  if (!(status & icap::IcapController::kStatusDone)) {
    stats.error = "ICAP did not complete (CRC or protocol error)";
    return finish();
  }
  int bound_id = -1;
  if (!detail::region_validates(fabric_, a.region, &bound_id)) {
    stats.error = "region signature/payload validation failed";
    return finish();
  }
  auto module = registry_.create(bound_id);
  if (!module) {
    stats.error = "no behavioural model registered for id " +
                  std::to_string(bound_id);
    return finish();
  }
  a.module = std::move(module);
  dock_->bind(a.module.get());
  stats.ok = true;
  return finish();
}

void Platform64::unload() {
  dock_->unbind();
  for (Area& a : areas_) a.module.reset();
  active_area_ = -1;
}

void Platform64::external_reset() {
  icap_->reset();
  for (Area& a : areas_) {
    if (a.module) a.module->reset();
  }
}

std::vector<ResourceRow> Platform64::resource_table() const {
  const auto dock_if = busmacro::ConnectionInterface::for_width(64);
  return {
      {"PPC405 core 0 (used)", {}, /*hard_block=*/true},
      {"PPC405 core 1 (unused)", {}, /*hard_block=*/true},
      {"JTAGPPC", jtag_.cost(), /*hard_block=*/true},
      {"PLB (64-bit) + arbiter", fabric::Resources{170, 260, 220, 0}, false},
      {"OPB (32-bit) + arbiter", fabric::Resources{80, 120, 100, 0}, false},
      {"PLB-OPB bridge", fabric::Resources{110, 170, 150, 0}, false},
      {"BRAM memory controller (PLB)", bram_->controller_cost(), false},
      {"DDR controller (PLB)", ddr_->controller_cost(), false},
      {"UART", uart_->cost(), false},
      {"Interrupt controller (OPB)", intc_->controller_cost(), false},
      {"Reset block", reset_block_.cost(), false},
      {"OPB HWICAP", icap_->controller_cost(), false},
      {"PLB Dock (DMA + FIFO + irq, incl. bus macros)",
       dock_->cost() + dock_if.resources(), false},
  };
}

std::string Platform64::topology() const {
  std::ostringstream os;
  os << "64-bit system (XC2VP30-FF896-7), figure 4\n"
     << "  PPC405 @ 300 MHz (second core unused)\n"
     << "  PLB @ 100 MHz\n"
     << "    |- DDR (512 MB)             " << std::hex << kDdrRange.base
     << "\n"
     << "    |- BRAM controller          " << kBramRange.base << "\n"
     << "    |- PLB Dock (DMA+FIFO+irq)  " << kDockRange.base << "\n"
     << "    |- PLB-OPB bridge\n"
     << "  OPB @ 100 MHz\n"
     << "    |- UART                     " << kUartRange.base << "\n"
     << "    |- OPB HWICAP -> ICAP       " << kIcapRange.base << "\n"
     << "    |- interrupt controller     " << kIntcRange.base << std::dec
     << "\n";
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
