// The public platform API: the paper's two systems, fully assembled.
//
// Sections 3 and 4 describe one design read off one table; SystemSpec
// holds its two rows:
//
//   SystemSpec::k32 -- section 3: XC2VP7, CPU 200 MHz, PLB+OPB at 50 MHz,
//                32 MB SRAM and the dock on the OPB (behind the bridge),
//                OPB Dock, UART, GPIO, HWICAP, reset block, JTAGPPC.
//   SystemSpec::k64 -- section 4: XC2VP30, CPU 300 MHz, buses at 100 MHz,
//                512 MB DDR and the PLB Dock (DMA + output FIFO +
//                interrupt generator) on the PLB; UART, HWICAP and the
//                interrupt controller on the OPB; no GPIO.
//
// One Platform class builds either system from its spec. It owns the whole
// simulation and exposes the developer-facing operations: timed module
// loading through the ICAP (validated before any behaviour is bound: by
// re-walking the area's payload hash, or, for a clean load of a cached
// plan onto the image it assumes, by the plan's recorded verdict -- see
// load_plan), the dock addresses for programmed I/O, the DMA engine (when
// the spec has one), resource reports (tables 1 and 6) and topology dumps
// (figures 1/3/4). Platform32 and Platform64 name the two systems.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bitlinker/bitlinker.hpp"
#include "bus/bridge.hpp"
#include "bus/bus.hpp"
#include "cpu/intc.hpp"
#include "cpu/kernel.hpp"
#include "cpu/ppc405.hpp"
#include "dma/dma.hpp"
#include "dock/opb_dock.hpp"
#include "dock/plb_dock.hpp"
#include "fabric/dynamic_region.hpp"
#include "fault/fault.hpp"
#include "hw/library.hpp"
#include "icap/icap.hpp"
#include "mem/memory_slave.hpp"
#include "rtr/peripherals.hpp"
#include "rtr/plan_cache.hpp"
#include "sim/check.hpp"

namespace rtr {

/// Outcome of a timed module load.
struct ReconfigStats {
  bool ok = false;
  bool watchdog = false;  // aborted by the load deadline, not by the device
  std::string error;
  sim::SimTime started;
  sim::SimTime finished;
  std::int64_t stream_words = 0;  // bitstream words pushed through HWICAP
  std::int64_t config_bytes = 0;  // frame payload bytes
  bool rehashed = false;  // validation re-walked the area (region_validates)

  [[nodiscard]] sim::SimTime duration() const { return finished - started; }
};

/// One line of a resource-usage report (tables 1 and 6).
struct ResourceRow {
  std::string module;
  fabric::Resources res;
  bool hard_block = false;  // PPC405 / JTAGPPC: no fabric resources
};

/// One row of the paper's system table: everything the section 3 and
/// section 4 systems differ in. Exactly two exist, k32 and k64: a Key can
/// only be made by SystemSpec and nothing can copy one, so no caller can
/// assemble a third system.
struct SystemSpec {
  enum class Memory : std::uint8_t { kSramOnOpb, kDdrOnPlb };
  enum class Dock : std::uint8_t {
    kOpbSlave,  // 32-bit programmed I/O only
    kPlbMaster  // 64-bit, with DMA engine, output FIFO and interrupt controller
  };

  class Key {
    friend struct SystemSpec;
    constexpr Key() = default;

   public:
    Key(const Key&) = delete;
    Key& operator=(const Key&) = delete;
  };

  int system;  // 32 or 64: the CLI's --system and the dock width in bits
  const fabric::Device& (*device)();
  /// The device's area builder: the `n` co-resident dynamic areas, area 0
  /// the paper's region. Aborts when the device cannot host `n`.
  std::vector<fabric::DynamicRegion> (*areas)(int n);
  int max_areas;
  int cpu_mhz;
  int bus_mhz;
  Memory memory;
  // The memory map. An empty range means the system lacks the part.
  bus::AddressRange memory_range;  // external memory; also what the D-cache
                                   // may cache
  bus::AddressRange bram;
  bus::AddressRange bridge_window;
  bus::AddressRange uart;
  bus::AddressRange gpio;
  bus::AddressRange icap;
  bus::AddressRange intc;
  bus::AddressRange dock_range;
  /// Where prepared configurations live in external memory.
  bus::Addr config_staging;
  Dock dock;
  int dock_irq;  // interrupt line of the PLB dock / DMA completion
  // What the topology and the resource table print.
  const char* title;
  const char* cpu_note;
  const char* memory_label;
  const char* dock_label;
  std::array<const char*, 2> cpu_rows;  // null: no second core
  fabric::Resources plb_cost;
  const char* memory_row;
  const char* dock_row;
  Key key;

  static const SystemSpec k32;
  static const SystemSpec k64;
  /// The spec of system 32 or 64.
  static const SystemSpec& of(int system);

  [[nodiscard]] constexpr bool has_dma() const {
    return dock == Dock::kPlbMaster;
  }
  /// Dock data register (programmed I/O on either dock).
  [[nodiscard]] constexpr bus::Addr dock_data() const {
    return dock_range.base +
           (has_dma() ? dock::PlbDock::kPioData : dock::OpbDock::kDataReg);
  }
};

inline constexpr SystemSpec SystemSpec::k32{
    .system = 32,
    .device = fabric::Device::xc2vp7,
    .areas = fabric::DynamicRegion::xc2vp7_areas,
    .max_areas = fabric::DynamicRegion::kMaxAreasXc2vp7,
    .cpu_mhz = 200,
    .bus_mhz = 50,
    .memory = Memory::kSramOnOpb,
    .memory_range = {0x2000'0000, 32u << 20},
    .bram = {0x0000'0000, 16 << 10},
    .bridge_window = {0x2000'0000, 0x3000'0000},
    .uart = {0x4060'0000, 0x100},
    .gpio = {0x4080'0000, 0x100},
    .icap = {0x4100'0000, 0x1000},
    .intc = {},
    .dock_range = {0x4200'0000, 0x1'0000},
    .config_staging = 0x2000'0000 + (24u << 20),
    .dock = Dock::kOpbSlave,
    .dock_irq = -1,
    .title = "32-bit system (XC2VP7-FG456-6), figure 3",
    .cpu_note = "",
    .memory_label = "ext. SRAM (32 MB)",
    .dock_label = "OPB Dock",
    .cpu_rows = {"PPC405 core", nullptr},
    .plb_cost = {150, 230, 200, 0},
    .memory_row = "External SRAM controller (OPB)",
    .dock_row = "OPB Dock (incl. bus macros)",
    .key = {}};

inline constexpr SystemSpec SystemSpec::k64{
    .system = 64,
    .device = fabric::Device::xc2vp30,
    .areas = fabric::DynamicRegion::xc2vp30_areas,
    .max_areas = fabric::DynamicRegion::kMaxAreasXc2vp30,
    .cpu_mhz = 300,
    .bus_mhz = 100,
    .memory = Memory::kDdrOnPlb,
    .memory_range = {0x0000'0000, 512u << 20},
    .bram = {0x6000'0000, 16 << 10},
    .bridge_window = {0x4000'0000, 0x0200'0000},
    .uart = {0x4060'0000, 0x100},
    .gpio = {},
    .icap = {0x4100'0000, 0x1000},
    .intc = {0x4120'0000, 0x1000},
    .dock_range = {0x7400'0000, 0x1'0000},
    .config_staging = 0x0000'0000 + (256u << 20),
    .dock = Dock::kPlbMaster,
    .dock_irq = 2,
    .title = "64-bit system (XC2VP30-FF896-7), figure 4",
    .cpu_note = " (second core unused)",
    .memory_label = "DDR (512 MB)",
    .dock_label = "PLB Dock (DMA+FIFO+irq)",
    .cpu_rows = {"PPC405 core 0 (used)", "PPC405 core 1 (unused)"},
    .plb_cost = {170, 260, 220, 0},
    .memory_row = "DDR controller (PLB)",
    .dock_row = "PLB Dock (DMA + FIFO + irq, incl. bus macros)",
    .key = {}};

struct PlatformOptions {
  /// The embedded software of the modelled systems runs with the data cache
  /// disabled (the measured trends of the paper -- "the results follow the
  /// trends observed for the transfer times" -- require every software data
  /// access to pay the bus). Enable for the cache ablation study.
  bool enable_dcache = false;
  /// Output FIFO depth of the PLB dock (64-bit system only).
  int fifo_depth = dock::PlbDock::kDefaultFifoDepth;
  /// Scheduled faults along the reconfiguration path (storage, ICAP, DMA,
  /// bus, readback). See fault/fault.hpp for sites, triggers and seeding.
  fault::FaultPlan fault_plan;
  /// External tracer to record against (CLI --trace-out, benches, examples).
  /// When null the simulation uses its own disabled instance; the tracer
  /// must outlive the platform.
  trace::Tracer* tracer = nullptr;
  /// Co-resident dynamic areas the device exposes (docs/PLACEMENT.md).
  /// Area 0 is always the paper's region, so 1 models the paper's system
  /// exactly. At most the spec's max_areas: 2 on the XC2VP30; the XC2VP7
  /// has no column-disjoint room for a second area.
  int dynamic_areas = 1;
};

namespace detail {
/// Timed inner loop of the reconfiguration driver: the CPU fetches each
/// bitstream word from memory and stores it to the HWICAP data register.
/// A non-zero `deadline` arms the serving layer's watchdog: the loop checks
/// the clock between words and bails out once the deadline has passed.
/// Returns the number of words actually streamed (== `words` when the whole
/// bitstream went through). This per-word loop is the reference model.
std::int64_t icap_load_loop(cpu::Kernel& k, bus::Addr staging,
                            std::int64_t words, bus::Addr icap_data,
                            sim::SimTime deadline = {});
/// The same loop with the same result, simulated time and statistics, run
/// by cpu::run_periodic: words 2..n-1 in closed form when nothing observes
/// individual words (docs/PERFORMANCE.md, "Closed-form configuration
/// streaming"), the ICAP still fed every word. `words` must be the stream
/// staged at `staging`.
std::int64_t icap_load_bulk(cpu::Kernel& k,
                            std::span<const std::uint32_t> words,
                            bus::Addr staging, icap::IcapController& icap,
                            sim::SimTime deadline = {});
/// Signature + payload-hash validation: the reference walk every load
/// that is not a proven-exact plan load runs after the ICAP reports done.
bool region_validates(const fabric::ConfigMemory& cm,
                      const fabric::DynamicRegion& region, int* behavior_id);
/// Trace span + per-flavour byte counter for one finished reconfiguration.
void account_reconfig(sim::Simulation& sim, bool differential,
                      const ReconfigStats& stats);
}  // namespace detail

// ---------------------------------------------------------------------------

class Platform {
 public:
  explicit Platform(const SystemSpec& spec, PlatformOptions opts = {});
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] const SystemSpec& spec() const { return spec_; }
  /// The dock width in bits (32 or 64): what components are linked for.
  [[nodiscard]] int dock_width() const { return spec_.system; }
  [[nodiscard]] bool has_dma() const { return spec_.has_dma(); }
  [[nodiscard]] bus::Addr config_staging() const {
    return spec_.config_staging;
  }
  [[nodiscard]] bus::Addr dock_data() const { return spec_.dock_data(); }
  /// The PLB dock's 64-bit stream and FIFO-pop registers.
  [[nodiscard]] bus::Addr dock_stream() const {
    return spec_.dock_range.base + dock::PlbDock::kStream;
  }
  [[nodiscard]] bus::Addr dock_fifo() const {
    return spec_.dock_range.base + dock::PlbDock::kFifoPop;
  }

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] cpu::Ppc405& cpu() { return *cpu_; }
  [[nodiscard]] cpu::Kernel& kernel() { return *kernel_; }
  /// The OPB: the UART and the HWICAP sit on it on both systems.
  [[nodiscard]] bus::OpbBus& opb() { return opb_; }
  [[nodiscard]] mem::MemorySlave& ext_mem() { return *ext_mem_; }
  [[nodiscard]] Uart& uart() { return *uart_; }
  [[nodiscard]] icap::IcapController& icap_ctl() { return *icap_; }
  // Parts only one spec has; asking for a missing one aborts.
  [[nodiscard]] Gpio& gpio() {
    return *present(gpio_.get(), "this system has no GPIO");
  }
  [[nodiscard]] dock::PlbDock& plb_dock() {
    return *present(plb_dock_.get(), "this system has no PLB dock");
  }
  [[nodiscard]] cpu::InterruptController& intc() {
    return *present(intc_.get(), "this system has no interrupt controller");
  }
  [[nodiscard]] dma::DmaEngine& dma() {
    return *present(dma_.get(), "this system has no DMA engine");
  }
  /// `area`'s region and its BitLinker (relocation targets differ per area).
  [[nodiscard]] const fabric::DynamicRegion& region(int area = 0) const {
    return at(area).region;
  }
  [[nodiscard]] bitlinker::BitLinker& linker(int area = 0) {
    return at(area).linker;
  }
  [[nodiscard]] const fabric::ConfigMemory& fabric_state() const { return fabric_; }
  /// The armed fault injector, or null when the options carried no plan.
  [[nodiscard]] fault::FaultInjector* faults() { return faults_.get(); }

  /// Arm (or, with SimTime::zero(), disarm) a watchdog deadline for the
  /// following loads: a reconfiguration still streaming at `t` is aborted
  /// with a typed watchdog error instead of running to completion. The
  /// serving layer's defence against hung ICAP/DMA operations. The DMA
  /// load path honours the same deadline (checked at issue and at
  /// completion).
  void set_load_deadline(sim::SimTime t) { load_deadline_ = t; }

  /// Link `id`'s component against `area`'s BitLinker, stage its bitstream
  /// in external memory, stream it through the HWICAP with the CPU (timed),
  /// validate, and bind the behaviour to the dock. A successful load
  /// activates `area`.
  ReconfigStats load_module(hw::BehaviorId id, int area = 0);

  /// Load a raw partial configuration (e.g. a hand-built differential)
  /// into area 0. The behaviour is bound only when the resulting region
  /// carries a coherent signature and payload hash.
  ReconfigStats load_config(const bitstream::PartialConfig& cfg);

  /// Zero-copy streaming load of a pre-encoded ICAP word stream: same
  /// staging, watchdog, fault-injection and validation behaviour as
  /// load_config, without re-serialising -- and without copying the stream
  /// unless a fault plan has to mutate it. `config_bytes` and
  /// `differential` only feed accounting (the stats counters and the trace
  /// span flavour). `area` selects the dynamic area the stream targets (the
  /// caller must have linked it against that area's BitLinker); a
  /// successful load makes that area the active one.
  ReconfigStats load_stream(std::span<const std::uint32_t> words,
                            std::int64_t config_bytes, bool differential,
                            int area = 0);

  /// Load a cached plan into `area` (the ModuleManager's loads): as
  /// load_stream, or with `dma` by one DMA descriptor as load_module_dma
  /// does (on a spec without DMA, a typed error). The platform keeps, per
  /// area, the behaviour whose image a plan load last bound and the area
  /// generation then. A clean load -- no fault plan armed, the ICAP done --
  /// of a complete plan, or of a differential whose base that record names
  /// with the generation unmoved, leaves exactly the target's image
  /// (plan_cache.hpp), so it binds when the four signature words are the
  /// plan's, without re-walking the area. Every other load re-walks it
  /// (ReconfigStats::rehashed). A failed load clears its area's record; a
  /// raw load, whose stream may carry a valid signature over other content
  /// and write any area's columns, clears every area's. A PIO load that
  /// streams the plan's words in place (no fault plan armed, so nothing
  /// copies them) arms the ICAP with the plan's payload CRC states, so that
  /// each whole payload takes no CRC pass (IcapController::arm_payload_crcs).
  ReconfigStats load_plan(const PlanCache::Plan& plan, int area,
                          bool dma = false);

  /// Extension: DMA-driven reconfiguration. The scatter-gather engine
  /// streams the staged bitstream straight into the HWICAP data window
  /// (64-bit beats split by the bridge), freeing the CPU; completion is
  /// signalled by interrupt. Approaches the ICAP throughput bound. On a
  /// spec without DMA it returns a typed error and touches nothing.
  ReconfigStats load_module_dma(hw::BehaviorId id);

  /// Invalidate generation-tagged assumptions about the fabric (cached
  /// differential plans) without altering its content. Used by the
  /// ModuleManager on invalidate() and on fault detection. Also moves every
  /// area's generation: an external invalidation cannot be attributed to
  /// one area.
  void bump_fabric_generation() {
    fabric_.bump_generation();
    bump_all_area_gens();
  }

  /// Invalidate one area's generation tag. A failure during a load can
  /// only have touched the target area's columns (the stream is linked
  /// against that area's region; corrupted frame addresses are handled by
  /// the fault-aware attribution in note_fabric_write), so a co-resident
  /// area's differential base stays valid. The device-wide fabric
  /// generation still moves so complete-plan tags warmed before the
  /// failure are re-validated.
  void bump_area_generation(int area) {
    Area& a = at(area);
    fabric_.bump_generation();
    a.gen = ++area_gen_tick_;
    fabric_gen_seen_ = fabric_.generation();
  }

  // --- dynamic areas ------------------------------------------------------
  // With opts.dynamic_areas == 2 the XC2VP30 hosts the primary region and
  // the column-disjoint xc2vp30_region_b as independent dynamic areas
  // (section 4.1's "two separate dynamic areas"), each with its own
  // BitLinker, module slot and generation tag. One dock serves the device;
  // loading or activating an area re-binds it. See docs/PLACEMENT.md. The
  // XC2VP7 has one area, and its generation moves exactly when the fabric
  // generation does.
  [[nodiscard]] int area_count() const {
    return static_cast<int>(areas_.size());
  }
  [[nodiscard]] hw::HwModule* area_module(int area) {
    return at(area).module.get();
  }
  /// Area the dock is bound to; -1 right after a failed load (the dock
  /// unbinds before any fabric write and a failed load never re-binds).
  [[nodiscard]] int active_area() const { return active_area_; }
  /// Re-bind the dock to `area`'s already-resident module: bus-macro mux
  /// re-select plus a circuit reset -- a few CPU ops, no reconfiguration.
  void activate_area(int area);
  /// Per-area generation tag: moves when `area`'s columns may have been
  /// written (its own loads; any fabric write outside a load path, which
  /// cannot be attributed and conservatively moves every area). Cached
  /// differentials against this area validate against it, in the manager
  /// before one is chosen and in load_plan before its verdict is trusted.
  [[nodiscard]] std::uint64_t area_generation(int area) {
    sync_area_gens();
    return at(area).gen;
  }

  void unload();
  [[nodiscard]] hw::HwModule* active_module() {
    return active_area_ < 0 ? nullptr : area_module(active_area_);
  }

  /// External reset: CPU and peripherals restart; the fabric configuration
  /// -- and thus the loaded modules' circuits -- is untouched.
  void external_reset();

  [[nodiscard]] std::vector<ResourceRow> resource_table() const;
  [[nodiscard]] std::string topology() const;

 private:
  template <typename T>
  static T* present(T* part, const char* missing) {
    RTR_CHECK(part != nullptr, missing);
    return part;
  }

  /// The bus the external memory sits on: configurations stage through it.
  [[nodiscard]] bus::Bus& memory_bus();
  void bind_dock(hw::HwModule* m);
  void unbind_dock();
  /// The DMA loads' typed error on a spec without DMA: touches nothing.
  [[nodiscard]] ReconfigStats no_dma();
  ReconfigStats link_and_load(hw::BehaviorId id, int area, bool dma);
  /// The one load path every load ends in; `plan` is null for the raw
  /// loads. See platform.cpp.
  ReconfigStats stream_load(std::span<const std::uint32_t> words,
                            std::int64_t config_bytes, bool differential,
                            int area, bool dma,
                            const PlanCache::Plan* plan = nullptr);

  const SystemSpec& spec_;
  PlatformOptions opts_;
  sim::Simulation sim_;
  std::unique_ptr<fault::FaultInjector> faults_;
  sim::Clock& cpu_clk_;
  sim::Clock& bus_clk_;
  bus::PlbBus plb_;
  bus::OpbBus opb_;
  std::unique_ptr<bus::PlbOpbBridge> bridge_;
  std::unique_ptr<mem::MemorySlave> bram_;
  std::unique_ptr<mem::MemorySlave> ext_mem_;
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<Gpio> gpio_;
  fabric::ConfigMemory fabric_;
  std::unique_ptr<icap::IcapController> icap_;
  std::unique_ptr<cpu::InterruptController> intc_;
  std::unique_ptr<dock::OpbDock> opb_dock_;
  std::unique_ptr<dock::PlbDock> plb_dock_;
  std::unique_ptr<dma::DmaEngine> dma_;
  hw::BehaviorRegistry registry_;
  std::unique_ptr<cpu::Ppc405> cpu_;
  std::unique_ptr<cpu::Kernel> kernel_;
  sim::SimTime load_deadline_{};
  ResetBlock reset_block_;
  JtagPpc jtag_;

  /// One dynamic area. The linker points at `region`, so areas_ is
  /// reserved once and never reallocates.
  struct Area {
    Area(const fabric::DynamicRegion& r, const fabric::ConfigMemory& baseline,
         int dock_width);
    fabric::DynamicRegion region;
    bitlinker::BitLinker linker;
    std::unique_ptr<hw::HwModule> module;
    std::uint64_t gen = 0;  // see area_generation
    // The behaviour whose image a plan load last proved the area holds
    // (-1: none), and `gen` at that moment. See load_plan.
    int proven = -1;
    std::uint64_t proven_gen = 0;
  };
  [[nodiscard]] const Area& at(int area) const {
    RTR_CHECK(area >= 0 && area < area_count(), "bad area index");
    return areas_[static_cast<std::size_t>(area)];
  }
  [[nodiscard]] Area& at(int area) {
    return const_cast<Area&>(std::as_const(*this).at(area));
  }
  void bump_all_area_gens() {
    for (Area& a : areas_) a.gen = ++area_gen_tick_;
    fabric_gen_seen_ = fabric_.generation();
  }
  /// Attribute fabric writes since the last load path to `area` (or to all
  /// areas when a fault plan may have corrupted frame addressing).
  void note_fabric_write(int area);
  /// Fold in writes that happened outside any load path: they cannot be
  /// attributed to one area, so every area's generation moves.
  void sync_area_gens() {
    if (fabric_.generation() != fabric_gen_seen_) bump_all_area_gens();
  }
  std::vector<Area> areas_;
  int active_area_ = 0;
  std::uint64_t area_gen_tick_ = 0;
  std::uint64_t fabric_gen_seen_ = 0;
};

// The two systems by name. Each only passes its spec; the static members
// are views of that spec's memory map, for code that knows its system at
// compile time.

class Platform32 final : public Platform {
 public:
  static constexpr const SystemSpec& kSpec = SystemSpec::k32;
  static constexpr bus::AddressRange kSramRange = kSpec.memory_range;
  static constexpr bus::AddressRange kIcapRange = kSpec.icap;

  explicit Platform32(PlatformOptions opts = {})
      : Platform(kSpec, std::move(opts)) {}

  [[nodiscard]] static constexpr bus::Addr dock_data() {
    return kSpec.dock_data();
  }
};

class Platform64 final : public Platform {
 public:
  static constexpr const SystemSpec& kSpec = SystemSpec::k64;
  static constexpr bus::AddressRange kDdrRange = kSpec.memory_range;
  static constexpr bus::AddressRange kIcapRange = kSpec.icap;
  static constexpr bus::Addr kConfigStaging = kSpec.config_staging;
  static constexpr int kDockIrq = kSpec.dock_irq;

  explicit Platform64(PlatformOptions opts = {})
      : Platform(kSpec, std::move(opts)) {}

  [[nodiscard]] static constexpr bus::Addr dock_data() {
    return kSpec.dock_data();
  }
  [[nodiscard]] static constexpr bus::Addr dock_stream() {
    return kSpec.dock_range.base + dock::PlbDock::kStream;
  }
  [[nodiscard]] static constexpr bus::Addr dock_fifo() {
    return kSpec.dock_range.base + dock::PlbDock::kFifoPop;
  }
};

}  // namespace rtr
