// Per-iteration vs closed-form CPU loops. Every programmed-I/O driver, every
// software kernel (apps::sw_*, whose loops nest) and the DMA data
// preparation run their loops through cpu::run_periodic: untraced,
// iterations 2..n-1 are applied in closed form; with an enabled tracer
// every iteration runs through the CPU and bus models, the reference. Both
// must leave the same state: the call's result, now(), the full
// StatRegistry export, both buses' reservations and the memory the call
// writes. Cases cover every driver on the XC2VP7, the XC2VP30 and the
// XC2VP30's second area, at 0-6 iterations, the serving sizes and the paper
// tables' sizes; every software kernel on both systems at boundary lengths
// and geometries; and, at the serving sizes, buses reserved at the start,
// an unbound dock, the D-cache, quiet fault plans and a bus fault inside a
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/drivers.hpp"
#include "apps/sw_kernels.hpp"
#include "cpu/periodic_loop.hpp"
#include "fault/fault.hpp"
#include "rtr/plan_cache.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

/// One driver or kernel call: the circuit it drives, the seeded input bytes
/// it reads at `in` and `in_b` (each ANDed with `mask`), the memory it
/// writes, and the call, returning a digest of its result.
struct Case {
  std::string name;
  hw::BehaviorId module;
  std::size_t in_bytes = 0;
  bus::AddressRange written;
  std::function<std::uint64_t(cpu::Kernel&)> run;
  std::uint8_t mask = 0xFF;
};

/// Variations of the platform the driver starts on.
struct Setup {
  bool dcache = false;
  bool unbound = false;   // no circuit bound to the dock
  SimTime reserved{};     // both buses busy this long past the start
  std::vector<std::string> faults{};  // fault specs armed from construction
  bool repair_bus = false;  // repair the bus specs before the driver runs
};

/// The state both paths must leave behind.
struct Outcome {
  std::uint64_t result = 0;
  SimTime now;
  std::string stats;
  SimTime plb_busy_until;
  SimTime opb_busy_until;
  std::vector<std::uint8_t> written;
  std::int64_t bus_opportunities_at_start = 0;  // with a fault plan armed
  SimTime first_fault;  // the first injection, if any
};

void expect_same(const Outcome& ref, const Outcome& got) {
  EXPECT_EQ(got.result, ref.result);
  EXPECT_EQ(got.now, ref.now);
  EXPECT_EQ(got.stats, ref.stats);
  EXPECT_EQ(got.plb_busy_until, ref.plb_busy_until);
  EXPECT_EQ(got.opb_busy_until, ref.opb_busy_until);
  EXPECT_TRUE(got.written == ref.written) << "written memory differs";
  EXPECT_EQ(got.first_fault, ref.first_fault);
}

fault::FaultPlan plan_of(const std::vector<std::string>& specs) {
  fault::FaultPlan plan;
  for (const std::string& text : specs) {
    fault::FaultSpec spec;
    EXPECT_TRUE(fault::FaultSpec::parse(text, &spec)) << text;
    plan.add(spec);
  }
  return plan;
}

/// Plans that act on no single transaction: whole-device specs, and a bus
/// spec repaired before the driver runs.
std::vector<Setup> quiet_plans() {
  return {{.faults = {"fail_stop:once@0:1"}},
          {.faults = {"brownout:every@1:3"}},
          {.faults = {"bus:stuck@4000000000:5"}, .repair_bus = true}};
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001B3ull;
}

/// Where the drivers' data lives in external memory: the inputs start
/// 1 KiB below a 64 KiB page boundary, so block transfers cross pages.
struct Staging {
  explicit Staging(const SystemSpec& spec)
      : in(spec.config_staging - 0x0100'0000 + 0xFC00),
        in_b(in + 0x0040'0000),
        out(in + 0x0080'0000) {}
  Addr in, in_b, out;
};

/// Every driver at 0-6 loop iterations, the serving sizes of
/// serve::params_for (jenkins 2048 B, SHA-1 1024 B, 64x48 images) and the
/// sizes of Tables 2-5 and 7-12.
std::vector<Case> every_case(const SystemSpec& spec) {
  const auto [in, in_b, out] = Staging{spec};
  const Addr dock = spec.dock_data();
  std::vector<Case> cases;
  const auto add = [&](std::string name, hw::BehaviorId module,
                       std::size_t in_bytes, bus::AddressRange written,
                       std::function<std::uint64_t(cpu::Kernel&)> run) {
    cases.push_back({std::move(name), module, in_bytes, written,
                     std::move(run)});
  };
  const auto words = [](int n) { return static_cast<std::uint64_t>(n) * 4; };

  for (const int n : {0, 1, 2, 3, 4, 5, 6, 1024, 4096}) {
    const std::string sz = " n=" + std::to_string(n);
    add("pio_write_seq" + sz, hw::kLoopback, words(n), {},
        [=](cpu::Kernel& k) {
          return static_cast<std::uint64_t>(
              apps::pio_write_seq(k, in, dock, n).ps());
        });
    add("pio_read_seq" + sz, hw::kLoopback, 0, {out, words(n)},
        [=](cpu::Kernel& k) {
          return static_cast<std::uint64_t>(
              apps::pio_read_seq(k, out, dock, n).ps());
        });
    add("pio_interleaved_seq" + sz, hw::kLoopback, words(n),
        {in + words(n), words(n)}, [=](cpu::Kernel& k) {
          return static_cast<std::uint64_t>(
              apps::pio_interleaved_seq(k, in, dock, n).ps());
        });
  }
  for (const std::uint32_t len :
       {0u, 4u, 8u, 12u, 16u, 20u, 24u, 2048u, 64u, 256u, 1024u, 4096u,
        16384u}) {
    add("hw_jenkins_pio len=" + std::to_string(len), hw::kJenkinsHash, len,
        {}, [=](cpu::Kernel& k) {
          return std::uint64_t{apps::hw_jenkins_pio(k, dock, in, len)};
        });
  }
  for (const std::uint32_t len :
       {0u, 4u, 8u, 12u, 16u, 20u, 24u, 1024u, 64u, 256u, 8192u, 65536u}) {
    add("hw_sha1_pio len=" + std::to_string(len), hw::kSha1, len, {},
        [=](cpu::Kernel& k) {
          std::uint64_t h = 0;
          for (const std::uint32_t d : apps::hw_sha1_pio(k, dock, in, len)) {
            h = mix(h, d);
          }
          return h;
        });
  }
  for (const int n : {0, 4, 8, 12, 16, 20, 24, 64 * 48, 256 * 128}) {
    const std::string sz = " n=" + std::to_string(n);
    const auto bytes = static_cast<std::uint64_t>(n);
    add("hw_brightness_pio" + sz, hw::kBrightness, bytes, {out, bytes},
        [=](cpu::Kernel& k) {
          apps::hw_brightness_pio(k, dock, in, out, n, 60);
          return std::uint64_t{0};
        });
    add("hw_blend_pio" + sz, hw::kBlendAdd, bytes, {out, bytes},
        [=](cpu::Kernel& k) {
          apps::hw_blend_pio(k, dock, in, in_b, out, n);
          return std::uint64_t{0};
        });
    add("hw_fade_pio" + sz, hw::kFade, bytes, {out, bytes},
        [=](cpu::Kernel& k) {
          apps::hw_fade_pio(k, dock, in, in_b, out, n, 160);
          return std::uint64_t{0};
        });
  }
  // 0-6 image words (no window positions), 0-6 window positions, then
  // the serving and table geometries. The pattern sits at in_b.
  std::vector<std::pair<int, int>> geometries = {{0, 8}, {1, 8}, {2, 8},
                                                 {3, 8}};
  for (int w = 7; w <= 13; ++w) geometries.emplace_back(w, 8);
  for (const auto& wh :
       {std::pair{64, 48}, {128, 96}, {128, 128}, {256, 128}}) {
    geometries.push_back(wh);
  }
  for (const auto& [w, h] : geometries) {
    add("hw_pattern_match_pio " + std::to_string(w) + "x" + std::to_string(h),
        hw::kPatternMatcher, static_cast<std::size_t>(std::max(w * h, 64)),
        {},
        [=](cpu::Kernel& k) {
          const apps::MatchResult m =
              apps::hw_pattern_match_pio(k, dock, in, w, h, in_b);
          return mix(mix(static_cast<std::uint64_t>(m.best_count),
                         static_cast<std::uint64_t>(m.best_row)),
                     static_cast<std::uint64_t>(m.best_col));
        });
  }
  return cases;
}

/// Every software kernel, and the DMA data preparation, at boundary sizes
/// and the serving sizes. The kernels need no circuit; SHA-1's scratch (W[]
/// and two padding blocks, 448 bytes) sits at `out`.
std::vector<Case> software_cases(const SystemSpec& spec) {
  const auto [in, in_b, out] = Staging{spec};
  std::vector<Case> cases;
  const auto add = [&](std::string name, std::size_t in_bytes,
                       bus::AddressRange written,
                       std::function<std::uint64_t(cpu::Kernel&)> run,
                       std::uint8_t mask = 0xFF) {
    cases.push_back({std::move(name), hw::kLoopback, in_bytes, written,
                     std::move(run), mask});
  };

  // Every tail length with 0-6 whole blocks, then the serving size.
  std::vector<std::uint32_t> lengths;
  for (std::uint32_t len = 0; len <= 80; ++len) lengths.push_back(len);
  for (const std::uint32_t len : {1000u, 2048u, 16384u}) lengths.push_back(len);
  for (const std::uint32_t len : lengths) {
    add("sw_jenkins len=" + std::to_string(len), len, {},
        [=](cpu::Kernel& k) {
          return std::uint64_t{apps::sw_jenkins(k, in, len)};
        });
  }
  // Every len % 64 and both padding shapes with 0-4 whole blocks, then the
  // serving and table sizes.
  lengths.clear();
  for (std::uint32_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (const std::uint32_t len : {1000u, 1024u, 8192u, 65536u}) {
    lengths.push_back(len);
  }
  for (const std::uint32_t len : lengths) {
    add("sw_sha1 len=" + std::to_string(len), len, {out, 448},
        [=](cpu::Kernel& k) {
          std::uint64_t h = 0;
          for (const std::uint32_t d : apps::sw_sha1(k, in, len, out)) {
            h = mix(h, d);
          }
          return h;
        });
  }
  for (const int n : {0, 1, 2, 3, 4, 5, 6, 7, 64 * 48, 256 * 128}) {
    const std::string sz = " n=" + std::to_string(n);
    const auto bytes = static_cast<std::uint64_t>(n);
    add("sw_brightness" + sz, bytes, {out, bytes}, [=](cpu::Kernel& k) {
      apps::sw_brightness(k, in, out, n, 60);
      return std::uint64_t{0};
    });
    add("sw_blend" + sz, bytes, {out, bytes}, [=](cpu::Kernel& k) {
      apps::sw_blend(k, in, in_b, out, n);
      return std::uint64_t{0};
    });
    add("sw_fade" + sz, bytes, {out, bytes}, [=](cpu::Kernel& k) {
      apps::sw_fade(k, in, in_b, out, n, 160);
      return std::uint64_t{0};
    });
  }
  // n pixels are n / 4 beats: 0-1 beats, the 4-beat closed-form boundary,
  // then the serving and table sizes.
  for (const int n : {0, 1, 2, 3, 4, 5, 6, 7, 12, 16, 20, 64 * 48, 256 * 128}) {
    const auto bytes = static_cast<std::uint64_t>(n);
    add("dma_prepare_interleave n=" + std::to_string(n), bytes,
        {out, 2 * bytes}, [=](cpu::Kernel& k) {
          return static_cast<std::uint64_t>(
              apps::dma_prepare_interleave(k, in, in_b, out, n).ps());
        });
  }
  // No window, 1-7 rows and columns of windows, then the serving and table
  // geometries. Bilevel pixels (0 or 1) and pattern at in_b, so the best
  // window moves with the counts.
  std::vector<std::pair<int, int>> geometries = {{0, 8}, {7, 8}, {8, 7}};
  for (int w = 8; w <= 14; ++w) {
    for (int h = 8; h <= 14; ++h) geometries.emplace_back(w, h);
  }
  for (const auto& wh : {std::pair{37, 23}, {64, 48}, {128, 96}}) {
    geometries.push_back(wh);
  }
  for (const auto& [w, h] : geometries) {
    add("sw_pattern_match " + std::to_string(w) + "x" + std::to_string(h),
        static_cast<std::size_t>(std::max(w * h, 64)), {},
        [=](cpu::Kernel& k) {
          const apps::MatchResult m = apps::sw_pattern_match(k, in, w, h, in_b);
          return mix(mix(static_cast<std::uint64_t>(m.best_count),
                         static_cast<std::uint64_t>(m.best_row)),
                     static_cast<std::uint64_t>(m.best_col));
        },
        /*mask=*/1);
  }
  return cases;
}

/// One device layout under test: `spec`'s system with `areas` dynamic areas
/// and `area` active. Plans are pure in (behaviour, width, area), so one
/// planning platform's linker serves every case.
class Layout {
 public:
  Layout(const SystemSpec& spec, int areas, int area)
      : spec_(spec),
        areas_(areas),
        area_(area),
        planner_(spec, options(areas, false, nullptr)) {}

  /// `c` on a fresh platform, with every iteration through the models
  /// (`traced`) or in closed form where the runner allows it.
  Outcome run(const Case& c, bool traced, const Setup& setup = {}) {
    trace::Tracer tr;
    PlatformOptions opts = options(areas_, setup.dcache, &tr);
    opts.fault_plan = plan_of(setup.faults);
    Platform p{spec_, opts};
    if (!setup.unbound) load(p, c.module);
    if (setup.repair_bus) p.faults()->repair(fault::Site::kBus);
    sim::Rng rng{c.in_bytes + 1};
    std::vector<std::uint8_t> input(c.in_bytes);
    for (auto& b : input) b = rng.next_u8() & c.mask;
    const Staging st{spec_};
    p.ext_mem().poke_block(st.in, input);
    for (auto& b : input) b = rng.next_u8() & c.mask;
    p.ext_mem().poke_block(st.in_b, input);
    // Stale bytes where the call writes, so a write it skips shows.
    std::vector<std::uint8_t> stale(c.written.size);
    for (auto& b : stale) b = rng.next_u8();
    if (!stale.empty()) p.ext_mem().poke_block(c.written.base, stale);
    if (setup.reserved.ps() > 0) {
      p.cpu().plb().set_busy_until(p.kernel().now() + setup.reserved);
      p.opb().set_busy_until(p.kernel().now() + setup.reserved);
    }
    tr.enable(traced);
    tr.set_store_events(false);  // the reference needs the path, not events
    Outcome o;
    if (p.faults() != nullptr) {
      o.bus_opportunities_at_start = p.faults()->opportunities(fault::Site::kBus);
    }
    o.result = c.run(p.kernel());
    if (p.faults() != nullptr) o.first_fault = p.faults()->first_injection();
    o.now = p.kernel().now();
    std::ostringstream os;
    p.sim().stats().export_json(os);
    o.stats = os.str();
    o.plb_busy_until = p.cpu().plb().busy_until();
    o.opb_busy_until = p.opb().busy_until();
    o.written.resize(c.written.size);
    if (c.written.size > 0) p.ext_mem().peek_block(c.written.base, o.written);
    return o;
  }

  void expect_equivalent(const Case& c, const Setup& setup = {}) {
    SCOPED_TRACE(c.name);
    expect_same(run(c, /*traced=*/true, setup),
                run(c, /*traced=*/false, setup));
  }

 private:
  static PlatformOptions options(int areas, bool dcache,
                                 trace::Tracer* tracer) {
    PlatformOptions o;
    o.dynamic_areas = areas;
    o.enable_dcache = dcache;
    o.tracer = tracer;
    return o;
  }

  /// Bind `id`'s circuit in the area; loopback where `id` does not fit
  /// it (SHA-1 on the XC2VP7, the wide modules in the second area). The
  /// dock still sees every word.
  void load(Platform& p, hw::BehaviorId id) {
    std::string err;
    bool hit = false;
    const int width = spec_.system;
    const PlanCache::Plan* plan = plans_.complete(planner_.linker(area_), id,
                                                  width, &err, &hit, area_);
    if (plan == nullptr) {
      plan = plans_.complete(planner_.linker(area_), hw::kLoopback, width,
                             &err, &hit, area_);
    }
    ASSERT_NE(plan, nullptr) << err;
    ASSERT_TRUE(p.load_stream(plan->words, plan->payload_bytes,
                              /*differential=*/false, area_)
                    .ok);
    ASSERT_EQ(p.active_area(), area_);
  }

  const SystemSpec& spec_;
  int areas_;
  int area_;
  Platform planner_;
  PlanCache plans_;
};

void every_driver(const SystemSpec& spec, int areas, int area) {
  Layout layout(spec, areas, area);
  for (const Case& c : every_case(spec)) layout.expect_equivalent(c);
}

void every_software_kernel(const SystemSpec& spec) {
  Layout layout(spec, 1, 0);
  for (const Case& c : software_cases(spec)) layout.expect_equivalent(c);
}

/// One realistic-size call of each loop shape, for the variant cases.
std::vector<Case> serving_cases(const SystemSpec& spec) {
  std::vector<Case> out;
  for (std::vector<Case> cases : {every_case(spec), software_cases(spec)}) {
    for (Case& c : cases) {
      for (const char* name :
           {"pio_write_seq n=1024", "pio_read_seq n=1024",
            "hw_jenkins_pio len=2048", "hw_brightness_pio n=3072",
            "hw_fade_pio n=3072", "hw_pattern_match_pio 64x48",
            "sw_jenkins len=2048", "sw_sha1 len=1024",
            "sw_brightness n=3072", "sw_blend n=3072", "sw_fade n=3072",
            "dma_prepare_interleave n=3072", "sw_pattern_match 64x48"}) {
        if (c.name == name) out.push_back(std::move(c));
      }
    }
  }
  return out;
}

TEST(PioEquivalence, Platform32EveryDriver) {
  every_driver(SystemSpec::k32, 1, 0);
}
TEST(PioEquivalence, Platform64EveryDriver) {
  every_driver(SystemSpec::k64, 1, 0);
}
TEST(PioEquivalence, Platform64SecondAreaEveryDriver) {
  every_driver(SystemSpec::k64, 2, 1);
}
TEST(PioEquivalence, Platform32EverySoftwareKernel) {
  every_software_kernel(SystemSpec::k32);
}
TEST(PioEquivalence, Platform64EverySoftwareKernel) {
  every_software_kernel(SystemSpec::k64);
}

TEST(PioEquivalence, ReservedBusesAtTheStartMatch) {
  // A reservation left on the buses delays the first iterations; iteration
  // 0 absorbs it, or the runner falls back when iteration 1 still sees it.
  Layout l32(SystemSpec::k32, 1, 0);
  Layout l64(SystemSpec::k64, 1, 0);
  for (const SimTime r :
       {SimTime{37'000}, SimTime{210'000}, SimTime::from_us(1)}) {
    SCOPED_TRACE(r.ps());
    for (const Case& c : serving_cases(SystemSpec::k32)) {
      l32.expect_equivalent(c, {.reserved = r});
    }
    for (const Case& c : serving_cases(SystemSpec::k64)) {
      l64.expect_equivalent(c, {.reserved = r});
    }
  }
}

TEST(PioEquivalence, UnboundDockCountsEveryOrphan) {
  // With no circuit bound, every data word is an orphan access; the bulk
  // side's dock calls must count each one.
  Layout l32(SystemSpec::k32, 1, 0);
  Layout l64(SystemSpec::k64, 1, 0);
  for (const Case& c : serving_cases(SystemSpec::k32)) {
    l32.expect_equivalent(c, {.unbound = true});
  }
  for (const Case& c : serving_cases(SystemSpec::k64)) {
    l64.expect_equivalent(c, {.unbound = true});
  }
  const Outcome o = l64.run(serving_cases(SystemSpec::k64).front(),
                            /*traced=*/false, {.unbound = true});
  EXPECT_NE(o.stats.find("\"dock64.orphan_accesses\": 1024"),
            std::string::npos);
}

TEST(PioEquivalence, DcacheCasesMatch) {
  // Cacheable memory is a fallback: the cache model sees single accesses.
  // A loop that touches no memory (the matcher's result loop) still takes
  // the closed form.
  Layout l32(SystemSpec::k32, 1, 0);
  Layout l64(SystemSpec::k64, 1, 0);
  for (const Case& c : serving_cases(SystemSpec::k32)) {
    l32.expect_equivalent(c, {.dcache = true});
  }
  for (const Case& c : serving_cases(SystemSpec::k64)) {
    l64.expect_equivalent(c, {.dcache = true});
  }
}

TEST(PioEquivalence, QuietFaultPlansMatch) {
  // Whole-device specs and a repaired bus spec keep the closed form; the
  // bulk side's iterations still count their bus and ICAP opportunities
  // (fault.opportunities.* in the stats export).
  Layout l32(SystemSpec::k32, 1, 0);
  Layout l64(SystemSpec::k64, 1, 0);
  for (const auto& setup : quiet_plans()) {
    SCOPED_TRACE(setup.faults.front());
    for (const Case& c : serving_cases(SystemSpec::k32)) {
      l32.expect_equivalent(c, setup);
    }
    for (const Case& c : serving_cases(SystemSpec::k64)) {
      l64.expect_equivalent(c, setup);
    }
  }
}

void bus_fault_inside_the_loop(const SystemSpec& spec) {
  // bus:once@N with N inside the driver's loop: the loop runs every
  // iteration through the models and the fault fires at the transaction
  // it fires at in the reference.
  Layout layout(spec, 1, 0);
  for (const Case& c : serving_cases(spec)) {
    SCOPED_TRACE(c.name);
    const Outcome quiet =
        layout.run(c, /*traced=*/false, {.faults = {"fail_stop:once@0:1"}});
    const std::int64_t n = quiet.bus_opportunities_at_start + 301;
    const Setup setup{.faults = {"bus:once@" + std::to_string(n) + ":9"}};
    const Outcome ref = layout.run(c, /*traced=*/true, setup);
    const Outcome got = layout.run(c, /*traced=*/false, setup);
    expect_same(ref, got);
    EXPECT_EQ(ref.bus_opportunities_at_start, quiet.bus_opportunities_at_start);
    EXPECT_NE(ref.stats.find("\"fault.injected.bus\": 1"), std::string::npos);
    EXPECT_GT(ref.first_fault, SimTime{});
  }
}

TEST(PioEquivalence, BusFaultInsideTheLoopMatchesTheReference) {
  bus_fault_inside_the_loop(SystemSpec::k32);
  bus_fault_inside_the_loop(SystemSpec::k64);
}

TEST(PioEquivalence, ClosedFormEngagesOnlyUnderQuietPlans) {
  const bus::AddressRange src{Platform64::kConfigStaging, 40};
  const auto allowed = [&](const std::vector<std::string>& specs,
                           bool repair_bus) {
    PlatformOptions opts;
    opts.fault_plan = plan_of(specs);
    Platform64 p{opts};
    if (repair_bus) p.faults()->repair(fault::Site::kBus);
    return cpu::PeriodicReplay(p.kernel(), {.iterations = 10, .reads = {src}})
        .allowed();
  };
  EXPECT_TRUE(allowed({}, false));
  EXPECT_TRUE(allowed({"fail_stop:once@0:1"}, false));
  EXPECT_TRUE(allowed({"brownout:every@1:3"}, false));
  EXPECT_TRUE(allowed({"storage:once@0:1"}, false));
  EXPECT_TRUE(allowed({"bus:stuck@5:1", "fail_stop:stuck@0:1"}, true));
  for (const char* site : {"bus", "icap", "dma", "readback"}) {
    SCOPED_TRACE(site);
    EXPECT_FALSE(allowed({std::string(site) + ":every@1000:1"}, false));
    EXPECT_FALSE(allowed(
        {"fail_stop:once@0:1", std::string(site) + ":once@1000000:1"}, false));
  }
}

TEST(PioEquivalence, RunPeriodicHandsIterationsTwoOnToTheBulkSide) {
  // The closed form engages exactly when nothing observes single
  // iterations: an enabled tracer sends every iteration through the body.
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced);
    trace::Tracer tr;
    tr.enable(traced);
    PlatformOptions opts;
    opts.tracer = &tr;
    Platform64 p{opts};
    cpu::Kernel& k = p.kernel();
    std::vector<std::int64_t> per_word;
    std::int64_t first = -1, count = -1;
    const std::int64_t ran = cpu::run_periodic(
        k, {.iterations = 10, .reads = {bus::AddressRange{0x1000, 40}}},
        [&](std::int64_t i) {
          per_word.push_back(i);
          (void)k.lw(0x1000 + static_cast<Addr>(i) * 4);
          k.op(2);
        },
        [&](std::int64_t f, std::int64_t c) {
          first = f;
          count = c;
        });
    EXPECT_EQ(ran, 10);
    if (traced) {
      EXPECT_EQ(per_word.size(), 10u);
      EXPECT_EQ(count, -1);
    } else {
      EXPECT_EQ(per_word, (std::vector<std::int64_t>{0, 1}));
      EXPECT_EQ(first, 2);
      EXPECT_EQ(count, 8);
    }
  }
}

}  // namespace
}  // namespace rtr
