// Host-performance microbenchmarks (google-benchmark): how fast the
// simulator itself executes its primitives. These guard against
// performance regressions in the simulation substrate -- the table benches
// above measure *simulated* time, this binary measures *host* time. CI
// gates eighteen of them against the baselines in BENCH_microbench.json
// (docs/PERFORMANCE.md "Recorded baselines" says how to re-record them).
#include <benchmark/benchmark.h>

#include <utility>

#include "apps/drivers.hpp"
#include "apps/memio.hpp"
#include "bench/common.hpp"
#include "bitstream/partial_config.hpp"
#include "fabric/config_memory.hpp"
#include "mem/sparse_memory.hpp"
#include "rtr/manager.hpp"
#include "rtr/plan_cache.hpp"
#include "rtr/platform.hpp"
#include "rtr/readback.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/server.hpp"

using namespace rtr;

// 64 KB round-trip through SparseMemory, deliberately page-straddling.
static void BM_SparseMemoryBlockCopy(benchmark::State& state) {
  mem::SparseMemory m{1u << 20};
  std::vector<std::uint8_t> in(64 * 1024, 0x5A);
  std::vector<std::uint8_t> out(in.size());
  for (auto _ : state) {
    m.write_block(1000, in);
    m.read_block(1000, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * in.size()));
}
BENCHMARK(BM_SparseMemoryBlockCopy);

// diff_frames between two device states differing in a handful of frames:
// the ModuleManager's differential-reconfiguration decision.
static void BM_ConfigMemoryIncrementalDiff(benchmark::State& state) {
  fabric::ConfigMemory a{fabric::Device::xc2vp30()};
  fabric::ConfigMemory b{fabric::Device::xc2vp30()};
  const std::uint32_t patch[4] = {1, 2, 3, 4};
  for (int maj = 0; maj < 4; ++maj) {
    b.write_words(fabric::FrameAddress{fabric::ColumnType::kClb, maj, 0}, 2,
                  patch);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric::ConfigMemory::diff_frames(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfigMemoryIncrementalDiff);

static void BM_OpbTransaction(benchmark::State& state) {
  Platform32 p;
  sim::SimTime t;
  for (auto _ : state) {
    t = p.cpu().plb().write(Platform32::kSramRange.base, 42, 4, t);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpbTransaction);

static void BM_CpuUncachedLoad(benchmark::State& state) {
  Platform32 p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.cpu().load32(Platform32::kSramRange.base));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuUncachedLoad);

static void BM_IcapFeedWord(benchmark::State& state) {
  Platform32 p;
  const auto comp = hw::component_for(hw::kBrightness, 32);
  const auto linked = p.linker().link_single(comp);
  const auto words = bitstream::serialize(*linked.config);
  std::size_t i = 0;
  for (auto _ : state) {
    p.icap_ctl().feed_word(words[i % words.size()]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IcapFeedWord);

// One complete XC2VP30 configuration through IcapController::feed(span),
// the path a CPU-driven load takes: whole frames go straight from the
// stream to configuration memory. Items = words, so the per-item time
// compares with BM_IcapFeedWord.
static void BM_IcapFeedFrames(benchmark::State& state) {
  Platform64 p;
  const auto comp = hw::component_for(hw::kBrightness, 64);
  const auto linked = p.linker().link_single(comp);
  const auto words = bitstream::serialize(*linked.config);
  for (auto _ : state) {
    p.icap_ctl().reset();
    p.icap_ctl().feed(words);
    benchmark::DoNotOptimize(p.icap_ctl().done());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(words.size()));
}
BENCHMARK(BM_IcapFeedFrames);

// One serving-size brightness request's transfer loop on the 64-bit
// system: 64x48 pixels through hw_brightness_pio, 768 PIO write/read pairs
// with the module resident. Items = words, so the per-item time is ns per
// transferred word.
static void BM_PioBrightness(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kBrightness);
  const apps::GrayImage img = bench::random_gray(64, 48);
  apps::store_bytes(p.cpu().plb(), bench::kA64, img.pixels);
  const int pixels = img.width * img.height;
  for (auto _ : state) {
    apps::hw_brightness_pio(p.kernel(), Platform64::dock_data(), bench::kA64,
                            bench::kOut64, pixels, 60);
    benchmark::DoNotOptimize(p.kernel().now());
  }
  state.SetItemsProcessed(state.iterations() * pixels / 4);
}
BENCHMARK(BM_PioBrightness);

// One serving-size pattern-match request on the 64-bit system, hardware
// path, through serve::exec_request: the seeded 64x48 input staged in
// memory, the PIO driver streaming it through the resident matcher and
// reading back 2,337 counts, and the golden model's check.
static void BM_PatternMatchRequest(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kPatternMatcher);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const serve::ExecResult r =
        serve::exec_request(p, hw::kPatternMatcher, ++seed, /*hw=*/true);
    if (!r.golden_ok) state.SkipWithError("pattern request failed golden");
    benchmark::DoNotOptimize(r.digest);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternMatchRequest);

// One serving-size Jenkins request on the 64-bit system, hardware path,
// through serve::exec_request: the seeded 2 KiB key staged in memory, the
// PIO driver streaming it through the resident hash unit, and the golden
// model's check. With brightness, the other half of resident_hot.
static void BM_JenkinsRequest(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kJenkinsHash);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const serve::ExecResult r =
        serve::exec_request(p, hw::kJenkinsHash, ++seed, /*hw=*/true);
    if (!r.golden_ok) state.SkipWithError("Jenkins request failed golden");
    benchmark::DoNotOptimize(r.digest);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JenkinsRequest);

// One serving-size brightness request on the 64-bit system, hardware path,
// through serve::exec_request: the seeded 64x48 image drawn, checked and
// digested in one pass, staged in memory, the PIO driver streaming it
// through the resident unit, and one readback compared with the golden
// output. With Jenkins, the other half of resident_hot.
static void BM_BrightnessRequest(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kBrightness);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const serve::ExecResult r =
        serve::exec_request(p, hw::kBrightness, ++seed, /*hw=*/true);
    if (!r.golden_ok) state.SkipWithError("brightness request failed golden");
    benchmark::DoNotOptimize(r.digest);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrightnessRequest);

// One serving-size SHA-1 request on the 32-bit system, software path,
// through serve::exec_request: the seeded 1 KiB message staged in memory,
// apps::sw_sha1 on the CPU (SHA-1 cannot be placed on the XC2VP7), and the
// golden model's check. degraded_32's hot operation.
static void BM_Sha1SoftwareRequest(benchmark::State& state) {
  Platform32 p;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const serve::ExecResult r =
        serve::exec_request(p, hw::kSha1, ++seed, /*hw=*/false);
    if (!r.golden_ok) state.SkipWithError("software SHA-1 failed golden");
    benchmark::DoNotOptimize(r.digest);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha1SoftwareRequest);

// The reference payload-hash walk over the XC2VP30 region after one load:
// what every BitLinker link embeds, and what a load re-walks before
// binding unless it is a clean load of a cached plan onto the image that
// plan assumes (Platform::load_plan).
static void BM_RegionPayloadHash(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kBrightness);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bitlinker::region_payload_hash(p.fabric_state(), p.region()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegionPayloadHash);

// One readback-verify pass over the XC2VP30 area with a module resident:
// the fleet's probation probe and the scrub after a load. Its frame loop
// runs in closed form, so a return to word-by-word bus transfers (at least
// six times slower) fails the gate.
static void BM_ReadbackVerify(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kBrightness);
  for (auto _ : state) {
    const ReadbackStats s =
        readback_verify(p.kernel(), Platform64::kIcapRange.base, p.region());
    if (!s.ok) state.SkipWithError("readback of a clean module failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadbackVerify);

static void BM_BitLinkerAssembly(benchmark::State& state) {
  Platform32 p;
  const auto comp = hw::component_for(hw::kBrightness, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.linker().link_single(comp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitLinkerAssembly);

// The manager's steady-state swap with warm plans: alternate two modules,
// every ensure hits the differential-plan cache and streams pre-encoded
// words. Host work per swap is the simulated streaming loop only.
static void BM_EnsureCachedDiff(benchmark::State& state) {
  Platform32 p;
  ModuleManager mgr{p};
  (void)mgr.ensure(hw::kBrightness, 32);
  (void)mgr.ensure(hw::kFade, 32);  // warm both diff directions
  (void)mgr.ensure(hw::kBrightness, 32);
  hw::BehaviorId next = hw::kFade;
  for (auto _ : state) {
    const EnsureStats s = mgr.ensure(next, 32);
    benchmark::DoNotOptimize(s.ok);
    next = next == hw::kFade ? hw::kBrightness : hw::kFade;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsureCachedDiff);

// The same alternation with memoization disabled: every swap re-links both
// components, rebuilds two full-fabric states, diffs and re-encodes. The
// simulated result is byte-identical to the cached run -- this is the
// honest uncached host-time baseline for BM_EnsureCachedDiff.
static void BM_EnsureUncachedDiff(benchmark::State& state) {
  Platform32 p;
  ModuleManager mgr{p};
  mgr.set_plan_cache_enabled(false);
  (void)mgr.ensure(hw::kBrightness, 32);
  (void)mgr.ensure(hw::kFade, 32);
  (void)mgr.ensure(hw::kBrightness, 32);
  hw::BehaviorId next = hw::kFade;
  for (auto _ : state) {
    const EnsureStats s = mgr.ensure(next, 32);
    benchmark::DoNotOptimize(s.ok);
    next = next == hw::kFade ? hw::kBrightness : hw::kFade;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsureUncachedDiff);

// The managed swaps swap_storm runs: warm-plan differentials on the
// XC2VP30 among the heavy mix's five behaviours. Three Hamiltonian cycles
// of the five visit 15 ordered pairs, each cached after the warm-up; each
// swap streams its plan, taking each payload's recorded CRC state, and
// binds on the plan's recorded verdict. Items = swaps.
static void BM_EnsureCachedDiff64(benchmark::State& state) {
  Platform64 p;
  ModuleManager mgr{p};
  constexpr hw::BehaviorId kMix[] = {hw::kJenkinsHash, hw::kBrightness,
                                     hw::kBlendAdd, hw::kFade,
                                     hw::kPatternMatcher};
  std::vector<hw::BehaviorId> cycle;
  for (const std::size_t step : {1, 2, 3}) {
    for (std::size_t i = 0; i < std::size(kMix); ++i) {
      cycle.push_back(kMix[i * step % std::size(kMix)]);
    }
  }
  for (int warmup = 0; warmup < 2; ++warmup) {
    for (const hw::BehaviorId id : cycle) (void)mgr.ensure(id, 64);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const EnsureStats s = mgr.ensure(cycle[i], 64);
    if (!s.ok || !s.used_differential || !s.plan_cached) {
      state.SkipWithError("expected a warm differential swap");
    }
    benchmark::DoNotOptimize(s.ok);
    i = (i + 1) % cycle.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsureCachedDiff64);

// One differential-plan build on the XC2VP30, alternately brightness ->
// fade and fade -> brightness: the two complete plans diffed frame by frame
// and encoded by the builder PlanCache::differential memoizes -- what the
// first swap of each ordered module pair costs.
static void BM_DiffPlanBuild(benchmark::State& state) {
  Platform64 p;
  PlanCache cache;
  const PlanCache::Plan* from =
      cache.complete(p.linker(), hw::kBrightness, 64, nullptr, nullptr);
  const PlanCache::Plan* to =
      cache.complete(p.linker(), hw::kFade, 64, nullptr, nullptr);
  if (from == nullptr || to == nullptr) {
    state.SkipWithError("expected both modules to link");
    return;
  }
  for (auto _ : state) {
    const PlanCache::Plan plan = PlanCache::build_differential(*from, *to);
    benchmark::DoNotOptimize(plan.words.data());
    std::swap(from, to);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiffPlanBuild);

// One complete-plan build on the XC2VP30: brightness linked on one copy of
// the static baseline, its region read out and encoded, by the builder
// PlanCache::complete memoizes -- what the first use of each behaviour in
// an area costs.
static void BM_CompletePlanBuild(benchmark::State& state) {
  Platform64 p;
  for (auto _ : state) {
    const auto plan =
        PlanCache::build_complete(p.linker(), hw::kBrightness, 64, nullptr);
    if (!plan) {
      state.SkipWithError("expected brightness to link");
      break;
    }
    benchmark::DoNotOptimize(plan->words.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompletePlanBuild);

// The whole serving hot path with tracing disabled: a steady closed-loop
// workload through admission, plan-cache reconfiguration, execution and
// completion. Items = disposed requests, so the per-item time is ns per
// request -- the quantity BENCH_microbench.json records as
// BM_ServeSteadyHot_ns_per_req and CI gates against (<17% regression).
// Request-context threading, stage histograms and SLO/recorder hooks must
// stay cheap enough to hide in this number when observers are off.
static void BM_ServeSteadyHot(benchmark::State& state) {
  const serve::WorkloadSpec* w = serve::workload_by_name("steady");
  std::int64_t disposed = 0;
  for (auto _ : state) {
    Platform32 p;
    serve::ServeOptions so;
    const serve::ServeReport r = serve::run_workload(p, *w, /*seed=*/1, so);
    disposed = static_cast<std::int64_t>(r.completions.size());
    benchmark::DoNotOptimize(disposed);
  }
  state.SetItemsProcessed(state.iterations() * disposed);
}
BENCHMARK(BM_ServeSteadyHot)->Unit(benchmark::kMillisecond);

// One fleet routing decision (affinity scan + work-stealing rebalance)
// over an 8-shard mixed fleet: the global scheduler's cost per request.
// Must stay O(devices) and nanoseconds-scale -- the router sits in front
// of every request the fleet serves, so a regression here taxes the whole
// admission stream. Items = routed requests, so per-item time is ns per
// decision; CI gates it against BENCH_microbench.json's ns_per_op.
static void BM_FleetRouteDecision(benchmark::State& state) {
  serve::fleet::FleetWorkloadSpec w;
  w.requests = 1024;
  const std::vector<serve::Request> stream =
      serve::fleet::make_fleet_stream(w, /*seed=*/1);
  const std::vector<int> systems = {64, 32, 64, 32, 64, 32, 64, 32};
  for (auto _ : state) {
    serve::fleet::FleetRouter router(systems, /*affinity=*/true,
                                     /*steal_threshold=*/4, /*seed=*/1);
    for (const serve::Request& r : stream) {
      benchmark::DoNotOptimize(router.route(r));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_FleetRouteDecision);

static void BM_DmaBlock(benchmark::State& state) {
  Platform64 p;
  bench::must_load(p, hw::kSink);
  sim::SimTime t;
  const dma::DmaDescriptor d{bench::kA64, Platform64::dock_stream(), 2048,
                             true, false};
  for (auto _ : state) {
    t = p.dma().run_one(d, t);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DmaBlock);

BENCHMARK_MAIN();
