// Tests for the multi-area placement layer: the AreaPlacer decision core
// (first fit, LRU eviction, compatibility), the FFD batch packer, and the
// ModuleManager's co-resident serving on a two-area Platform64 -- including
// the differential guarantee that a single-behaviour workload is
// byte-identical at --areas 2 and --areas 1 (area 0 is the legacy region).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "busmacro/bus_macro.hpp"
#include "fault/fault.hpp"
#include "fabric/dynamic_region.hpp"
#include "rtr/manager.hpp"
#include "rtr/placer.hpp"
#include "rtr/platform.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace rtr {
namespace {

std::vector<fabric::AreaFootprint> xc2vp30_two_areas() {
  std::vector<fabric::AreaFootprint> fp;
  for (const fabric::DynamicRegion& r :
       fabric::DynamicRegion::xc2vp30_areas(2)) {
    fp.push_back(r.footprint());
  }
  return fp;
}

std::int64_t ensure_swaps(const sim::StatRegistry& stats) {
  std::int64_t swaps = 0;
  for (const char* path : {"cached", "differential", "complete"}) {
    const auto it = stats.histograms().find(
        std::string("rtr.ensure.latency_ps.") + path);
    if (it != stats.histograms().end()) swaps += it->second.count();
  }
  return swaps;
}

TEST(ModuleFootprintTest, MatchesComponentGeometry) {
  const ModuleFootprint fp = module_footprint(hw::kJenkinsHash, 64);
  EXPECT_EQ(fp.rows, 8);
  EXPECT_EQ(fp.cols, 12);
  EXPECT_EQ(fp.bram_blocks, 0);
  const auto iface = busmacro::ConnectionInterface::for_width(64);
  EXPECT_EQ(fp.bus_macro_ports,
            static_cast<int>(iface.module_side().size()));

  // Every registry behaviour at both widths: the footprint read from the
  // shape table is the one the full component descriptor carries.
  const hw::BehaviorRegistry reg = hw::standard_registry(1 << 16);
  int behaviours = 0;
  for (int id = 0; id < 256; ++id) {
    if (!reg.contains(id)) continue;
    ++behaviours;
    const auto b = static_cast<hw::BehaviorId>(id);
    for (const int width : {32, 64}) {
      const auto comp = hw::component_for(b, width);
      const ModuleFootprint f = module_footprint(b, width);
      EXPECT_EQ(f.rows, comp.rows) << id << " at " << width;
      EXPECT_EQ(f.cols, comp.cols) << id << " at " << width;
      EXPECT_EQ(f.bram_blocks, comp.bram_blocks) << id << " at " << width;
      EXPECT_EQ(f.bus_macro_ports, static_cast<int>(comp.macros.size()))
          << id << " at " << width;
    }
  }
  EXPECT_EQ(behaviours, 9);
}

TEST(AreaFitsTest, SecondAreaHostsOnlyNarrowModules) {
  const auto areas = xc2vp30_two_areas();
  ASSERT_EQ(areas.size(), 2u);
  // Every catalogue module fits the primary region.
  for (const hw::BehaviorId id :
       {hw::kJenkinsHash, hw::kBrightness, hw::kBlendAdd, hw::kFade,
        hw::kPatternMatcher, hw::kSha1, hw::kPatternMatcherXl}) {
    EXPECT_TRUE(area_fits(areas[0], module_footprint(id, 64)))
        << "id " << id;
  }
  // The 12-column second area hosts the narrow modules but not the wide
  // pattern matchers or SHA-1.
  EXPECT_TRUE(area_fits(areas[1], module_footprint(hw::kJenkinsHash, 64)));
  EXPECT_TRUE(area_fits(areas[1], module_footprint(hw::kBrightness, 64)));
  EXPECT_TRUE(area_fits(areas[1], module_footprint(hw::kFade, 64)));
  EXPECT_FALSE(area_fits(areas[1], module_footprint(hw::kPatternMatcher, 64)));
  EXPECT_FALSE(area_fits(areas[1], module_footprint(hw::kSha1, 64)));
  EXPECT_FALSE(
      area_fits(areas[1], module_footprint(hw::kPatternMatcherXl, 64)));
}

TEST(AreaPlacerTest, FirstFitTakesLowestIndexedEmptyArea) {
  AreaPlacer placer{xc2vp30_two_areas()};
  const ModuleFootprint small = module_footprint(hw::kJenkinsHash, 64);
  // Area 0 first even though the module also fits area 1: a fresh placer
  // must behave exactly like the single-area platform.
  const auto d0 = placer.place(hw::kJenkinsHash, small);
  EXPECT_EQ(d0.area, 0);
  EXPECT_EQ(d0.evicted, -1);
  EXPECT_FALSE(d0.resident);
  const auto d1 = placer.place(hw::kBrightness,
                               module_footprint(hw::kBrightness, 64));
  EXPECT_EQ(d1.area, 1);
  EXPECT_EQ(d1.evicted, -1);
}

TEST(AreaPlacerTest, ResidencyHitBeatsPlacement) {
  AreaPlacer placer{xc2vp30_two_areas()};
  const ModuleFootprint fp = module_footprint(hw::kJenkinsHash, 64);
  (void)placer.place(hw::kJenkinsHash, fp);
  const auto hit = placer.plan(hw::kJenkinsHash, fp);
  EXPECT_TRUE(hit.resident);
  EXPECT_EQ(hit.area, 0);
  EXPECT_EQ(hit.evicted, -1);
  // plan() never commits: residency is unchanged afterwards.
  EXPECT_EQ(placer.resident(0), hw::kJenkinsHash);
  EXPECT_EQ(placer.resident(1), -1);
}

TEST(AreaPlacerTest, LruEvictionWithAllAreasFull) {
  AreaPlacer placer{xc2vp30_two_areas()};
  (void)placer.place(hw::kJenkinsHash, module_footprint(hw::kJenkinsHash, 64));
  (void)placer.place(hw::kBrightness, module_footprint(hw::kBrightness, 64));
  // Refresh area 0's recency: jenkins becomes MRU, brightness LRU.
  (void)placer.place(hw::kJenkinsHash, module_footprint(hw::kJenkinsHash, 64));
  const auto d = placer.place(hw::kFade, module_footprint(hw::kFade, 64));
  EXPECT_EQ(d.area, 1);
  EXPECT_EQ(d.evicted, hw::kBrightness);
  EXPECT_EQ(placer.resident(0), hw::kJenkinsHash);
  EXPECT_EQ(placer.resident(1), hw::kFade);
}

TEST(AreaPlacerTest, EvictionRespectsCompatibility) {
  AreaPlacer placer{xc2vp30_two_areas()};
  (void)placer.place(hw::kJenkinsHash, module_footprint(hw::kJenkinsHash, 64));
  (void)placer.place(hw::kBrightness, module_footprint(hw::kBrightness, 64));
  // patmatch fits only area 0; area 1 is the LRU candidate but must be
  // skipped -- the wide module evicts the compatible area instead.
  const auto d = placer.place(hw::kPatternMatcher,
                              module_footprint(hw::kPatternMatcher, 64));
  EXPECT_EQ(d.area, 0);
  EXPECT_EQ(d.evicted, hw::kJenkinsHash);
  EXPECT_EQ(placer.resident(1), hw::kBrightness);
}

TEST(AreaPlacerTest, FootprintLargerThanEveryAreaIsIncompatible) {
  AreaPlacer placer{xc2vp30_two_areas()};
  ModuleFootprint huge;
  huge.rows = 40;  // taller than both areas (24 rows each)
  huge.cols = 10;
  const auto d = placer.plan(/*behavior=*/999, huge);
  EXPECT_FALSE(d.compatible);
  EXPECT_EQ(d.area, -1);
  // Committing an incompatible placement is a no-op.
  const auto dc = placer.place(/*behavior=*/999, huge);
  EXPECT_FALSE(dc.compatible);
  EXPECT_EQ(placer.resident(0), -1);
  EXPECT_EQ(placer.resident(1), -1);
}

TEST(AreaPlacerTest, BusMacroPortShortageBlocksAnArea) {
  // Hand-built catalogue: area 0 terminates only two boundary bus-macro
  // ports, area 1 three. A module needing three ports must skip area 0
  // even though its CLB rectangle fits.
  std::vector<fabric::AreaFootprint> areas(2);
  areas[0] = fabric::AreaFootprint{24, 12, 24 * 12 * 4, 10, 2};
  areas[1] = fabric::AreaFootprint{24, 12, 24 * 12 * 4, 10, 3};
  ModuleFootprint m;
  m.rows = 8;
  m.cols = 10;
  m.bus_macro_ports = 3;
  AreaPlacer placer{areas};
  const auto d = placer.place(hw::kJenkinsHash, m);
  EXPECT_EQ(d.area, 1);
  // A two-port module still lands in area 0.
  ModuleFootprint m2 = m;
  m2.bus_macro_ports = 2;
  EXPECT_EQ(placer.place(hw::kBrightness, m2).area, 0);
}

TEST(AreaPlacerTest, EvictAndResetClearResidency) {
  AreaPlacer placer{xc2vp30_two_areas()};
  (void)placer.place(hw::kJenkinsHash, module_footprint(hw::kJenkinsHash, 64));
  placer.evict(0);
  EXPECT_EQ(placer.resident(0), -1);
  EXPECT_EQ(placer.area_of(hw::kJenkinsHash), -1);
  (void)placer.place(hw::kFade, module_footprint(hw::kFade, 64));
  placer.reset();
  EXPECT_EQ(placer.resident(0), -1);
  EXPECT_EQ(placer.resident(1), -1);
}

TEST(AreaPlacerTest, EvictedAreaIsRefilledBeforeLruEviction) {
  // evict() models a load that destroyed an area's occupant mid-stream.
  // The emptied bin must be the next first-fit target (no collateral
  // eviction of the survivor), and the survivor's recency must be intact
  // so a later full-placer decision still evicts in true LRU order.
  AreaPlacer placer{xc2vp30_two_areas()};
  (void)placer.place(hw::kJenkinsHash, module_footprint(hw::kJenkinsHash, 64));
  (void)placer.place(hw::kBrightness, module_footprint(hw::kBrightness, 64));
  placer.evict(0);
  EXPECT_EQ(placer.resident(0), -1);
  const auto d = placer.place(hw::kFade, module_footprint(hw::kFade, 64));
  EXPECT_EQ(d.area, 0);
  EXPECT_EQ(d.evicted, -1);
  EXPECT_EQ(placer.resident(1), hw::kBrightness);
  // Both areas full again; brightness is now the LRU resident.
  const auto d2 =
      placer.place(hw::kJenkinsHash, module_footprint(hw::kJenkinsHash, 64));
  EXPECT_EQ(d2.area, 1);
  EXPECT_EQ(d2.evicted, hw::kBrightness);
}

TEST(AreaPlacerTest, FfdPacksBigModulesFirst) {
  const auto areas = xc2vp30_two_areas();
  // patmatch (10x22) only fits area 0; jenkins fits both. FFD places the
  // big module first, so both land: patmatch -> 0, jenkins -> 1. In
  // submission order a naive first fit would burn area 0 on jenkins and
  // strand patmatch.
  const std::vector<ModuleFootprint> modules = {
      module_footprint(hw::kJenkinsHash, 64),
      module_footprint(hw::kPatternMatcher, 64),
  };
  const std::vector<int> placement = AreaPlacer::ffd_pack(areas, modules);
  ASSERT_EQ(placement.size(), 2u);
  EXPECT_EQ(placement[0], 1);
  EXPECT_EQ(placement[1], 0);
  // Over-subscription: a third module finds no free bin.
  const std::vector<ModuleFootprint> three = {
      module_footprint(hw::kJenkinsHash, 64),
      module_footprint(hw::kPatternMatcher, 64),
      module_footprint(hw::kFade, 64),
  };
  const std::vector<int> p3 = AreaPlacer::ffd_pack(areas, three);
  EXPECT_EQ(p3[2], -1);
}

// --- ModuleManager on a two-area Platform64 --------------------------------

Platform64 two_area_platform() {
  PlatformOptions po;
  po.dynamic_areas = 2;
  return Platform64{po};
}

TEST(ManagerMultiAreaTest, CoResidentBehavioursEnsureWithoutReconfig) {
  Platform64 p = two_area_platform();
  ModuleManager mgr{p};

  const auto first = mgr.ensure(hw::kJenkinsHash, 64);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.area, 0);
  EXPECT_FALSE(first.already_resident);

  const auto second = mgr.ensure(hw::kBrightness, 64);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.area, 1);  // empty area, no eviction of jenkins
  EXPECT_FALSE(second.already_resident);
  EXPECT_EQ(mgr.resident_in(0), hw::kJenkinsHash);
  EXPECT_EQ(mgr.resident_in(1), hw::kBrightness);

  // Alternating between the co-resident pair never reconfigures again:
  // the dock re-binds to the other area (activated), zero stream words.
  for (int i = 0; i < 3; ++i) {
    const auto a = mgr.ensure(hw::kJenkinsHash, 64);
    ASSERT_TRUE(a.ok);
    EXPECT_TRUE(a.already_resident);
    EXPECT_TRUE(a.activated);
    EXPECT_EQ(a.stream_words, 0);
    EXPECT_EQ(a.area, 0);
    const auto b = mgr.ensure(hw::kBrightness, 64);
    ASSERT_TRUE(b.ok);
    EXPECT_TRUE(b.already_resident);
    EXPECT_TRUE(b.activated);
    EXPECT_EQ(b.area, 1);
  }
  EXPECT_TRUE(mgr.is_resident(hw::kJenkinsHash));
  EXPECT_TRUE(mgr.is_resident(hw::kBrightness));
  EXPECT_FALSE(mgr.is_resident(hw::kFade));
  EXPECT_EQ(p.sim().stats().counter("rtr.place.placements").value(), 2);
  EXPECT_EQ(p.sim().stats().counter("rtr.place.activations").value(), 6);
  EXPECT_EQ(p.sim().stats().counter("rtr.place.evictions").value(), 0);
}

TEST(ManagerMultiAreaTest, WideModuleEvictsOnlyCompatibleArea) {
  Platform64 p = two_area_platform();
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).ok);
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 64).ok);
  // patmatch fits only area 0: jenkins is displaced, brightness survives.
  const auto wide = mgr.ensure(hw::kPatternMatcher, 64);
  ASSERT_TRUE(wide.ok) << wide.error;
  EXPECT_EQ(wide.area, 0);
  EXPECT_EQ(mgr.resident_in(0), hw::kPatternMatcher);
  EXPECT_EQ(mgr.resident_in(1), hw::kBrightness);
  EXPECT_GE(p.sim().stats().counter("rtr.place.evictions").value(), 1);
  // Loaded-through-eviction modules are functionally intact: brightness
  // still answers from area 1 without a reconfiguration.
  const auto back = mgr.ensure(hw::kBrightness, 64);
  ASSERT_TRUE(back.ok);
  EXPECT_TRUE(back.already_resident);
}

TEST(ManagerMultiAreaTest, SingleBehaviourIsByteIdenticalToSingleArea) {
  // The differential guarantee behind --areas byte-compatibility: a
  // workload that only ever touches one behaviour places into area 0 and
  // must reproduce the single-area platform's timing and stream exactly.
  auto run = [](int areas) {
    PlatformOptions po;
    po.dynamic_areas = areas;
    Platform64 p{po};
    ModuleManager mgr{p};
    std::vector<std::int64_t> sig;
    for (int i = 0; i < 4; ++i) {
      const auto es = mgr.ensure(hw::kJenkinsHash, 64);
      EXPECT_TRUE(es.ok) << es.error;
      sig.push_back(es.time.ps());
      sig.push_back(es.stream_words);
      sig.push_back(es.already_resident ? 1 : 0);
    }
    sig.push_back(p.kernel().now().ps());
    return sig;
  };
  EXPECT_EQ(run(1), run(2));
}

TEST(ManagerMultiAreaTest, InvalidateClearsEveryArea) {
  Platform64 p = two_area_platform();
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).ok);
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 64).ok);
  mgr.invalidate();
  EXPECT_EQ(mgr.resident_in(0), -1);
  EXPECT_EQ(mgr.resident_in(1), -1);
  const auto re = mgr.ensure(hw::kBrightness, 64);
  ASSERT_TRUE(re.ok);
  EXPECT_FALSE(re.already_resident);
}

TEST(ManagerMultiAreaTest, FailedLoadEvictsOnlyTheTargetAreaAndRecovers) {
  // A load whose stream dies mid-flight has already torn down the target
  // area's occupant: the manager must clear exactly that area (AreaState +
  // placer eviction) and leave the co-resident module serving.
  //
  // The fault must hit the *third* load only, so first measure how many
  // ICAP-word opportunities the first two loads consume. A benign
  // never-firing spec arms the injector (and its opportunity counters)
  // without perturbing the run.
  fault::FaultSpec benign;
  RTR_CHECK(fault::FaultSpec::parse("bus:once@99999999:1", &benign),
            "bad benign spec");
  std::int64_t icap_words = 0;
  {
    PlatformOptions po;
    po.dynamic_areas = 2;
    po.fault_plan.add(benign);
    Platform64 p{po};
    ModuleManager mgr{p};
    ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).ok);
    ASSERT_TRUE(mgr.ensure(hw::kBrightness, 64).ok);
    // Refresh jenkins' recency so brightness (area 1) is the LRU victim.
    ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).already_resident);
    icap_words = p.faults()->opportunities(fault::Site::kIcap);
  }
  ASSERT_GT(icap_words, 0);

  // Same sequence, with the ICAP stuck dead from the third load's first
  // word: every attempt of the fade load fails, recovery gives up.
  fault::FaultSpec stuck;
  RTR_CHECK(fault::FaultSpec::parse(
                ("icap:stuck@" + std::to_string(icap_words) + ":1").c_str(),
                &stuck),
            "bad stuck spec");
  PlatformOptions po;
  po.dynamic_areas = 2;
  po.fault_plan.add(stuck);
  Platform64 p{po};
  ModuleManager mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).ok);
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 64).ok);
  ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).already_resident);

  const EnsureStats fail = mgr.ensure(hw::kFade, 64);
  EXPECT_FALSE(fail.ok);
  EXPECT_EQ(fail.area, 1);  // the LRU area was the target
  // Exactly the target area was cleared: its old occupant was evicted
  // before the stream died, and fade never became resident.
  EXPECT_EQ(mgr.resident_in(1), -1);
  EXPECT_EQ(mgr.resident_in(0), hw::kJenkinsHash);
  EXPECT_FALSE(mgr.is_resident(hw::kBrightness));
  EXPECT_FALSE(mgr.is_resident(hw::kFade));
  EXPECT_GE(p.sim().stats().counter("rtr.recovery.giveups").value(), 1);
  // The survivor keeps serving without a reconfiguration.
  EXPECT_TRUE(mgr.ensure(hw::kJenkinsHash, 64).already_resident);

  // Field repair: the cleared area is the placer's first-fit target again
  // and the next load into it converges without touching the survivor.
  p.faults()->repair_all();
  const EnsureStats again = mgr.ensure(hw::kBrightness, 64);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.area, 1);
  EXPECT_FALSE(again.already_resident);
  EXPECT_EQ(mgr.resident_in(0), hw::kJenkinsHash);
  EXPECT_TRUE(mgr.ensure(hw::kBrightness, 64).already_resident);
}

// --- serving on a two-area device ------------------------------------------

TEST(ServeMultiAreaTest, TwoAreasServeMixedWorkloadWithFewerSwaps) {
  const serve::WorkloadSpec* w = serve::workload_by_name("mixed");
  ASSERT_NE(w, nullptr);
  auto run = [&](int areas) {
    PlatformOptions po;
    po.dynamic_areas = areas;
    Platform64 p{po};
    const serve::ServeReport r = serve::run_workload(p, *w, /*seed=*/7);
    EXPECT_TRUE(r.digests_ok);
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.submitted, 12);
    return ensure_swaps(p.sim().stats());
  };
  const std::int64_t one = run(1);
  const std::int64_t two = run(2);
  EXPECT_LT(two, one);
}

}  // namespace
}  // namespace rtr
