// Extension benches (beyond the paper's tables):
//  * DMA-driven reconfiguration vs the CPU fetch loop vs the ICAP bound;
//  * readback scrubbing cost per region;
//  * the XL pattern matcher: image sizes only the 64-bit region can buffer;
//  * dual dynamic areas: task alternation without swap reconfigurations.
#include <cstdio>

#include "apps/drivers.hpp"
#include "apps/sw_kernels.hpp"
#include "bench/common.hpp"
#include "report/table.hpp"
#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "rtr/readback.hpp"

using namespace rtr;

int main() {
  // --- reconfiguration paths ---------------------------------------------
  {
    report::Table t{"Extension: reconfiguration paths (64-bit system, fade "
                    "module, 390 KB complete configuration)",
                    {"Path", "Time (ms)", "CPU busy?"}};
    Platform64 a;
    const auto cpu_load = a.load_module(hw::kFade);
    Platform64 b;
    const auto dma_load = b.load_module_dma(hw::kFade);
    RTR_CHECK(cpu_load.ok && dma_load.ok, "load failed");
    t.row({"CPU fetch + store loop", report::fmt_ms(cpu_load.duration()),
           "yes (whole load)"});
    t.row({"scatter-gather DMA -> HWICAP", report::fmt_ms(dma_load.duration()),
           "no (sleeps until interrupt)"});
    t.print();
  }

  // --- readback scrubbing --------------------------------------------------
  {
    report::Table t{"Extension: readback verification (scrub) cost",
                    {"System", "Frames", "Time (ms)", "Verdict"}};
    Platform32 p32;
    RTR_CHECK(p32.load_module(hw::kJenkinsHash).ok, "load failed");
    const auto s32 =
        readback_verify(p32.kernel(), Platform32::kIcapRange.base, p32.region());
    t.row({"32-bit", report::fmt_int(s32.frames), report::fmt_ms(s32.duration),
           s32.ok ? "intact" : "CORRUPT"});
    Platform64 p64;
    RTR_CHECK(p64.load_module(hw::kJenkinsHash).ok, "load failed");
    const auto s64 =
        readback_verify(p64.kernel(), Platform64::kIcapRange.base, p64.region());
    t.row({"64-bit", report::fmt_int(s64.frames), report::fmt_ms(s64.duration),
           s64.ok ? "intact" : "CORRUPT"});
    t.print();
  }

  // --- XL pattern matcher ---------------------------------------------------
  {
    report::Table t{"Extension: XL pattern matcher (22-BRAM buffer, 64-bit "
                    "system; the base module caps at 110592 pixels)",
                    {"Image", "Pixels", "Base module", "XL SW (ms)",
                     "XL HW (ms)", "Speedup"}};
    for (const auto& [w, h] : {std::pair{256, 256}, {384, 320}, {512, 512}}) {
      const auto wl = bench::make_pattern_workload(w, h);
      const auto img_bytes = apps::to_bytes(wl.img);
      const auto pat_bytes = bench::pattern_bytes(wl.pat);
      const bool base_fits =
          static_cast<std::int64_t>(w) * h <= hw::bram_bits(6);

      Platform64 sw_p;
      apps::store_bytes(sw_p.cpu().plb(), bench::kA64, img_bytes);
      apps::store_bytes(sw_p.cpu().plb(), bench::kB64, pat_bytes);
      const auto t0 = sw_p.kernel().now();
      const auto sw_res =
          apps::sw_pattern_match(sw_p.kernel(), bench::kA64, w, h, bench::kB64);
      const auto sw_time = sw_p.kernel().now() - t0;

      Platform64 hw_p;
      bench::must_load(hw_p, hw::kPatternMatcherXl);
      apps::store_bytes(hw_p.cpu().plb(), bench::kA64, img_bytes);
      apps::store_bytes(hw_p.cpu().plb(), bench::kB64, pat_bytes);
      const auto t1 = hw_p.kernel().now();
      const auto hw_res = apps::hw_pattern_match_pio(
          hw_p.kernel(), Platform64::dock_data(), bench::kA64, w, h, bench::kB64);
      const auto hw_time = hw_p.kernel().now() - t1;
      RTR_CHECK(hw_res.best_count == sw_res.best_count, "HW/SW disagree");

      char size[32];
      std::snprintf(size, sizeof size, "%dx%d", w, h);
      t.row({size, report::fmt_int(static_cast<std::int64_t>(w) * h),
             base_fits ? "fits" : "capacity error",
             report::fmt_ms(sw_time), report::fmt_ms(hw_time),
             report::fmt_x(static_cast<double>(sw_time.ps()) /
                           static_cast<double>(hw_time.ps()))});
    }
    t.print();
  }

  // --- dual dynamic areas ------------------------------------------------------
  {
    report::Table t{"Extension: two dynamic areas vs swapping one (alternate "
                    "hash and brightness 4x, 64-bit system)",
                    {"Approach", "Reconfigurations", "Reconfig time (ms)",
                     "Task time (ms)"}};
    const auto key = bench::random_bytes(2048);
    const auto img = bench::random_gray(128, 64);
    const int n = static_cast<int>(img.size());

    // Single region: swap per alternation.
    {
      Platform64 p;
      apps::store_bytes(p.cpu().plb(), bench::kA64, key);
      apps::store_bytes(p.cpu().plb(), bench::kB64, img.pixels);
      sim::SimTime reconfig, task;
      int loads = 0;
      for (int i = 0; i < 4; ++i) {
        auto s = p.load_module(hw::kJenkinsHash);
        RTR_CHECK(s.ok, "load failed");
        reconfig += s.duration();
        ++loads;
        auto t0 = p.kernel().now();
        apps::hw_jenkins_pio(p.kernel(), Platform64::dock_data(), bench::kA64,
                             2048);
        task += p.kernel().now() - t0;
        s = p.load_module(hw::kBrightness);
        RTR_CHECK(s.ok, "load failed");
        reconfig += s.duration();
        ++loads;
        t0 = p.kernel().now();
        apps::hw_brightness_pio(p.kernel(), Platform64::dock_data(),
                                bench::kB64, bench::kOut64, n, 25);
        task += p.kernel().now() - t0;
      }
      t.row({"one region (swap)", report::fmt_int(loads),
             report::fmt_ms(reconfig), report::fmt_ms(task)});
    }
    // Dual regions: both resident; the dock re-binds to each area's
    // module before its task.
    {
      PlatformOptions opts;
      opts.dynamic_areas = 2;
      Platform64 p{opts};
      apps::store_bytes(p.cpu().plb(), bench::kA64, key);
      apps::store_bytes(p.cpu().plb(), bench::kB64, img.pixels);
      sim::SimTime reconfig, task;
      auto s = p.load_module(hw::kJenkinsHash, 0);
      RTR_CHECK(s.ok, "load failed");
      reconfig += s.duration();
      s = p.load_module(hw::kBrightness, 1);
      RTR_CHECK(s.ok, "load failed");
      reconfig += s.duration();
      for (int i = 0; i < 4; ++i) {
        auto t0 = p.kernel().now();
        p.activate_area(0);
        apps::hw_jenkins_pio(p.kernel(), Platform64::dock_data(), bench::kA64,
                             2048);
        p.activate_area(1);
        apps::hw_brightness_pio(p.kernel(), Platform64::dock_data(),
                                bench::kB64, bench::kOut64, n, 25);
        task += p.kernel().now() - t0;
      }
      t.row({"two regions (resident)", "2", report::fmt_ms(reconfig),
             report::fmt_ms(task)});
    }
    t.print();
    std::printf("\nTwo separate dynamic areas (the alternative section 4.1 "
                "suggests) trade fabric area for swap-free task "
                "alternation.\n");
  }
  // --- safe differential reconfiguration --------------------------------------
  {
    report::Table t{"Extension: ModuleManager with safe differential "
                    "reconfiguration (alternate jenkins/brightness, 32-bit "
                    "system)",
                    {"Swap", "Path", "Stream KB", "Time (ms)"}};
    Platform32 p;
    ModuleManager<Platform32> mgr{p};
    const hw::BehaviorId seq[] = {hw::kJenkinsHash, hw::kBrightness,
                                  hw::kJenkinsHash, hw::kBrightness,
                                  hw::kJenkinsHash};
    for (std::size_t i = 0; i < std::size(seq); ++i) {
      const auto s = mgr.ensure(seq[i], 32);
      RTR_CHECK(s.ok, "ensure failed");
      t.row({report::fmt_int(static_cast<std::int64_t>(i)),
             s.already_resident
                 ? "resident"
                 : (s.used_differential ? "differential" : "complete"),
             report::fmt_int(s.stream_words * 4 / 1024),
             report::fmt_ms(s.time)});
    }
    t.print();
    std::printf("\nThe runtime's payload-hash gate makes differential "
                "configurations safe: a stale assumption cannot bind a "
                "broken circuit, it just falls back to the complete "
                "configuration (section 2.2's objection, resolved at run "
                "time).\n");
  }

  // --- overlapping data preparation with DMA --------------------------------
  {
    report::Table t{"Extension: serialized vs overlapped data preparation "
                    "(blend, 256x128, 64-bit DMA)",
                    {"D-cache", "Serialized (ms)", "Overlapped (ms)",
                     "Gain"}};
    const auto a = bench::random_gray(256, 128, 21);
    const auto b = bench::random_gray(256, 128, 22);
    const int n = 256 * 128;
    for (bool cached : {false, true}) {
      PlatformOptions opts;
      opts.enable_dcache = cached;
      sim::SimTime serial, overlap;
      {
        Platform64 p{opts};
        bench::must_load(p, hw::kBlendAdd);
        apps::store_bytes(p.cpu().plb(), bench::kA64, a.pixels);
        apps::store_bytes(p.cpu().plb(), bench::kB64, b.pixels);
        serial = apps::hw_blend_dma(p, bench::kA64, bench::kB64,
                                    bench::kStage64, bench::kOut64, n)
                     .total;
      }
      {
        Platform64 p{opts};
        bench::must_load(p, hw::kBlendAdd);
        apps::store_bytes(p.cpu().plb(), bench::kA64, a.pixels);
        apps::store_bytes(p.cpu().plb(), bench::kB64, b.pixels);
        overlap = apps::hw_blend_dma_overlapped(p, bench::kA64, bench::kB64,
                                                bench::kStage64, bench::kOut64,
                                                n)
                      .total;
        RTR_CHECK(apps::fetch_bytes(p.cpu().plb(), bench::kOut64,
                                    a.pixels.size()) ==
                      apps::blend_add(a, b).pixels,
                  "overlapped result wrong");
      }
      t.row({cached ? "on" : "off", report::fmt_ms(serial),
             report::fmt_ms(overlap),
             report::fmt_x(static_cast<double>(serial.ps()) /
                           static_cast<double>(overlap.ps()))});
    }
    t.print();
    std::printf("\nOverlap buys almost nothing here: the DMA moves a block "
                "roughly 10x faster than the CPU can prepare the next one, "
                "so data preparation itself is the bottleneck -- the "
                "quantitative form of the paper's conclusion that the DMA "
                "mode's data-organisation constraints are what limit the "
                "two-source tasks.\n");
  }
  return 0;
}
