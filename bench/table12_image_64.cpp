// Table 12: image-processing tasks with 64-bit DMA (section 4.2).
// Brightness uses the 64-bit transfers "without additional work, since only
// one image is involved" -> clear speedup increase; blend and fade need the
// CPU to combine the two source images first ("data preparation", directly
// attributable to the DMA transfer-mode constraints) -> significantly
// smaller increase.
#include <cstdio>

#include "apps/drivers.hpp"
#include "apps/sw_kernels.hpp"
#include "bench/common.hpp"
#include "report/table.hpp"

using namespace rtr;

int main() {
  const int w = 256, h = 128;
  const int n = w * h;
  const auto a = bench::random_gray(w, h, 11);
  const auto b = bench::random_gray(w, h, 12);

  report::Table t{
      "Table 12: Image tasks with 64-bit DMA (8-bit grayscale, 256x128, "
      "64-bit system)",
      {"Task", "SW (ms)", "HW total (ms)", "data prep (ms)", "Speedup",
       "Speedup 32-bit PIO"}};

  struct Ref {
    double sw32_ms, hw32_ms;
  };
  auto run = [&](const char* name, hw::BehaviorId id, auto sw_fn, auto hw_dma,
                 auto sw32_fn, auto hw32_fn,
                 const std::vector<std::uint8_t>& want) {
    // 64-bit software baseline.
    Platform64 sw_p;
    apps::store_bytes(sw_p.cpu().plb(), bench::kA64, a.pixels);
    apps::store_bytes(sw_p.cpu().plb(), bench::kB64, b.pixels);
    const auto t0 = sw_p.kernel().now();
    sw_fn(sw_p);
    const auto sw_time = sw_p.kernel().now() - t0;
    RTR_CHECK(apps::fetch_bytes(sw_p.cpu().plb(), bench::kOut64, want.size()) ==
                  want,
              "SW result wrong");

    // 64-bit DMA hardware version.
    Platform64 hw_p;
    bench::must_load(hw_p, id);
    apps::store_bytes(hw_p.cpu().plb(), bench::kA64, a.pixels);
    apps::store_bytes(hw_p.cpu().plb(), bench::kB64, b.pixels);
    const apps::DmaTaskStats stats = hw_dma(hw_p);
    RTR_CHECK(apps::fetch_bytes(hw_p.cpu().plb(), bench::kOut64, want.size()) ==
                  want,
              "HW result wrong");
    RTR_CHECK(!hw_p.plb_dock().overflowed(), "FIFO overflow");

    // 32-bit system reference speedup (table 5 column).
    Platform32 r_sw;
    apps::store_bytes(r_sw.cpu().plb(), bench::kA32, a.pixels);
    apps::store_bytes(r_sw.cpu().plb(), bench::kB32, b.pixels);
    const auto t2 = r_sw.kernel().now();
    sw32_fn(r_sw);
    const auto sw32 = r_sw.kernel().now() - t2;
    Platform32 r_hw;
    bench::must_load(r_hw, id);
    apps::store_bytes(r_hw.cpu().plb(), bench::kA32, a.pixels);
    apps::store_bytes(r_hw.cpu().plb(), bench::kB32, b.pixels);
    const auto t3 = r_hw.kernel().now();
    hw32_fn(r_hw);
    const auto hw32 = r_hw.kernel().now() - t3;

    t.row({name, report::fmt_ms(sw_time), report::fmt_ms(stats.total),
           report::fmt_ms(stats.data_preparation),
           report::fmt_x(static_cast<double>(sw_time.ps()) /
                         static_cast<double>(stats.total.ps())),
           report::fmt_x(static_cast<double>(sw32.ps()) /
                         static_cast<double>(hw32.ps()))});
  };

  run(
      "brightness adjustment (+60)", hw::kBrightness,
      [&](Platform64& p) {
        apps::sw_brightness(p.kernel(), bench::kA64, bench::kOut64, n, 60);
      },
      [&](Platform64& p) {
        return apps::hw_brightness_dma(p, bench::kA64, bench::kOut64, n, 60);
      },
      [&](Platform32& p) {
        apps::sw_brightness(p.kernel(), bench::kA32, bench::kOut32, n, 60);
      },
      [&](Platform32& p) {
        apps::hw_brightness_pio(p.kernel(), Platform32::dock_data(),
                                bench::kA32, bench::kOut32, n, 60);
      },
      apps::brightness(a, 60).pixels);

  run(
      "additive blending", hw::kBlendAdd,
      [&](Platform64& p) {
        apps::sw_blend(p.kernel(), bench::kA64, bench::kB64, bench::kOut64, n);
      },
      [&](Platform64& p) {
        return apps::hw_blend_dma(p, bench::kA64, bench::kB64, bench::kStage64,
                                  bench::kOut64, n);
      },
      [&](Platform32& p) {
        apps::sw_blend(p.kernel(), bench::kA32, bench::kB32, bench::kOut32, n);
      },
      [&](Platform32& p) {
        apps::hw_blend_pio(p.kernel(), Platform32::dock_data(), bench::kA32,
                           bench::kB32, bench::kOut32, n);
      },
      apps::blend_add(a, b).pixels);

  run(
      "fade effect (f=160)", hw::kFade,
      [&](Platform64& p) {
        apps::sw_fade(p.kernel(), bench::kA64, bench::kB64, bench::kOut64, n,
                      160);
      },
      [&](Platform64& p) {
        return apps::hw_fade_dma(p, bench::kA64, bench::kB64, bench::kStage64,
                                 bench::kOut64, n, 160);
      },
      [&](Platform32& p) {
        apps::sw_fade(p.kernel(), bench::kA32, bench::kB32, bench::kOut32, n,
                      160);
      },
      [&](Platform32& p) {
        apps::hw_fade_pio(p.kernel(), Platform32::dock_data(), bench::kA32,
                          bench::kB32, bench::kOut32, n, 160);
      },
      apps::fade(a, b, 160).pixels);

  t.print();
  std::printf("\nBrightness gains most from DMA (single source, no data "
              "preparation). Blend/fade pay the CPU-side combining of the "
              "two sources into DMA-able blocks.\n");
  return 0;
}
