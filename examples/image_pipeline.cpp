// Fade-in/fade-out on the 64-bit system with DMA (sections 3.2/4.2): "the
// fade-in-fade-out effect is obtained by processing the source images
// successively for different values of f". One reconfiguration, then the
// fade module is reused for every frame of the effect.
#include <cstdio>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

int main() {
  using namespace rtr;
  const int w = 320, h = 240;
  const int n = w * h;

  sim::Rng rng{7};
  apps::GrayImage a = apps::GrayImage::make(w, h);
  apps::GrayImage b = apps::GrayImage::make(w, h);
  for (auto& p : a.pixels) p = rng.next_u8();
  for (auto& p : b.pixels) p = rng.next_u8();

  Platform64 p;
  const bus::Addr at = Platform64::kDdrRange.base + 0x0100'0000;
  const bus::Addr bt = Platform64::kDdrRange.base + 0x0200'0000;
  const bus::Addr staging = Platform64::kDdrRange.base + 0x0300'0000;
  const bus::Addr out = Platform64::kDdrRange.base + 0x0400'0000;
  apps::store_bytes(p.cpu().plb(), at, a.pixels);
  apps::store_bytes(p.cpu().plb(), bt, b.pixels);

  const auto load = p.load_module(hw::kFade);
  if (!load.ok) {
    std::printf("load failed: %s\n", load.error.c_str());
    return 1;
  }
  std::printf("fade module loaded in %s; %dx%d frames, 64-bit DMA with the "
              "%d-deep output FIFO\n\n",
              load.duration().to_string().c_str(), w, h,
              p.plb_dock().fifo_depth());

  std::printf("%8s %14s %14s %10s\n", "f", "data prep", "frame total",
              "verified");
  sim::SimTime total;
  for (int f = 0; f <= 256; f += 32) {
    const auto stats = apps::hw_fade_dma(p, at, bt, staging, out, n, f);
    const bool ok = apps::fetch_bytes(p.cpu().plb(), out, a.pixels.size()) ==
                    apps::fade(a, b, f).pixels;
    std::printf("%8d %14s %14s %10s\n", f,
                stats.data_preparation.to_string().c_str(),
                stats.total.to_string().c_str(), ok ? "yes" : "NO");
    if (!ok) return 1;
    total += stats.total;
  }
  std::printf("\n9-frame effect in %s of simulated time "
              "(one reconfiguration, many frames).\n",
              total.to_string().c_str());
  return 0;
}
