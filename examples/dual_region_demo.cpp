// Two separate dynamic areas (section 4.1's suggested alternative): a
// hashing service in area 0 and an image service in area 1, resident
// simultaneously. The one dock re-binds to an area's module before each
// task; no swap reconfigurations.
#include <cstdio>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "rtr/platform.hpp"
#include "sim/random.hpp"

int main() {
  using namespace rtr;
  PlatformOptions opts;
  opts.dynamic_areas = 2;
  Platform64 p{opts};
  std::printf("%s\n", p.topology().c_str());

  const auto s0 = p.load_module(hw::kSha1, 0);
  const auto s1 = p.load_module(hw::kBrightness, 1);
  if (!s0.ok || !s1.ok) {
    std::printf("load failed: %s%s\n", s0.error.c_str(), s1.error.c_str());
    return 1;
  }
  std::printf("area 0: %s loaded in %s\n", p.area_module(0)->name().c_str(),
              s0.duration().to_string().c_str());
  std::printf("area 1: %s loaded in %s\n\n", p.area_module(1)->name().c_str(),
              s1.duration().to_string().c_str());

  // Interleave work for both services without ever reconfiguring.
  sim::Rng rng{12};
  const bus::Addr msg_at = Platform64::kDdrRange.base + 0x10000;
  const bus::Addr img_at = Platform64::kDdrRange.base + 0x20000;
  const bus::Addr out_at = Platform64::kDdrRange.base + 0x30000;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint8_t> msg(512 + rng.below(512));
    for (auto& b : msg) b = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), msg_at, msg);
    p.activate_area(0);
    const auto digest =
        apps::hw_sha1_pio(p.kernel(), Platform64::dock_data(), msg_at,
                          static_cast<std::uint32_t>(msg.size()));
    const bool sha_ok = digest == apps::sha1(msg);

    apps::GrayImage img = apps::GrayImage::make(64, 8);
    for (auto& px : img.pixels) px = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), img_at, img.pixels);
    p.activate_area(1);
    apps::hw_brightness_pio(p.kernel(), Platform64::dock_data(), img_at,
                            out_at, static_cast<int>(img.size()), 20);
    const bool img_ok = apps::fetch_bytes(p.cpu().plb(), out_at, img.size()) ==
                        apps::brightness(img, 20).pixels;

    std::printf("round %d: sha1(%zu bytes) %08X.. %s | brightness %s\n", round,
                msg.size(), digest[0], sha_ok ? "ok" : "WRONG",
                img_ok ? "ok" : "WRONG");
    if (!sha_ok || !img_ok) return 1;
  }
  std::printf("\nboth services stayed resident; total simulated time %s\n",
              p.kernel().now().to_string().c_str());
  return 0;
}
