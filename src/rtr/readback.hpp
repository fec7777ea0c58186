// Configuration readback ("scrubbing"): verify, from software and at run
// time, that the dynamic region really holds the module it claims to.
//
// The driver streams FAR + RCFG packets into the HWICAP, pops every covered
// frame back through the FDRO path, recomputes the region payload hash on
// the CPU and compares it with the hash embedded in the module signature.
// This is the run-time counterpart of the BitLinker's load-time validation,
// and the standard defence against configuration upsets.
#pragma once

#include "bus/types.hpp"
#include "cpu/kernel.hpp"
#include "fabric/dynamic_region.hpp"

namespace rtr {

struct ReadbackStats {
  bool ok = false;          // signature present and payload hash matches
  sim::SimTime duration;    // CPU time spent reading back and hashing
  std::int64_t frames = 0;  // frames read back
};

/// Read back every frame covering `region` through the HWICAP at
/// `icap_base` and verify the signature + payload hash. Fully timed: the
/// frame loop runs on cpu::run_periodic, so untraced and under a quiet
/// fault plan most frames are applied in closed form, with the simulated
/// time, statistics and HWICAP state of the per-word loop.
ReadbackStats readback_verify(cpu::Kernel& k, bus::Addr icap_base,
                              const fabric::DynamicRegion& region);

}  // namespace rtr
