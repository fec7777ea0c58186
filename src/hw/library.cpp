#include "hw/library.hpp"

#include <memory>

#include "busmacro/bus_macro.hpp"
#include "fabric/resources.hpp"
#include "hw/hash_units.hpp"
#include "hw/image_units.hpp"
#include "hw/pattern_matcher.hpp"
#include "sim/check.hpp"

namespace rtr::hw {

ModuleShape shape_of(BehaviorId id) {
  switch (id) {
    case kPatternMatcher:
      // 8-stage pipeline + image buffer addressing; owns 6 BRAMs.
      return {"patmatch", 10, 22, 6, fabric::Resources{700, 1150, 920, 6}};
    case kJenkinsHash:
      // Three 32-bit adders/rotators and a 12-byte block register.
      return {"jenkins", 8, 12, 0, fabric::Resources{310, 520, 400, 0}};
    case kSha1:
      // 80-round datapath with the W-schedule: too tall for the 32-bit
      // system's 11-row region (14 > 11) and bigger than its 308 CLBs.
      return {"sha1", 14, 24, 2, fabric::Resources{1180, 1990, 1610, 2}};
    case kBrightness:
      return {"bright", 8, 6, 0, fabric::Resources{90, 150, 120, 0}};
    case kBlendAdd:
      return {"blend", 8, 8, 0, fabric::Resources{150, 250, 200, 0}};
    case kFade:
      // The (A-B)*f multiply needs the most logic of the three.
      return {"fade", 8, 10, 0, fabric::Resources{240, 410, 330, 0}};
    case kPatternMatcherXl:
      // Wider pipeline + 22-BRAM image buffer: only the 64-bit region
      // (32x24 CLBs) can host it.
      return {"patmatch-xl", 20, 28, 22, fabric::Resources{1450, 2500, 1950, 22}};
    case kLoopback:
      return {"loopback", 8, 6, 0, fabric::Resources{70, 130, 130, 0}};
    case kSink:
      return {"sink", 8, 6, 0, fabric::Resources{40, 70, 70, 0}};
  }
  RTR_CHECK(false, "unknown behaviour id");
  __builtin_unreachable();
}

const char* task_name(BehaviorId id) {
  switch (id) {
    case kPatternMatcher: return "patmatch";
    case kJenkinsHash: return "jenkins";
    case kSha1: return "sha1";
    case kBrightness: return "brightness";
    case kBlendAdd: return "blend";
    case kFade: return "fade";
    case kLoopback: return "loopback";
    case kSink: return "sink";
    case kPatternMatcherXl: return "patmatch-xl";
  }
  RTR_CHECK(false, "unknown behaviour id");
  __builtin_unreachable();
}

bool behavior_from_task_name(std::string_view name, BehaviorId* out) {
  constexpr BehaviorId kAll[] = {kPatternMatcher, kJenkinsHash, kSha1,
                                 kBrightness,     kBlendAdd,    kFade,
                                 kLoopback,       kSink,        kPatternMatcherXl};
  for (const BehaviorId id : kAll) {
    if (name == task_name(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

bitlinker::ComponentDescriptor component_for(BehaviorId id, int dock_width) {
  const ModuleShape s = shape_of(id);
  bitlinker::ComponentDescriptor c;
  c.name = std::string(s.name) + (dock_width == 64 ? "64" : "32");
  c.behavior_id = id;
  c.rows = s.rows;
  c.cols = s.cols;
  c.bram_blocks = s.brams;
  c.logic = s.logic;
  c.macros = busmacro::ConnectionInterface::for_width(dock_width).module_side();
  return c;
}

BehaviorRegistry standard_registry(std::int64_t pattern_capacity_bits) {
  BehaviorRegistry reg;
  reg.add(kPatternMatcher, [pattern_capacity_bits] {
    return std::make_unique<PatternMatcherModule>(pattern_capacity_bits);
  });
  reg.add(kJenkinsHash, [] { return std::make_unique<JenkinsHashModule>(); });
  reg.add(kSha1, [] { return std::make_unique<Sha1Module>(); });
  reg.add(kBrightness, [] { return std::make_unique<BrightnessModule>(); });
  reg.add(kBlendAdd, [] { return std::make_unique<BlendAddModule>(); });
  reg.add(kFade, [] { return std::make_unique<FadeModule>(); });
  reg.add(kPatternMatcherXl, [] {
    return std::make_unique<PatternMatcherXlModule>(bram_bits(22));
  });
  reg.add(kLoopback, [] { return std::make_unique<LoopbackModule>(); });
  reg.add(kSink, [] { return std::make_unique<SinkModule>(); });
  return reg;
}

}  // namespace rtr::hw
