// Per-word vs closed-form configuration streaming. detail::icap_load_loop
// runs every word through the CPU, bus and ICAP models and is the
// reference; detail::icap_load_bulk must leave the simulation in exactly
// the state the reference leaves: words streamed, CPU time, every exported
// statistic, every configuration frame and the ICAP state machine. Cases
// cover every ordered module pair on the XC2VP7, the XC2VP30 and the
// XC2VP30's second area, complete and differential plans, and watchdog
// deadlines on and around the word boundaries.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "rtr/plan_cache.hpp"
#include "rtr/platform.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

constexpr hw::BehaviorId kBehaviors[] = {
    hw::kPatternMatcher, hw::kJenkinsHash, hw::kSha1,
    hw::kPatternMatcherXl, hw::kBrightness, hw::kBlendAdd,
    hw::kFade,           hw::kLoopback,    hw::kSink};

enum class Path { kPerWord, kBulk };

/// The state both streaming paths must leave behind (the bus reservations
/// decide when the next transfer may start).
struct Outcome {
  std::int64_t streamed = 0;
  SimTime now;
  std::string stats;
  std::vector<std::uint32_t> frames;
  std::int64_t icap_words = 0;
  std::int64_t icap_frames = 0;
  SimTime plb_busy_until;
  SimTime opb_busy_until;
  bool synced = false;
  bool error = false;
  bool done = false;
  std::int64_t bus_opportunities_at_start = 0;  // with a fault plan armed
  SimTime first_fault;  // the first injection, if any
};

/// A fault plan armed from construction; with `repair_bus`, its bus specs
/// are repaired before the stream starts.
struct Faults {
  std::vector<std::string> specs;
  bool repair_bus = false;
};

void expect_same(const Outcome& ref, const Outcome& got) {
  EXPECT_EQ(got.streamed, ref.streamed);
  EXPECT_EQ(got.now, ref.now);
  EXPECT_EQ(got.stats, ref.stats);
  EXPECT_TRUE(got.frames == ref.frames) << "configuration frames differ";
  EXPECT_EQ(got.icap_words, ref.icap_words);
  EXPECT_EQ(got.icap_frames, ref.icap_frames);
  EXPECT_EQ(got.plb_busy_until, ref.plb_busy_until);
  EXPECT_EQ(got.opb_busy_until, ref.opb_busy_until);
  EXPECT_EQ(got.synced, ref.synced);
  EXPECT_EQ(got.error, ref.error);
  EXPECT_EQ(got.done, ref.done);
  EXPECT_EQ(got.first_fault, ref.first_fault);
}

/// One device layout under test: `areas` dynamic areas, streaming into
/// `area`. Plans are pure in (behaviour, width, area), so one planning
/// platform's linker serves every case.
template <typename P>
class Streams {
 public:
  static constexpr int kWidth = std::is_same_v<P, Platform32> ? 32 : 64;

  Streams(int areas, int area)
      : areas_(areas), area_(area), planner_(options(areas, nullptr)) {}

  /// The complete plan for `id` in this layout's area; null when `id`
  /// does not fit there.
  const PlanCache::Plan* complete(hw::BehaviorId id) {
    std::string err;
    bool hit = false;
    return plans_.complete(planner_.linker(area_), id, kWidth, &err, &hit,
                           area_);
  }
  const PlanCache::Plan* differential(hw::BehaviorId from,
                                      hw::BehaviorId to) {
    std::string err;
    bool hit = false;
    return plans_.differential(planner_.linker(area_), from, to, kWidth, &err,
                               &hit, area_);
  }

  /// A fresh platform with `resident` loaded into the area, `words` staged
  /// and the ICAP reset, then `words` streamed by `path`.
  /// `reserved` keeps both buses busy that long past the stream's start,
  /// as a transfer still in flight would.
  Outcome run(const PlanCache::Plan& resident,
              const std::vector<std::uint32_t>& words, SimTime deadline,
              Path path, trace::Tracer* tracer = nullptr,
              SimTime reserved = {}, const Faults& faults = {}) {
    PlatformOptions opts = options(areas_, tracer);
    for (const std::string& text : faults.specs) {
      fault::FaultSpec spec;
      EXPECT_TRUE(fault::FaultSpec::parse(text, &spec)) << text;
      opts.fault_plan.add(spec);
    }
    P p{opts};
    prepare(p, resident, words);
    if (reserved.ps() > 0) {
      p.cpu().plb().set_busy_until(p.kernel().now() + reserved);
      p.opb().set_busy_until(p.kernel().now() + reserved);
    }
    const Addr icap_base = p.icap_ctl().range().base;
    Outcome o;
    if (fault::FaultInjector* fi = p.faults()) {
      if (faults.repair_bus) fi->repair(fault::Site::kBus);
      o.bus_opportunities_at_start = fi->opportunities(fault::Site::kBus);
    }
    o.streamed =
        path == Path::kPerWord
            ? detail::icap_load_loop(
                  p.kernel(), P::kConfigStaging,
                  static_cast<std::int64_t>(words.size()),
                  icap_base + icap::IcapController::kDataReg, deadline)
            : detail::icap_load_bulk(p.kernel(), words, P::kConfigStaging,
                                     p.icap_ctl(), deadline);
    o.now = p.kernel().now();
    std::ostringstream os;
    p.sim().stats().export_json(os);
    o.stats = os.str();
    o.frames = p.fabric_state().snapshot();
    o.icap_words = p.icap_ctl().words_consumed();
    o.icap_frames = p.icap_ctl().frames_written();
    o.plb_busy_until = p.cpu().plb().busy_until();
    o.opb_busy_until = p.opb().busy_until();
    o.synced = p.icap_ctl().synced();
    o.error = p.icap_ctl().error();
    o.done = p.icap_ctl().done();
    if (p.faults() != nullptr) o.first_fault = p.faults()->first_injection();
    return o;
  }

  /// Start time of every word of a per-word stream: the CPU issues word
  /// i's load at the moment it starts, and the PLB trace records it.
  std::vector<SimTime> word_starts(const PlanCache::Plan& resident,
                                   const std::vector<std::uint32_t>& words) {
    trace::Tracer tr;
    tr.enable();
    P p{options(areas_, &tr)};
    prepare(p, resident, words);
    tr.clear();
    const Addr icap_base = p.icap_ctl().range().base;
    detail::icap_load_loop(p.kernel(), P::kConfigStaging,
                           static_cast<std::int64_t>(words.size()),
                           icap_base + icap::IcapController::kDataReg);
    const int plb = tr.track("PLB");
    std::vector<SimTime> starts;
    for (const trace::TraceEvent& e : tr.events()) {
      if (e.track == plb && e.name == "rd") starts.emplace_back(e.ts_ps);
    }
    return starts;
  }

  /// Per-word and bulk streaming of `to` over a resident `from` agree.
  void expect_equivalent(hw::BehaviorId from, hw::BehaviorId to,
                         bool differential, SimTime deadline) {
    const PlanCache::Plan* resident = complete(from);
    const PlanCache::Plan* plan =
        differential ? this->differential(from, to) : complete(to);
    ASSERT_NE(resident, nullptr);
    ASSERT_NE(plan, nullptr);
    SCOPED_TRACE(std::string(hw::task_name(from)) + " -> " +
                 hw::task_name(to) +
                 (differential ? " (differential)" : " (complete)") +
                 ", deadline " + std::to_string(deadline.ps()) + " ps");
    expect_same(run(*resident, plan->words, deadline, Path::kPerWord),
                run(*resident, plan->words, deadline, Path::kBulk));
  }

  /// Every behaviour that fits this layout's area.
  std::vector<hw::BehaviorId> fitting() {
    std::vector<hw::BehaviorId> out;
    for (hw::BehaviorId id : kBehaviors) {
      if (complete(id) != nullptr) out.push_back(id);
    }
    return out;
  }

 private:
  static PlatformOptions options(int areas, trace::Tracer* tracer) {
    PlatformOptions o;
    o.dynamic_areas = areas;
    o.tracer = tracer;
    return o;
  }

  void prepare(P& p, const PlanCache::Plan& resident,
               const std::vector<std::uint32_t>& words) {
    ASSERT_TRUE(p.load_stream(resident.words, resident.payload_bytes,
                              /*differential=*/false, area_)
                    .ok);
    p.ext_mem().poke_block(
        P::kConfigStaging,
        {reinterpret_cast<const std::uint8_t*>(words.data()),
         words.size() * 4});
    p.cpu().store32(
        p.icap_ctl().range().base + icap::IcapController::kControlReg, 1);
  }

  int areas_;
  int area_;
  P planner_;
  PlanCache plans_{64};
};

template <typename P>
void every_pair(int areas, int area, bool differential) {
  Streams<P> s(areas, area);
  const std::vector<hw::BehaviorId> ids = s.fitting();
  ASSERT_GE(ids.size(), 4u);
  for (hw::BehaviorId from : ids) {
    for (hw::BehaviorId to : ids) {
      if (from == to) continue;
      s.expect_equivalent(from, to, differential, SimTime{});
    }
  }
}

/// Deadlines on and one picosecond past the start of words 0, 1, 2, 3, a
/// mid-stream word and the last word, plus one long before the stream.
template <typename P>
void every_deadline(int areas, int area, bool differential) {
  Streams<P> s(areas, area);
  const hw::BehaviorId from = hw::kBrightness;
  const hw::BehaviorId to = hw::kFade;
  const PlanCache::Plan* resident = s.complete(from);
  const PlanCache::Plan* plan =
      differential ? s.differential(from, to) : s.complete(to);
  ASSERT_NE(plan, nullptr);
  const std::vector<SimTime> starts = s.word_starts(*resident, plan->words);
  ASSERT_EQ(starts.size(), plan->words.size());
  const std::size_t n = starts.size();
  std::vector<SimTime> deadlines{SimTime{1}};
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, n / 2, n - 1}) {
    deadlines.push_back(starts[i]);
    deadlines.push_back(starts[i] + SimTime{1});
  }
  for (const SimTime d : deadlines) {
    s.expect_equivalent(from, to, differential, d);
  }
}

TEST(StreamEquivalence, Platform32EveryPairComplete) {
  every_pair<Platform32>(1, 0, false);
}
TEST(StreamEquivalence, Platform32EveryPairDifferential) {
  every_pair<Platform32>(1, 0, true);
}
TEST(StreamEquivalence, Platform64EveryPairComplete) {
  every_pair<Platform64>(1, 0, false);
}
TEST(StreamEquivalence, Platform64EveryPairDifferential) {
  every_pair<Platform64>(1, 0, true);
}
TEST(StreamEquivalence, Platform64SecondAreaEveryPairComplete) {
  every_pair<Platform64>(2, 1, false);
}
TEST(StreamEquivalence, Platform64SecondAreaEveryPairDifferential) {
  every_pair<Platform64>(2, 1, true);
}

TEST(StreamEquivalence, Platform32WatchdogCuts) {
  every_deadline<Platform32>(1, 0, false);
  every_deadline<Platform32>(1, 0, true);
}
TEST(StreamEquivalence, Platform64WatchdogCuts) {
  every_deadline<Platform64>(1, 0, false);
  every_deadline<Platform64>(1, 0, true);
}
TEST(StreamEquivalence, Platform64SecondAreaWatchdogCuts) {
  every_deadline<Platform64>(2, 1, false);
  every_deadline<Platform64>(2, 1, true);
}

TEST(StreamEquivalence, ShortStreamsMatch) {
  // Under four words the bulk path is the per-word loop; the boundary
  // itself (four words, two of them replayed) must match too.
  Streams<Platform64> s(1, 0);
  const PlanCache::Plan* resident = s.complete(hw::kBrightness);
  ASSERT_NE(resident, nullptr);
  for (std::size_t n = 0; n <= 6; ++n) {
    SCOPED_TRACE(n);
    const std::vector<std::uint32_t> words(n, bitstream::kDummyWord);
    expect_same(s.run(*resident, words, SimTime{}, Path::kPerWord),
                s.run(*resident, words, SimTime{}, Path::kBulk));
  }
}

TEST(StreamEquivalence, ReservedBusesAtTheStartMatch) {
  // A reservation left on the buses delays the first words; word 0 absorbs
  // it before the template word is taken.
  Streams<Platform32> s(1, 0);
  const PlanCache::Plan* resident = s.complete(hw::kBrightness);
  const PlanCache::Plan* plan = s.complete(hw::kBlendAdd);
  ASSERT_NE(plan, nullptr);
  for (const SimTime r : {SimTime{37'000}, SimTime::from_us(1)}) {
    SCOPED_TRACE(r.ps());
    expect_same(
        s.run(*resident, plan->words, SimTime{}, Path::kPerWord, nullptr, r),
        s.run(*resident, plan->words, SimTime{}, Path::kBulk, nullptr, r));
  }
}

TEST(StreamEquivalence, QuietFaultPlansMatch) {
  // Whole-device specs and a repaired bus spec keep the closed form; the
  // bulk words still count their bus and ICAP opportunities
  // (fault.opportunities.* in the stats export).
  const std::vector<Faults> plans = {
      {{"fail_stop:once@0:1"}},
      {{"brownout:every@1:3"}},
      {{"bus:stuck@4000000000:5"}, /*repair_bus=*/true}};
  Streams<Platform32> s32(1, 0);
  Streams<Platform64> s64(1, 0);
  for (const Faults& f : plans) {
    SCOPED_TRACE(f.specs.front());
    for (const bool differential : {false, true}) {
      SCOPED_TRACE(differential);
      const auto pair = [&](auto& s) {
        const PlanCache::Plan* resident = s.complete(hw::kBrightness);
        const PlanCache::Plan* plan =
            differential ? s.differential(hw::kBrightness, hw::kFade)
                         : s.complete(hw::kFade);
        ASSERT_NE(plan, nullptr);
        expect_same(s.run(*resident, plan->words, SimTime{}, Path::kPerWord,
                          nullptr, {}, f),
                    s.run(*resident, plan->words, SimTime{}, Path::kBulk,
                          nullptr, {}, f));
      };
      pair(s32);
      pair(s64);
    }
  }
}

TEST(StreamEquivalence, BusFaultInsideTheStreamMatchesTheReference) {
  // bus:once@N with N inside the stream: the bulk path streams every word
  // through the models and the fault fires at the reference's transaction.
  Streams<Platform64> s(1, 0);
  const PlanCache::Plan* resident = s.complete(hw::kBrightness);
  const PlanCache::Plan* plan = s.complete(hw::kFade);
  ASSERT_NE(plan, nullptr);
  const Outcome quiet = s.run(*resident, plan->words, SimTime{}, Path::kBulk,
                              nullptr, {}, {{"fail_stop:once@0:1"}});
  const std::int64_t n = quiet.bus_opportunities_at_start + 301;
  const Faults f{{"bus:once@" + std::to_string(n) + ":9"}};
  const Outcome ref =
      s.run(*resident, plan->words, SimTime{}, Path::kPerWord, nullptr, {}, f);
  expect_same(ref, s.run(*resident, plan->words, SimTime{}, Path::kBulk,
                         nullptr, {}, f));
  EXPECT_EQ(ref.bus_opportunities_at_start, quiet.bus_opportunities_at_start);
  EXPECT_NE(ref.stats.find("\"fault.injected.bus\": 1"), std::string::npos);
  EXPECT_GT(ref.first_fault, SimTime{});
}

TEST(StreamEquivalence, TracedRunsAgreeWithUntraced) {
  // A tracer selects the per-word path; the statistics it leaves are those
  // of the untraced bulk path.
  Streams<Platform32> s(1, 0);
  const PlanCache::Plan* resident = s.complete(hw::kJenkinsHash);
  const PlanCache::Plan* plan = s.differential(hw::kJenkinsHash, hw::kFade);
  ASSERT_NE(plan, nullptr);
  trace::Tracer tr;
  tr.enable();
  const Outcome traced =
      s.run(*resident, plan->words, SimTime{}, Path::kBulk, &tr);
  EXPECT_GT(tr.size(), plan->words.size());
  expect_same(traced, s.run(*resident, plan->words, SimTime{}, Path::kBulk));
}

}  // namespace
}  // namespace rtr
