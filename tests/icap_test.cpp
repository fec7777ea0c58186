// Tests for the ICAP/HWICAP model: stream application, CRC and IDCODE
// checking, interrupted reconfigurations, bus-level behaviour and timing,
// and the whole-frame feed(span) path against the per-word reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bitlinker/bitlinker.hpp"
#include "bitstream/partial_config.hpp"
#include "bus/bus.hpp"
#include "busmacro/bus_macro.hpp"
#include "fabric/device.hpp"
#include "fabric/dynamic_region.hpp"
#include "icap/icap.hpp"
#include "rtr/plan_cache.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"

namespace rtr::icap {
namespace {

using bitlinker::BitLinker;
using bitlinker::ComponentDescriptor;
using bitlinker::LinkResult;
using bitstream::ConfigReg;
using bitstream::Opcode;
using bitstream::PartialConfig;
using busmacro::ConnectionInterface;
using fabric::ConfigMemory;
using fabric::Device;
using fabric::DynamicRegion;
using fabric::FrameAddress;
using sim::Frequency;
using sim::SimTime;

ComponentDescriptor small_component(int behavior = 5) {
  ComponentDescriptor c;
  c.name = "unit";
  c.behavior_id = behavior;
  c.rows = 8;
  c.cols = 10;
  c.logic = fabric::Resources{100, 180, 150, 0};
  c.macros = ConnectionInterface::for_width(32).module_side();
  return c;
}

struct IcapFixture {
  DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory baseline{region.device()};
  ConfigMemory fabric_state{region.device()};
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("icap", Frequency::from_mhz(50));
  IcapController icap{sim, clk, {0x4100'0000, 0x1000}, fabric_state};
  BitLinker linker{region, ConnectionInterface::for_width(32), baseline};

  std::vector<std::uint32_t> linked_words(int behavior = 5) {
    const LinkResult r = linker.link_single(small_component(behavior));
    RTR_CHECK(r.ok(), "fixture link failed");
    return bitstream::serialize(*r.config);
  }
};

TEST(IcapTest, AppliesACompleteConfiguration) {
  IcapFixture fx;
  const auto words = fx.linked_words();
  fx.icap.feed(words);
  EXPECT_TRUE(fx.icap.done());
  EXPECT_FALSE(fx.icap.error());
  EXPECT_EQ(fx.icap.frames_written(), fx.region.covered_frames());
  // The fabric now carries a valid module 5 with a matching payload hash.
  EXPECT_EQ(fx.region.scan_signature(fx.fabric_state), 5);
  const auto sig = fx.fabric_state.frame(fx.region.signature_frame());
  EXPECT_EQ(sig[static_cast<std::size_t>(fx.region.signature_word() + 3)],
            bitlinker::region_payload_hash(fx.fabric_state, fx.region));
}

TEST(IcapTest, MatchesOfflineParserApplication) {
  // The ICAP word-at-a-time FSM and the offline parser must agree.
  IcapFixture fx;
  const auto words = fx.linked_words(9);
  fx.icap.feed(words);

  ConfigMemory via_parser{fx.region.device()};
  bitstream::parse(words, fx.region.device()).apply_to(via_parser);
  EXPECT_EQ(ConfigMemory::diff_frames(fx.fabric_state, via_parser), 0);
}

TEST(IcapTest, DetectsCorruptedPayload) {
  IcapFixture fx;
  auto words = fx.linked_words();
  // Flip a bit deep inside the frame data.
  words[words.size() / 2] ^= 0x10;
  fx.icap.feed(words);
  EXPECT_TRUE(fx.icap.error());
  EXPECT_FALSE(fx.icap.done());
}

TEST(IcapTest, RejectsWrongDeviceIdcode) {
  IcapFixture fx;
  // A configuration serialised for the XC2VP30 fed to an XC2VP7's ICAP.
  PartialConfig other{Device::xc2vp30()};
  const auto words = bitstream::serialize(other);
  fx.icap.feed(words);
  EXPECT_TRUE(fx.icap.error());
  EXPECT_EQ(fx.icap.frames_written(), 0);
}

TEST(IcapTest, InterruptedStreamLeavesNoBoundSignature) {
  IcapFixture fx;
  // Load module 5 completely, then half of module 6's configuration.
  fx.icap.feed(fx.linked_words(5));
  ASSERT_EQ(fx.region.scan_signature(fx.fabric_state), 5);
  fx.icap.reset();
  const auto words6 = fx.linked_words(6);
  fx.icap.feed(std::span{words6}.first(words6.size() / 8));
  EXPECT_FALSE(fx.icap.done());
  // The region is a half-5 half-6 mixture now. Either the signature frame
  // still carries 5's id (but the payload hash mismatches) or no coherent
  // signature validates. Both must prevent binding.
  const int sig = fx.region.scan_signature(fx.fabric_state);
  if (sig >= 0) {
    const auto f = fx.fabric_state.frame(fx.region.signature_frame());
    EXPECT_NE(f[static_cast<std::size_t>(fx.region.signature_word() + 3)],
              bitlinker::region_payload_hash(fx.fabric_state, fx.region));
  }
}

TEST(IcapTest, ErrorIsLatchedUntilReset) {
  IcapFixture fx;
  auto bad = fx.linked_words();
  bad[bad.size() / 2] ^= 1;
  fx.icap.feed(bad);
  ASSERT_TRUE(fx.icap.error());
  const auto frames_after_error = fx.icap.frames_written();
  // More words are ignored while the error is latched.
  fx.icap.feed(fx.linked_words());
  EXPECT_EQ(fx.icap.frames_written(), frames_after_error);
  // Reset + reload succeeds.
  fx.icap.reset();
  fx.icap.feed(fx.linked_words());
  EXPECT_TRUE(fx.icap.done());
}

TEST(IcapTest, PartialFrameIsNotApplied) {
  IcapFixture fx;
  const auto words = fx.linked_words();
  // Stop a few words into the first frame's payload: the config memory
  // must still be untouched (frames are the hardware atom).
  // Stream prefix: DUMMY SYNC [IDCODE pkt: 2] [CMD RCRC: 2] [FAR: 2]
  // [CMD WCFG: 2] [FDRI T1: 1] [T2 hdr: 1] then payload.
  const std::size_t header_words = 2 + 2 + 2 + 2 + 2 + 1 + 1;
  fx.icap.feed(std::span{words}.first(header_words + 10));  // 10 < 42
  EXPECT_EQ(fx.icap.frames_written(), 0);
  ConfigMemory blank{fx.region.device()};
  EXPECT_EQ(ConfigMemory::diff_frames(fx.fabric_state, blank), 0);
}

// --- bus-level behaviour -----------------------------------------------------

TEST(IcapTest, BusInterfaceStatusAndControl) {
  IcapFixture fx;
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);

  // Initially unsynced, no flags.
  auto st = opb.read(0x4100'0008, 4, SimTime::zero());
  EXPECT_EQ(st.data, 0u);

  // Stream a config through the bus.
  SimTime t = st.done;
  for (std::uint32_t w : fx.linked_words()) {
    t = opb.write(0x4100'0000, w, 4, t);
  }
  st = opb.read(0x4100'0008, 4, t);
  EXPECT_EQ(st.data & IcapController::kStatusDone, IcapController::kStatusDone);

  // Control reset clears the done flag.
  t = opb.write(0x4100'000C, 1, 4, st.done);
  st = opb.read(0x4100'0008, 4, t);
  EXPECT_EQ(st.data, 0u);
}

TEST(IcapTest, WordWritesPayIcapWaitStates) {
  IcapFixture fx;
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);
  // arb(2) + addr(1) + icap(5) + completion(1) = 9 OPB cycles per word.
  const SimTime done = opb.write(0x4100'0000, bitstream::kDummyWord, 4,
                                 SimTime::zero());
  EXPECT_EQ(done, fx.clk.cycles(9));
}

TEST(IcapTest, ReconfigurationTimeScale) {
  // A complete configuration for the 32-bit region is ~130 KB; at one
  // 32-bit word per 8 OPB cycles (50 MHz) loading must land in the
  // milliseconds -- the scale the paper's tools produce on this device.
  IcapFixture fx;
  const auto words = fx.linked_words();
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);
  SimTime t = SimTime::zero();
  for (std::uint32_t w : words) t = opb.write(0x4100'0000, w, 4, t);
  EXPECT_GT(t, SimTime::from_ms(3));
  EXPECT_LT(t, SimTime::from_ms(15));
}

// --- feed(span) against the per-word reference -------------------------------

/// An ICAP over its own blank fabric and statistics.
struct Rig {
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("icap", Frequency::from_mhz(50));
  ConfigMemory fabric;
  IcapController icap;
  explicit Rig(const Device& dev)
      : fabric{dev}, icap{sim, clk, {0x4100'0000, 0x1000}, fabric} {}
};

/// Feed `words` to `ref` one feed_word call at a time and to `got` through
/// feed(span); both must end in the same state.
void feed_both(Rig& ref, Rig& got, std::span<const std::uint32_t> words) {
  for (const std::uint32_t w : words) ref.icap.feed_word(w);
  got.icap.feed(words);
  EXPECT_EQ(ConfigMemory::diff_frames(got.fabric, ref.fabric), 0);
  EXPECT_EQ(got.icap.error(), ref.icap.error());
  EXPECT_EQ(got.icap.synced(), ref.icap.synced());
  EXPECT_EQ(got.icap.done(), ref.icap.done());
  EXPECT_EQ(got.icap.words_consumed(), ref.icap.words_consumed());
  EXPECT_EQ(got.icap.frames_written(), ref.icap.frames_written());
  EXPECT_EQ(got.sim.stats().counter("icap.frames").value(),
            ref.sim.stats().counter("icap.frames").value());
}

/// Index of the first word equal to `w` (the stream must contain it).
std::size_t index_of(const std::vector<std::uint32_t>& words,
                     std::uint32_t w) {
  const auto it = std::find(words.begin(), words.end(), w);
  RTR_CHECK(it != words.end(), "word not in stream");
  return static_cast<std::size_t>(it - words.begin());
}

constexpr std::uint32_t kFdriLong = bitstream::make_type1(
    Opcode::kWrite, ConfigReg::kFdri, 0);  // a type-2 header follows

/// `words` with every type-2 FDRI payload re-sent as type-1 FDRI packets of
/// at most `chunk` words. The CRC covers register writes, not headers, so
/// the stream stays valid; frames now straddle packet boundaries.
std::vector<std::uint32_t> repacketize(const std::vector<std::uint32_t>& words,
                                       std::uint32_t chunk) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < words.size();) {
    if (words[i] != kFdriLong) {
      out.push_back(words[i++]);
      continue;
    }
    const std::uint32_t n = bitstream::decode_header(words[i + 1]).word_count;
    const auto payload = words.begin() + static_cast<std::ptrdiff_t>(i + 2);
    for (std::uint32_t k = 0; k < n; k += chunk) {
      const std::uint32_t m = std::min(chunk, n - k);
      out.push_back(bitstream::make_type1(Opcode::kWrite, ConfigReg::kFdri, m));
      out.insert(out.end(), payload + k, payload + k + m);
    }
    i += 2 + n;
  }
  return out;
}

constexpr hw::BehaviorId kBehaviors[] = {
    hw::kPatternMatcher, hw::kJenkinsHash, hw::kSha1,
    hw::kPatternMatcherXl, hw::kBrightness, hw::kBlendAdd,
    hw::kFade,           hw::kLoopback,    hw::kSink};

/// Complete and differential plans for one region, built by a PlanCache
/// as the platforms build them (over a blank static design).
struct Plans {
  DynamicRegion region;
  int width;
  int area;
  ConfigMemory baseline{region.device()};
  BitLinker linker{region, ConnectionInterface::for_width(width), baseline};
  PlanCache cache{64};

  const PlanCache::Plan* complete(hw::BehaviorId id) {
    return cache.complete(linker, id, width, nullptr, nullptr, area);
  }
  const PlanCache::Plan* differential(hw::BehaviorId from,
                                      hw::BehaviorId to) {
    return cache.differential(linker, from, to, width, nullptr, nullptr,
                              area);
  }
  std::vector<hw::BehaviorId> fitting() {
    std::vector<hw::BehaviorId> out;
    for (hw::BehaviorId id : kBehaviors) {
      if (complete(id) != nullptr) out.push_back(id);
    }
    return out;
  }
};

TEST(IcapFeed, EveryModulePairCompleteAndDifferential) {
  Plans layouts[] = {{DynamicRegion::xc2vp7_region(), 32, 0},
                     {DynamicRegion::xc2vp30_region(), 64, 0},
                     {DynamicRegion::xc2vp30_region_b(), 64, 1}};
  for (Plans& plans : layouts) {
    const Device& dev = plans.region.device();
    const std::vector<hw::BehaviorId> ids = plans.fitting();
    ASSERT_GE(ids.size(), 4u);
    for (hw::BehaviorId from : ids) {
      for (hw::BehaviorId to : ids) {
        if (from == to) continue;
        for (const bool differential : {false, true}) {
          SCOPED_TRACE(dev.name() + " area " + std::to_string(plans.area) +
                       ": " + hw::task_name(from) + " -> " +
                       hw::task_name(to) +
                       (differential ? " (differential)" : " (complete)"));
          const PlanCache::Plan* plan = differential
                                            ? plans.differential(from, to)
                                            : plans.complete(to);
          ASSERT_NE(plan, nullptr);
          Rig ref{dev}, got{dev};
          feed_both(ref, got, plans.complete(from)->words);
          feed_both(ref, got, plan->words);
          EXPECT_TRUE(got.icap.done());
        }
      }
    }
  }
}

TEST(IcapFeed, StreamCutMidFrameAndResumed) {
  // Cuts on and around the first frame's boundaries, and random pieces
  // down to single words: a piece that ends mid-frame leaves frame_buf_
  // non-empty, and the next piece must finish that frame word by word.
  Plans plans{DynamicRegion::xc2vp30_region(), 64, 0};
  const std::vector<std::uint32_t>& words = plans.complete(hw::kFade)->words;
  const std::size_t n = words.size();
  const auto wpf =
      static_cast<std::size_t>(Device::xc2vp30().words_per_frame());
  const std::size_t p = index_of(words, kFdriLong) + 2;  // first payload word
  for (const std::size_t cut :
       {std::size_t{1}, p - 1, p, p + 1, p + wpf - 1, p + wpf, p + wpf + 1,
        p + 3 * wpf / 2, n / 2, n - 2}) {
    SCOPED_TRACE(cut);
    Rig ref{Device::xc2vp30()}, got{Device::xc2vp30()};
    feed_both(ref, got, std::span{words}.first(cut));
    feed_both(ref, got, std::span{words}.subspan(cut));
    EXPECT_TRUE(got.icap.done());
  }
  sim::Rng rng{16};
  Rig ref{Device::xc2vp30()}, got{Device::xc2vp30()};
  for (std::size_t i = 0; i < n;) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.below(3 * wpf), n - i);
    feed_both(ref, got, std::span{words}.subspan(i, len));
    i += len;
  }
  EXPECT_TRUE(got.icap.done());
}

TEST(IcapFeed, FramesStraddlingType1Packets) {
  // FDRI payloads in type-1 packets of 1.5 frames, of one word short of a
  // frame and of single words: the frame path may never read past the
  // packet into the next header.
  Plans plans{DynamicRegion::xc2vp30_region(), 64, 0};
  const std::vector<std::uint32_t>& words =
      plans.differential(hw::kBrightness, hw::kBlendAdd)->words;
  for (const std::uint32_t chunk : {123u, 81u, 82u, 164u, 1u}) {
    SCOPED_TRACE(chunk);
    const std::vector<std::uint32_t> packets = repacketize(words, chunk);
    ASSERT_GT(packets.size(), words.size());
    Rig ref{Device::xc2vp30()}, got{Device::xc2vp30()};
    feed_both(ref, got, packets);
    EXPECT_TRUE(got.icap.done());
  }
}

TEST(IcapFeed, FarAtTheDevicesLastFrame) {
  const Device& dev = Device::xc2vp7();
  FrameAddress last{fabric::ColumnType::kClb, 0, 0};
  for (FrameAddress a = last; a.valid_for(dev); a = a.next_in(dev)) last = a;
  PartialConfig cfg{dev};
  const auto wpf = static_cast<std::size_t>(dev.words_per_frame());
  std::vector<std::uint32_t> frame(wpf);
  for (std::size_t i = 0; i < wpf; ++i) {
    frame[i] = 0x100u + static_cast<std::uint32_t>(i);
  }
  cfg.add_run({last, 1, frame});
  const std::vector<std::uint32_t> words = bitstream::serialize(cfg);
  {
    // One frame: written, after which the FAR runs off the device.
    SCOPED_TRACE("one frame");
    Rig ref{dev}, got{dev};
    feed_both(ref, got, words);
    EXPECT_TRUE(got.icap.done());
    EXPECT_EQ(got.icap.frames_written(), 1);
  }
  {
    // Two frames from the last one: the second frame's first word fails.
    SCOPED_TRACE("two frames");
    std::vector<std::uint32_t> longer = words;
    const std::size_t t2 = index_of(longer, kFdriLong) + 1;
    longer[t2] = bitstream::make_type2(Opcode::kWrite,
                                       static_cast<std::uint32_t>(2 * wpf));
    longer.insert(longer.begin() + static_cast<std::ptrdiff_t>(t2 + 1 + wpf),
                  frame.begin(), frame.end());
    Rig ref{dev}, got{dev};
    feed_both(ref, got, longer);
    EXPECT_TRUE(got.icap.error());
    EXPECT_EQ(got.icap.frames_written(), 1);
  }
}

TEST(IcapFeed, CorruptedCrcWord) {
  Plans plans{DynamicRegion::xc2vp7_region(), 32, 0};
  std::vector<std::uint32_t> words = plans.complete(hw::kJenkinsHash)->words;
  // serialize() ends CRC-header, check word, DESYNC (2 words), DUMMY.
  const std::size_t check = words.size() - 4;
  ASSERT_EQ(words[check - 1],
            bitstream::make_type1(Opcode::kWrite, ConfigReg::kCrc, 1));
  words[check] ^= 0x80u;
  Rig ref{Device::xc2vp7()}, got{Device::xc2vp7()};
  feed_both(ref, got, words);
  EXPECT_TRUE(got.icap.error());
  EXPECT_FALSE(got.icap.done());
  EXPECT_EQ(got.icap.frames_written(), plans.region.covered_frames());
}

TEST(IcapFeed, LongPacketToAnotherRegister) {
  // Two frames' worth of NULL commands while the FAR is valid: only FDRI
  // payload words may be taken as frames.
  Plans plans{DynamicRegion::xc2vp7_region(), 32, 0};
  std::vector<std::uint32_t> words = plans.complete(hw::kJenkinsHash)->words;
  const auto wpf =
      static_cast<std::uint32_t>(Device::xc2vp7().words_per_frame());
  const std::size_t desync = words.size() - 3;
  ASSERT_EQ(words[desync],
            bitstream::make_type1(Opcode::kWrite, ConfigReg::kCmd, 1));
  std::vector<std::uint32_t> nulls(2 * wpf + 1, 0u);
  nulls.front() = bitstream::make_type1(Opcode::kWrite, ConfigReg::kCmd,
                                        2 * wpf);
  words.insert(words.begin() + static_cast<std::ptrdiff_t>(desync),
               nulls.begin(), nulls.end());
  Rig ref{Device::xc2vp7()}, got{Device::xc2vp7()};
  feed_both(ref, got, words);
  EXPECT_TRUE(got.icap.done());
  EXPECT_EQ(got.icap.frames_written(), plans.region.covered_frames());
}

TEST(IcapFeed, ErrorLatchedMidPayload) {
  // A readback pop while readback is not armed latches an error without
  // leaving the synced state; the rest of the payload must be ignored.
  Plans plans{DynamicRegion::xc2vp7_region(), 32, 0};
  const std::vector<std::uint32_t>& words =
      plans.complete(hw::kJenkinsHash)->words;
  const auto wpf =
      static_cast<std::size_t>(Device::xc2vp7().words_per_frame());
  const std::size_t cut = index_of(words, kFdriLong) + 2 + 3 * wpf;
  Rig ref{Device::xc2vp7()}, got{Device::xc2vp7()};
  feed_both(ref, got, std::span{words}.first(cut));
  EXPECT_EQ(ref.icap.readback_word(), got.icap.readback_word());
  ASSERT_TRUE(got.icap.error());
  ASSERT_TRUE(got.icap.synced());
  feed_both(ref, got, std::span{words}.subspan(cut));
  EXPECT_EQ(got.icap.frames_written(), 3);
}

TEST(IcapFeed, ZeroCountType2Header) {
  Plans plans{DynamicRegion::xc2vp7_region(), 32, 0};
  std::vector<std::uint32_t> words = plans.complete(hw::kJenkinsHash)->words;
  words[index_of(words, kFdriLong) + 1] =
      bitstream::make_type2(Opcode::kWrite, 0);
  Rig ref{Device::xc2vp7()}, got{Device::xc2vp7()};
  feed_both(ref, got, words);
  EXPECT_TRUE(got.icap.error());
  EXPECT_EQ(got.icap.frames_written(), 0);
}

/// Word classes of a well-formed stream, by index.
struct StreamMap {
  std::vector<std::size_t> headers, far, fdri, crc;
};

StreamMap map_stream(const std::vector<std::uint32_t>& words) {
  StreamMap m;
  std::size_t i = index_of(words, bitstream::kSyncWord) + 1;
  while (i < words.size()) {
    const bitstream::PacketHeader h = bitstream::decode_header(words[i]);
    if (h.type != bitstream::PacketHeader::Type::kType1) break;  // DUMMY
    m.headers.push_back(i++);
    std::uint32_t count = h.word_count;
    if (h.reg == ConfigReg::kFdri && count == 0) {
      m.headers.push_back(i);
      count = bitstream::decode_header(words[i++]).word_count;
    }
    std::vector<std::size_t>* cls = h.reg == ConfigReg::kFar    ? &m.far
                                    : h.reg == ConfigReg::kFdri ? &m.fdri
                                    : h.reg == ConfigReg::kCrc  ? &m.crc
                                                                : nullptr;
    for (std::uint32_t k = 0; k < count; ++k, ++i) {
      if (cls != nullptr) cls->push_back(i);
    }
  }
  return m;
}

TEST(IcapFeed, GarbledStreamsThroughBothPaths) {
  // 2,000 seeded mutations of real complete and differential streams:
  // truncation, a bit flip in a header, FAR, FDRI or CRC word, and a
  // dropped or duplicated word. feed(span) and a feed_word loop must end in
  // the same state, and neither may abort.
  Plans layouts[] = {{DynamicRegion::xc2vp7_region(), 32, 0},
                     {DynamicRegion::xc2vp30_region(), 64, 0},
                     {DynamicRegion::xc2vp30_region_b(), 64, 1}};
  std::vector<hw::BehaviorId> ids[3];
  for (int l = 0; l < 3; ++l) ids[l] = layouts[l].fitting();
  sim::Rng rng{2100};
  int errors = 0;
  for (int n = 0; n < 2000; ++n) {
    const auto l = static_cast<std::size_t>(rng.below(3));
    Plans& plans = layouts[l];
    const hw::BehaviorId from = ids[l][rng.below(ids[l].size())];
    const hw::BehaviorId to = ids[l][rng.below(ids[l].size())];
    const bool differential = from != to && rng.next_bool();
    std::vector<std::uint32_t> words = differential
                                           ? plans.differential(from, to)->words
                                           : plans.complete(to)->words;
    const StreamMap map = map_stream(words);
    auto pick = [&](const std::vector<std::size_t>& v) {
      return v.empty() ? rng.below(words.size()) : v[rng.below(v.size())];
    };
    const std::uint32_t bit = 1u << rng.below(32);
    const auto kind = rng.below(7);
    switch (kind) {
      case 0:
        words.resize(rng.below(words.size()));
        break;
      case 1:
        words[pick(map.headers)] ^= bit;
        break;
      case 2:
        words[pick(map.far)] ^= bit;
        break;
      case 3:
        words[pick(map.fdri)] ^= bit;
        break;
      case 4:
        words[pick(map.crc)] ^= bit;
        break;
      case 5:
        words.erase(words.begin() +
                    static_cast<std::ptrdiff_t>(rng.below(words.size())));
        break;
      default: {
        const std::size_t at = rng.below(words.size());
        const std::uint32_t w = words[at];
        words.insert(words.begin() + static_cast<std::ptrdiff_t>(at), w);
      }
    }
    SCOPED_TRACE("mutation " + std::to_string(n) + " (kind " +
                 std::to_string(kind) + ") of " + plans.region.name() + " " +
                 hw::task_name(from) + " -> " + hw::task_name(to) +
                 (differential ? " (differential)" : " (complete)"));
    Rig ref{plans.region.device()}, got{plans.region.device()};
    feed_both(ref, got, words);
    errors += got.icap.error() ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Most mutations are caught by the CRC, the IDCODE or the packet checks.
  EXPECT_GT(errors, 1000);
}

}  // namespace
}  // namespace rtr::icap
