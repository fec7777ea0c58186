#include "bitstream/partial_config.hpp"

#include <algorithm>

#include "bitstream/crc.hpp"
#include "bitstream/packet.hpp"
#include "sim/check.hpp"

namespace rtr::bitstream {

using fabric::ColumnType;
using fabric::ConfigMemory;
using fabric::Device;
using fabric::DynamicRegion;
using fabric::FrameAddress;

namespace {

/// Appends frames visited in scan order to `runs`, merging each frame that
/// follows the previous one into its run.
class RunAppender {
 public:
  RunAppender(const Device& dev, std::vector<FrameRun>& runs)
      : dev_(&dev), runs_(&runs) {}

  void add(FrameAddress a, std::span<const std::uint32_t> frame) {
    if (runs_->empty() || a != next_) runs_->push_back(FrameRun{a, 0, {}});
    FrameRun& run = runs_->back();
    ++run.frame_count;
    run.words.insert(run.words.end(), frame.begin(), frame.end());
    next_ = a.next_in(*dev_);
  }

 private:
  const Device* dev_;
  std::vector<FrameRun>* runs_;
  FrameAddress next_{};
};

/// `cfg`'s runs in place.
std::vector<FrameSpan> spans_of(const PartialConfig& cfg) {
  std::vector<FrameSpan> out;
  out.reserve(cfg.runs().size());
  for (const FrameRun& r : cfg.runs()) {
    out.push_back(FrameSpan{r.start, r.frame_count, r.words});
  }
  return out;
}

}  // namespace

void PartialConfig::add_run(FrameRun run) {
  RTR_CHECK(run.frame_count > 0, "empty frame run");
  RTR_CHECK(static_cast<int>(run.words.size()) ==
                run.frame_count * dev_->words_per_frame(),
            "frame run word count mismatch");
  FrameAddress a = run.start;
  for (int i = 0; i < run.frame_count; ++i) {
    RTR_CHECK(a.valid_for(*dev_), "frame run leaves the device");
    a = a.next_in(*dev_);
  }
  runs_.push_back(std::move(run));
}

int PartialConfig::total_frames() const {
  int n = 0;
  for (const auto& r : runs_) n += r.frame_count;
  return n;
}

bool PartialConfig::is_complete_for(const DynamicRegion& region) const {
  std::vector<FrameAddress> present;
  for (const auto& r : runs_) {
    FrameAddress a = r.start;
    for (int i = 0; i < r.frame_count; ++i, a = a.next_in(*dev_)) {
      present.push_back(a);
    }
  }
  // FrameAddress orders as the scan does, so the covered frames are a
  // sorted sequence to look up in order.
  std::sort(present.begin(), present.end());
  auto it = present.begin();
  bool complete = true;
  region.for_each_covered_frame([&](FrameAddress a) {
    it = std::lower_bound(it, present.end(), a);
    if (it == present.end() || *it != a) complete = false;
  });
  return complete;
}

bool PartialConfig::confined_to(const DynamicRegion& region) const {
  for (const auto& r : runs_) {
    FrameAddress a = r.start;
    for (int i = 0; i < r.frame_count; ++i) {
      if (!region.covers(a)) return false;
      a = a.next_in(*dev_);
    }
  }
  return true;
}

void PartialConfig::apply_to(ConfigMemory& cm) const {
  for (const auto& r : runs_) cm.write_frames(r.start, r.words);
}

PartialConfig PartialConfig::diff(const ConfigMemory& base,
                                  const ConfigMemory& target) {
  RTR_CHECK(&base.device() == &target.device(), "diff across devices");
  const Device& dev = base.device();
  PartialConfig out{dev};
  RunAppender runs{dev, out.runs_};
  for (FrameAddress a{ColumnType::kClb, 0, 0}; a.valid_for(dev);
       a = a.next_in(dev)) {
    // Frames untouched in both memories are all-zero on both sides;
    // skip the word comparison for the (vast) unconfigured expanse.
    if (!base.frame_touched(a) && !target.frame_touched(a)) continue;
    const auto fb = base.frame(a);
    const auto ft = target.frame(a);
    if (!std::equal(fb.begin(), fb.end(), ft.begin())) runs.add(a, ft);
  }
  return out;
}

PartialConfig PartialConfig::diff(const PartialConfig& base,
                                  const PartialConfig& target) {
  RTR_CHECK(&base.device() == &target.device(), "diff across devices");
  return diff(base.device(), spans_of(base), spans_of(target));
}

PartialConfig PartialConfig::diff(const Device& dev,
                                  std::span<const FrameSpan> base,
                                  std::span<const FrameSpan> target) {
  const auto wpf = static_cast<std::size_t>(dev.words_per_frame());
  RTR_CHECK(base.size() == target.size(),
            "configurations hold different frames");
  PartialConfig out{dev};
  RunAppender runs{dev, out.runs_};
  FrameAddress last{};
  for (std::size_t r = 0; r < base.size(); ++r) {
    const FrameSpan& rb = base[r];
    const FrameSpan& rt = target[r];
    RTR_CHECK(rb.start == rt.start && rb.frame_count == rt.frame_count,
              "configurations hold different frames");
    const auto frames = static_cast<std::size_t>(rt.frame_count);
    RTR_CHECK(rb.words.size() == frames * wpf &&
                  rt.words.size() == frames * wpf,
              "frame run word count mismatch");
    RTR_CHECK(r == 0 || last < rt.start,
              "configuration frames are not in scan order");
    FrameAddress a = rt.start;
    for (std::size_t i = 0; i < frames; ++i) {
      const auto fb = rb.words.subspan(i * wpf, wpf);
      const auto ft = rt.words.subspan(i * wpf, wpf);
      if (!std::equal(fb.begin(), fb.end(), ft.begin())) runs.add(a, ft);
      last = a;
      a = a.next_in(dev);
    }
  }
  return out;
}

PartialConfig PartialConfig::full_region(const ConfigMemory& state,
                                         const DynamicRegion& region) {
  PartialConfig out{state.device()};
  for (const FrameSpan& s : region_spans(state, region)) {
    out.runs_.push_back(
        FrameRun{s.start, s.frame_count, {s.words.begin(), s.words.end()}});
  }
  return out;
}

std::vector<FrameSpan> region_spans(const ConfigMemory& state,
                                    const DynamicRegion& region) {
  const Device& dev = state.device();
  std::vector<FrameSpan> out;
  FrameAddress next{};
  region.for_each_covered_column([&](FrameAddress first, int frames) {
    if (out.empty() || first != next) out.push_back(FrameSpan{first, 0, {}});
    out.back().frame_count += frames;
    next = first.advanced(dev, frames);
  });
  for (FrameSpan& s : out) s.words = state.frames(s.start, s.frame_count);
  return out;
}

std::uint32_t idcode_for(const Device& dev) {
  if (&dev == &Device::xc2vp7()) return kIdcodeXc2vp7;
  if (&dev == &Device::xc2vp30()) return kIdcodeXc2vp30;
  // Unknown devices get a stable hash-derived idcode.
  std::uint32_t h = 2166136261u;
  for (char c : dev.name()) h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  return h;
}

std::vector<std::uint32_t> serialize(const PartialConfig& cfg, bool with_crc,
                                     std::vector<PayloadCrc>* payload_crcs) {
  return serialize(cfg.device(), spans_of(cfg), with_crc, payload_crcs);
}

std::vector<std::uint32_t> serialize(const Device& dev,
                                     std::span<const FrameSpan> runs,
                                     bool with_crc,
                                     std::vector<PayloadCrc>* payload_crcs) {
  // DUMMY, SYNC, IDCODE and RCRC; per run FAR, WCFG and the two FDRI
  // headers before its payload; LFRM, CRC (or RCRC), DESYNC and DUMMY.
  constexpr std::size_t kHead = 6, kPerRun = 6, kTail = 7;
  std::size_t size = kHead + kTail;
  for (const FrameSpan& r : runs) size += kPerRun + r.words.size();
  std::vector<std::uint32_t> out;
  out.reserve(size);
  Crc32 crc;
  if (payload_crcs) {
    payload_crcs->clear();
    payload_crcs->reserve(runs.size());
  }
  auto reg_write = [&](ConfigReg reg, std::uint32_t value) {
    out.push_back(make_type1(Opcode::kWrite, reg, 1));
    out.push_back(value);
    crc.update_register_write(static_cast<std::uint32_t>(reg), value);
  };

  out.push_back(kDummyWord);
  out.push_back(kSyncWord);
  reg_write(ConfigReg::kIdcode, idcode_for(dev));
  reg_write(ConfigReg::kCmd, static_cast<std::uint32_t>(Command::kRcrc));
  crc.reset();

  for (const FrameSpan& r : runs) {
    reg_write(ConfigReg::kFar, r.start.pack());
    reg_write(ConfigReg::kCmd, static_cast<std::uint32_t>(Command::kWcfg));
    // Type-1 FDRI with zero count followed by a type-2 long payload.
    out.push_back(make_type1(Opcode::kWrite, ConfigReg::kFdri, 0));
    out.push_back(make_type2(Opcode::kWrite,
                             static_cast<std::uint32_t>(r.words.size())));
    const std::size_t first = out.size();
    const Crc32 before = crc;
    out.insert(out.end(), r.words.begin(), r.words.end());
    crc.update_register_writes(static_cast<std::uint32_t>(ConfigReg::kFdri),
                               r.words);
    if (payload_crcs) {
      payload_crcs->push_back({r.start, first, r.words.size(), before, crc});
    }
  }

  reg_write(ConfigReg::kCmd, static_cast<std::uint32_t>(Command::kLfrm));
  if (with_crc) {
    // The CRC register write checks the accumulated value; compute before
    // appending (the check value itself does not participate).
    const std::uint32_t check = crc.value();
    out.push_back(make_type1(Opcode::kWrite, ConfigReg::kCrc, 1));
    out.push_back(check);
  } else {
    reg_write(ConfigReg::kCmd, static_cast<std::uint32_t>(Command::kRcrc));
  }
  reg_write(ConfigReg::kCmd, static_cast<std::uint32_t>(Command::kDesync));
  out.push_back(kDummyWord);
  RTR_CHECK(out.size() == size, "serialised stream size mismatch");
  return out;
}

PartialConfig parse(std::span<const std::uint32_t> words, const Device& dev) {
  PartialConfig out{dev};
  const int wpf = dev.words_per_frame();
  std::size_t i = 0;
  // Skip dummies until SYNC.
  while (i < words.size() && words[i] != kSyncWord) {
    RTR_CHECK(words[i] == kDummyWord, "garbage before SYNC");
    ++i;
  }
  RTR_CHECK(i < words.size(), "no SYNC word");
  ++i;

  FrameAddress far{};
  bool far_valid = false;
  bool desynced = false;
  while (i < words.size() && !desynced) {
    const PacketHeader h = decode_header(words[i]);
    RTR_CHECK(h.type == PacketHeader::Type::kType1, "expected type-1 header");
    ++i;
    std::uint32_t count = h.word_count;
    ConfigReg reg = h.reg;
    if (reg == ConfigReg::kFdri && count == 0) {
      // Long-form payload.
      const PacketHeader h2 = decode_header(words[i]);
      RTR_CHECK(h2.type == PacketHeader::Type::kType2, "expected type-2 payload");
      count = h2.word_count;
      ++i;
    }
    RTR_CHECK(i + count <= words.size(), "packet payload truncated");
    switch (reg) {
      case ConfigReg::kFar:
        RTR_CHECK(count == 1, "FAR write must be one word");
        far = FrameAddress::unpack(words[i]);
        far_valid = true;
        break;
      case ConfigReg::kFdri: {
        RTR_CHECK(far_valid, "FDRI before FAR");
        RTR_CHECK(count % static_cast<std::uint32_t>(wpf) == 0,
                  "FDRI payload not a whole number of frames");
        FrameRun run{far, static_cast<int>(count) / wpf, {}};
        run.words.assign(words.begin() + static_cast<std::ptrdiff_t>(i),
                         words.begin() + static_cast<std::ptrdiff_t>(i + count));
        out.add_run(std::move(run));
        break;
      }
      case ConfigReg::kCmd:
        if (static_cast<Command>(words[i]) == Command::kDesync) desynced = true;
        break;
      case ConfigReg::kIdcode:
        RTR_CHECK(words[i] == idcode_for(dev), "IDCODE mismatch");
        break;
      case ConfigReg::kCrc:
      case ConfigReg::kFdro:
        break;  // CRC checked by the ICAP model; FDRO is read-only
    }
    i += count;
  }
  RTR_CHECK(desynced, "stream ended without DESYNC");
  return out;
}

}  // namespace rtr::bitstream
