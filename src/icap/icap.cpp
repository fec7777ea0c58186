#include "icap/icap.hpp"

#include <algorithm>
#include <functional>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace rtr::icap {

using bitstream::Command;
using bitstream::ConfigReg;
using bitstream::decode_header;
using bitstream::PacketHeader;
using fabric::FrameAddress;
using sim::SimTime;

IcapController::IcapController(sim::Simulation& sim, sim::Clock& icap_clock,
                               bus::AddressRange range,
                               fabric::ConfigMemory& cm)
    : sim_(&sim),
      clock_(&icap_clock),
      range_(range),
      cm_(&cm),
      stat_frames_(&sim.stats().counter("icap.frames")) {
  frame_buf_.reserve(static_cast<std::size_t>(cm.words_per_frame()));
}

void IcapController::reset() {
  synced_ = false;
  error_ = false;
  done_ = false;
  expect_ = Expect::kHeader;
  payload_left_ = 0;
  far_valid_ = false;
  readback_ = false;
  readback_word_idx_ = 0;
  frame_buf_.clear();
  crc_.reset();
}

void IcapController::fail() {
  error_ = true;
  synced_ = false;  // further words are ignored until reset
}

void IcapController::handle_register_write(ConfigReg reg, std::uint32_t w) {
  if (reg != ConfigReg::kCrc) {
    crc_.update_register_write(static_cast<std::uint32_t>(reg), w);
  }
  switch (reg) {
    case ConfigReg::kIdcode:
      if (w != bitstream::idcode_for(cm_->device())) fail();
      break;
    case ConfigReg::kFar: {
      far_ = FrameAddress::unpack(w);
      if (!far_.valid_for(cm_->device())) {
        fail();
        break;
      }
      far_valid_ = true;
      frame_buf_.clear();
      readback_word_idx_ = 0;
      break;
    }
    case ConfigReg::kFdri: {
      if (!far_valid_) {
        fail();
        break;
      }
      frame_buf_.push_back(w);
      if (static_cast<int>(frame_buf_.size()) == cm_->words_per_frame()) {
        cm_->write_frame(far_, frame_buf_);
        frame_buf_.clear();
        far_ = far_.next_in(cm_->device());
        far_valid_ = far_.valid_for(cm_->device());
        ++frames_written_;
        stat_frames_->add();
      }
      break;
    }
    case ConfigReg::kCmd:
      switch (static_cast<Command>(w)) {
        case Command::kRcrc:
          crc_.reset();
          break;
        case Command::kDesync:
          synced_ = false;
          readback_ = false;
          done_ = !error_;
          break;
        case Command::kRcfg:
          if (!far_valid_) {
            fail();
            break;
          }
          readback_ = true;
          readback_word_idx_ = 0;
          break;
        case Command::kWcfg:
          readback_ = false;
          break;
        case Command::kNull:
        case Command::kLfrm:
          break;
        default:
          fail();
      }
      break;
    case ConfigReg::kFdro:
      fail();  // FDRO is read-only
      break;
    case ConfigReg::kCrc:
      if (w != crc_.value()) fail();
      break;
  }
}

std::uint32_t IcapController::readback_word() {
  std::uint32_t v = 0;
  readback_words({&v, 1});
  return v;
}

void IcapController::readback_words(std::span<std::uint32_t> out) {
  while (!out.empty()) {
    if (!readback_ || error_ || !far_valid_) {
      error_ = true;
      std::fill(out.begin(), out.end(), 0xBADBADBAu);
      return;
    }
    const auto rest = cm_->frame(far_).subspan(
        static_cast<std::size_t>(readback_word_idx_));
    const std::size_t n = std::min(rest.size(), out.size());
    std::copy_n(rest.begin(), n, out.begin());
    out = out.subspan(n);
    readback_word_idx_ += static_cast<int>(n);
    if (readback_word_idx_ == cm_->words_per_frame()) {
      readback_word_idx_ = 0;
      far_ = far_.next_in(cm_->device());
      far_valid_ = far_.valid_for(cm_->device());
    }
  }
}

void IcapController::feed_word(std::uint32_t w) {
  ++words_consumed_;
  if (error_) return;  // latched until reset
  if (!synced_) {
    if (w == bitstream::kSyncWord) {
      synced_ = true;
      done_ = false;
      expect_ = Expect::kHeader;
    }
    // Dummy/pad words before sync are ignored.
    return;
  }

  switch (expect_) {
    case Expect::kHeader: {
      const PacketHeader h = decode_header(w);
      if (h.type == PacketHeader::Type::kType1) {
        payload_reg_ = h.reg;
        payload_left_ = h.word_count;
        if (payload_reg_ == ConfigReg::kFdri && payload_left_ == 0) {
          expect_ = Expect::kType2Header;
        } else if (payload_left_ > 0) {
          expect_ = Expect::kPayload;
        }
      } else if (h.type == PacketHeader::Type::kType2) {
        // Type-2 without a preceding type-1 FDRI: protocol error.
        fail();
      } else {
        fail();
      }
      break;
    }
    case Expect::kType2Header: {
      const PacketHeader h = decode_header(w);
      if (h.type != PacketHeader::Type::kType2 || h.word_count == 0) {
        fail();
        break;
      }
      payload_left_ = h.word_count;
      expect_ = Expect::kPayload;
      break;
    }
    case Expect::kPayload: {
      handle_register_write(payload_reg_, w);
      if (--payload_left_ == 0) expect_ = Expect::kHeader;
      break;
    }
  }
}

bool IcapController::take_recorded_crc(std::span<const std::uint32_t> run) {
  const std::uint32_t* base = armed_stream_.data();
  const std::less<const std::uint32_t*> before;
  if (armed_payloads_.empty() || before(run.data(), base) ||
      !before(run.data(), base + armed_stream_.size())) {
    return false;
  }
  const auto first = static_cast<std::size_t>(run.data() - base);
  const auto it = std::lower_bound(
      armed_payloads_.begin(), armed_payloads_.end(), first,
      [](const bitstream::PayloadCrc& c, std::size_t at) {
        return c.first < at;
      });
  if (it == armed_payloads_.end() || it->first != first ||
      it->words != run.size() || crc_ != it->before) {
    return false;
  }
  crc_ = it->after;
  ++recorded_runs_;
  return true;
}

void IcapController::feed(std::span<const std::uint32_t> words) {
  const auto wpf = static_cast<std::size_t>(cm_->words_per_frame());
  while (!words.empty()) {
    if (synced_ && !error_ && expect_ == Expect::kPayload &&
        payload_reg_ == ConfigReg::kFdri && far_valid_ && frame_buf_.empty() &&
        payload_left_ >= wpf && words.size() >= wpf) {
      // Every whole frame left in the payload, in the span and on the
      // device from the FAR on: an armed payload's recorded CRC state, or
      // one CRC pass over all of their words so that zero runs crossing
      // frame boundaries take one step.
      const std::size_t frames = std::min(
          {payload_left_ / wpf, words.size() / wpf,
           static_cast<std::size_t>(cm_->total_frames() -
                                    cm_->linear_index(far_))});
      const auto run = words.first(frames * wpf);
      if (!take_recorded_crc(run)) {
        crc_.update_register_writes(
            static_cast<std::uint32_t>(ConfigReg::kFdri), run);
      }
      cm_->write_frames(far_, run);
      far_ = far_.advanced(cm_->device(), static_cast<int>(frames));
      far_valid_ = far_.valid_for(cm_->device());
      frames_written_ += static_cast<std::int64_t>(frames);
      stat_frames_->add(static_cast<std::int64_t>(frames));
      words_consumed_ += static_cast<std::int64_t>(run.size());
      payload_left_ -= static_cast<std::uint32_t>(run.size());
      if (payload_left_ == 0) expect_ = Expect::kHeader;
      words = words.subspan(run.size());
    } else {
      feed_word(words.front());
      words = words.subspan(1);
    }
  }
}

bus::SlaveResult IcapController::read(bus::Addr addr, int bytes,
                                      SimTime start) {
  RTR_CHECK(bytes == 4, "HWICAP registers are 32-bit");
  const bus::Addr off = addr - range_.base;
  std::uint32_t v = 0;
  if (off == kStatusReg) {
    v = (synced_ ? kStatusSynced : 0) | (error_ ? kStatusError : 0) |
        (done_ ? kStatusDone : 0) | (readback_ ? kStatusReadback : 0);
  } else if (off < kDataRegEnd) {
    // Readback: each data-register read pops one FDRO word (4 ICAP cycles
    // on the byte-wide datapath, like writes).
    std::uint32_t w = readback_word();
    if (fault::FaultInjector* fi = sim_->faults()) {
      w = fi->filter_readback_word(w, start);
    }
    return {w, clock_->after_cycles(start, 5)};
  }
  return {v, clock_->after_cycles(start, 2)};
}

void IcapController::pio_block(bus::Addr addr,
                               std::span<const std::uint32_t> in,
                               std::span<std::uint32_t> out) {
  RTR_CHECK(addr - range_.base < kDataRegEnd,
            "HWICAP PIO blocks strobe the data register");
  if (in.empty()) {
    readback_words(out);
    return;
  }
  bus::for_each_pio_group(
      in, out, [this](std::span<const std::uint32_t> words) { feed(words); },
      [this] { return readback_word(); });
}

SimTime IcapController::write(bus::Addr addr, std::uint64_t data, int bytes,
                              SimTime start) {
  RTR_CHECK(bytes == 4, "HWICAP registers are 32-bit");
  const bus::Addr off = addr - range_.base;
  if (off < kDataRegEnd) {
    const bool tracing = sim_->tracer().enabled();
    const bool buf_was_empty = frame_buf_.empty();
    const std::int64_t frames_before = frames_written_;
    const std::uint32_t far_packed = far_.pack();
    std::uint32_t w = static_cast<std::uint32_t>(data);
    if (fault::FaultInjector* fi = sim_->faults()) {
      w = fi->filter_icap_word(w, start);
    }
    feed_word(w);
    // Byte-wide ICAP datapath: 4 ICAP cycles per word, plus one cycle of
    // peripheral overhead.
    const SimTime done = clock_->after_cycles(start, 5);
    if (tracing) {
      if (buf_was_empty && !frame_buf_.empty()) frame_span_start_ = start;
      if (frames_written_ > frames_before) {
        trace::Tracer& tr = sim_->tracer();
        if (trace_track_ < 0) trace_track_ = tr.track("ICAP");
        tr.complete(trace_track_, "frame",
                    buf_was_empty ? start : frame_span_start_, done, "far",
                    far_packed);
      }
    }
    return done;
  }
  if (off == kControlReg) {
    if (data & 1) reset();
    return clock_->after_cycles(start, 1);
  }
  RTR_CHECK(false, "write to undefined HWICAP register");
  __builtin_unreachable();
}

}  // namespace rtr::icap
