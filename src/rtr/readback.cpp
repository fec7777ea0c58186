#include "rtr/readback.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "bitlinker/bitlinker.hpp"
#include "bitstream/packet.hpp"
#include "cpu/periodic_loop.hpp"
#include "fabric/config_memory.hpp"
#include "icap/icap.hpp"
#include "sim/check.hpp"

namespace rtr {

using bitstream::Command;
using bitstream::ConfigReg;
using bus::Addr;
using fabric::ConfigMemory;
using fabric::DynamicRegion;
using fabric::FrameAddress;

namespace {

/// The FAR packet and RCFG command that arm the readback of frame `a`.
std::array<std::uint32_t, 4> rcfg_packets(FrameAddress a) {
  return {bitstream::make_type1(bitstream::Opcode::kWrite, ConfigReg::kFar, 1),
          a.pack(),
          bitstream::make_type1(bitstream::Opcode::kWrite, ConfigReg::kCmd, 1),
          static_cast<std::uint32_t>(Command::kRcfg)};
}

}  // namespace

// The frame loop runs on cpu::run_periodic. Every frame but the signature
// frame costs the same: four stores, one load per word and the hash steps
// of the region rows. So the frames before the signature frame are one
// periodic loop and those after it another; the signature frame, whose
// four signature words skip the hash, runs through the models between them.
ReadbackStats readback_verify(cpu::Kernel& k, Addr icap_base,
                              const DynamicRegion& region) {
  ReadbackStats stats;
  const sim::SimTime t0 = k.now();
  const Addr data = icap_base + icap::IcapController::kDataReg;
  const Addr control = icap_base + icap::IcapController::kControlReg;
  const fabric::Device& dev = region.device();
  const int wpf = dev.words_per_frame();

  k.call();
  k.sw(control, 1);  // reset the configuration state machine
  k.sw(data, bitstream::kDummyWord);
  k.sw(data, bitstream::kSyncWord);

  // The payload hash over the region rows of every covered frame, skipping
  // the four signature words -- the same function the BitLinker embeds.
  bitlinker::PayloadHasher hash;
  const FrameAddress sig_frame = region.signature_frame();
  const int sig_w0 = region.signature_word();
  const int w0 = region.first_word();
  const int wn = region.word_count();
  std::uint32_t sig[DynamicRegion::kSignatureWords] = {};

  std::vector<FrameAddress> frames;
  frames.reserve(static_cast<std::size_t>(region.covered_frames()));
  region.for_each_covered_frame([&](FrameAddress a) { frames.push_back(a); });

  // Frame i through the CPU and bus models, word by word: the reference.
  const auto read_frame = [&](std::size_t i) {
    const FrameAddress a = frames[i];
    for (const std::uint32_t w : rcfg_packets(a)) k.sw(data, w);
    const bool is_sig = (a == sig_frame);
    for (int wi = 0; wi < wpf; ++wi) {
      const std::uint32_t v = k.lw(data);
      k.op(2);
      k.branch();
      if (wi < w0 || wi >= w0 + wn) continue;  // static rows: not hashed
      if (is_sig && wi >= sig_w0 &&
          wi < sig_w0 + DynamicRegion::kSignatureWords) {
        sig[wi - sig_w0] = v;
        continue;
      }
      hash.add(v);
      k.op(12);  // 4 bytes x (xor + multiply-by-shifts)
    }
  };

  // The data effect of frames [first, first + count), none of them the
  // signature frame: the same packets and pops handed to the HWICAP in
  // blocks, and each frame's region rows hashed as one block.
  bus::Slave& icap = k.cpu().plb().endpoint(data);
  std::array<std::uint32_t, 128> words;  // a frame of any Virtex-II Pro
  RTR_CHECK(static_cast<std::size_t>(wpf) <= words.size(),
            "a frame fits the readback buffer");
  const auto read_frames = [&](std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) {
      icap.pio_block(data, rcfg_packets(frames[i]), {});
      icap.pio_block(data, {}, std::span{words}.first(wpf));
      hash.add(std::span{words}.subspan(w0, wn));
    }
  };

  const auto frame_loop = [&](std::size_t from, std::size_t to) {
    cpu::run_periodic(
        k, {.iterations = static_cast<std::int64_t>(to - from)},
        [&](std::int64_t i) { read_frame(from + static_cast<std::size_t>(i)); },
        [&](std::int64_t first, std::int64_t count) {
          read_frames(from + static_cast<std::size_t>(first),
                      static_cast<std::size_t>(count));
        });
  };
  const auto sig_at = static_cast<std::size_t>(
      std::find(frames.begin(), frames.end(), sig_frame) - frames.begin());
  frame_loop(0, sig_at);
  if (sig_at < frames.size()) {
    read_frame(sig_at);
    frame_loop(sig_at + 1, frames.size());
  }
  stats.frames = static_cast<std::int64_t>(frames.size());

  k.sw(data, bitstream::make_type1(bitstream::Opcode::kWrite, ConfigReg::kCmd, 1));
  k.sw(data, static_cast<std::uint32_t>(Command::kDesync));

  const std::uint32_t id = sig[1];
  stats.ok = sig[0] == DynamicRegion::kSignatureMagic && sig[2] == ~id &&
             sig[3] == hash.value();
  k.op(8);  // final comparisons
  stats.duration = k.now() - t0;
  return stats;
}

}  // namespace rtr
