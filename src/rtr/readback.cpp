#include "rtr/readback.hpp"

#include "bitlinker/bitlinker.hpp"
#include "bitstream/packet.hpp"
#include "fabric/config_memory.hpp"
#include "icap/icap.hpp"

namespace rtr {

using bitstream::Command;
using bitstream::ConfigReg;
using bus::Addr;
using fabric::ConfigMemory;
using fabric::DynamicRegion;
using fabric::FrameAddress;

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
  std::uint32_t hash = bitlinker::kPayloadHashBasis;
  auto feed = [&](std::uint32_t v) {
    hash = bitlinker::payload_hash_word(hash, v);
    k.op(12);  // 4 bytes x (xor + multiply-by-shifts)
  };

  const FrameAddress sig_frame = region.signature_frame();
  const int sig_w0 = region.signature_word();
  const int w0 = region.first_word();
  const int wn = region.word_count();
  std::uint32_t sig[DynamicRegion::kSignatureWords] = {};

  region.for_each_covered_frame([&](FrameAddress a) {
    // FAR packet + RCFG command, then pop the frame.
    k.sw(data, bitstream::make_type1(bitstream::Opcode::kWrite,
                                     ConfigReg::kFar, 1));
    k.sw(data, a.pack());
    k.sw(data, bitstream::make_type1(bitstream::Opcode::kWrite,
                                     ConfigReg::kCmd, 1));
    k.sw(data, static_cast<std::uint32_t>(Command::kRcfg));
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
      feed(v);
    }
    ++stats.frames;
  });
  k.sw(data, bitstream::make_type1(bitstream::Opcode::kWrite, ConfigReg::kCmd, 1));
  k.sw(data, static_cast<std::uint32_t>(Command::kDesync));

  const std::uint32_t id = sig[1];
  stats.ok = sig[0] == DynamicRegion::kSignatureMagic && sig[2] == ~id &&
             sig[3] == hash;
  k.op(8);  // final comparisons
  stats.duration = k.now() - t0;
  return stats;
}

}  // namespace rtr
