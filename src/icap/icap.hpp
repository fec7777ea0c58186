// ICAP: the Internal Configuration Access Port, wrapped as the OPB HWICAP
// peripheral (paper section 3.1).
//
// Software reconfigures the dynamic area by streaming bitstream words into
// the HWICAP data register; the configuration logic behind it is a
// word-at-a-time state machine:
//
//   unsynced --SYNC--> synced --packets--> (FDRI frames -> config memory)
//            <-DESYNC--
//
// Frames are applied only when complete (frame granularity is the hardware
// atom), so an interrupted reconfiguration leaves the region in a coherent-
// frames-but-incomplete-module state -- which the runtime detects through
// the signature/payload-hash scan before binding any behaviour.
//
// Timing: the ICAP datapath is byte-wide at the configuration clock, so a
// 32-bit word costs 4 ICAP cycles, surfaced to the OPB as wait states.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/crc.hpp"
#include "bitstream/packet.hpp"
#include "bus/slave.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/resources.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace rtr::icap {

class IcapController : public bus::Slave {
 public:
  /// Register offsets within the peripheral's address range. The data
  /// register is an 8-byte FIFO window (0x0..0x7): a 64-bit DMA beat split
  /// by the PLB-OPB bridge lands both halves on it, which is what enables
  /// DMA-driven reconfiguration on the 64-bit system.
  static constexpr bus::Addr kDataReg = 0x0;    // write: bitstream word(s)
  static constexpr bus::Addr kDataRegEnd = 0x8;
  static constexpr bus::Addr kStatusReg = 0x8;  // read: status
  static constexpr bus::Addr kControlReg = 0xC; // write 1: abort/reset

  /// Status register bits.
  static constexpr std::uint32_t kStatusSynced = 1u << 0;
  static constexpr std::uint32_t kStatusError = 1u << 1;
  static constexpr std::uint32_t kStatusDone = 1u << 2;  // desynced cleanly
  static constexpr std::uint32_t kStatusReadback = 1u << 3;  // RCFG armed

  IcapController(sim::Simulation& sim, sim::Clock& icap_clock,
                 bus::AddressRange range, fabric::ConfigMemory& cm);

  [[nodiscard]] std::string name() const override { return "OPB HWICAP"; }
  [[nodiscard]] bus::AddressRange range() const { return range_; }
  /// Fabric cost of the HWICAP IP (for the resource tables).
  [[nodiscard]] fabric::Resources controller_cost() const {
    return fabric::Resources{150, 220, 180, 1};
  }

  bus::SlaveResult read(bus::Addr addr, int bytes, sim::SimTime start) override;
  sim::SimTime write(bus::Addr addr, std::uint64_t data, int bytes,
                     sim::SimTime start) override;

  /// Feed one bitstream word directly (no bus): functional core of the
  /// peripheral, also used by tests.
  void feed_word(std::uint32_t w);

  /// Feed a whole stream functionally (no timing). Equivalent to calling
  /// feed_word on every word: the whole frames from a frame boundary of a
  /// valid FDRI payload that lie in `words`, in the payload and on the
  /// device are CRC'd in one pass (zero runs in closed form) and written to
  /// configuration memory straight from the span; every other word goes
  /// through feed_word.
  void feed(std::span<const std::uint32_t> words);

  /// Reset the state machine (does not touch configuration memory).
  void reset();

  [[nodiscard]] bool synced() const { return synced_; }
  [[nodiscard]] bool error() const { return error_; }
  /// True after a clean DESYNC with no error since the last reset.
  [[nodiscard]] bool done() const { return done_; }
  /// True while readback (CMD RCFG) is armed.
  [[nodiscard]] bool readback_armed() const { return readback_; }

  /// Readback path: the next FDRO word at the current frame address
  /// (advances through the frame, then to the next frame in scan order).
  /// Valid only while readback is armed; otherwise flags an error and
  /// returns a poison word.
  std::uint32_t readback_word();

  [[nodiscard]] std::int64_t frames_written() const { return frames_written_; }
  [[nodiscard]] std::int64_t words_consumed() const { return words_consumed_; }

 private:
  enum class Expect { kHeader, kType2Header, kPayload };

  void handle_register_write(bitstream::ConfigReg reg, std::uint32_t w);
  void fail();

  sim::Simulation* sim_;
  sim::Clock* clock_;
  bus::AddressRange range_;
  fabric::ConfigMemory* cm_;

  // FSM state.
  bool synced_ = false;
  bool error_ = false;
  bool done_ = false;
  Expect expect_ = Expect::kHeader;
  bitstream::ConfigReg payload_reg_ = bitstream::ConfigReg::kCrc;
  std::uint32_t payload_left_ = 0;
  fabric::FrameAddress far_{};
  bool far_valid_ = false;
  bool readback_ = false;
  int readback_word_idx_ = 0;
  std::vector<std::uint32_t> frame_buf_;
  bitstream::Crc32 crc_;

  std::int64_t frames_written_ = 0;
  std::int64_t words_consumed_ = 0;
  sim::Counter* stat_frames_;
  // Per-frame trace spans: start time of the frame currently accumulating
  // in frame_buf_ (valid while tracing and the buffer is non-empty).
  sim::SimTime frame_span_start_;
  int trace_track_ = -1;
};

}  // namespace rtr::icap
