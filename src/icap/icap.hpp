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
// frames-but-incomplete-module state. It never reaches the done state, so
// the runtime binds no behaviour; a stream that does reach it is still
// validated (signature + payload hash, or a cached plan's recorded verdict)
// before anything binds.
//
// The CRC accumulator folds in every register write. A cached plan streamed
// in place can hand over the CRC states serialize() recorded around each of
// its FDRI payloads, so that the ICAP takes a whole payload without a CRC
// pass (arm_payload_crcs).
//
// Timing: the ICAP datapath is byte-wide at the configuration clock, so a
// 32-bit word costs 4 ICAP cycles, surfaced to the OPB as wait states.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/crc.hpp"
#include "bitstream/packet.hpp"
#include "bitstream/partial_config.hpp"
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
  /// Strobes of the data register in one block, as a closed-form CPU loop's
  /// bulk side hands them over: the writes go to feed() and the reads pop
  /// readback words, a block of reads alone with readback_words(). Like
  /// feed(), it leaves the icap and readback fault sites alone: the loop
  /// runner counts their opportunities (cpu::IterationStats).
  void pio_block(bus::Addr addr, std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;

  /// Feed one bitstream word directly (no bus): functional core of the
  /// peripheral, also used by tests.
  void feed_word(std::uint32_t w);

  /// Feed a whole stream functionally (no timing). Equivalent to calling
  /// feed_word on every word: the whole frames from a frame boundary of a
  /// valid FDRI payload that lie in `words`, in the payload and on the
  /// device are CRC'd in one pass (zero runs in closed form), or take an
  /// armed payload's recorded CRC state, and are written to configuration
  /// memory straight from the span in one copy, the FAR advancing over them
  /// in closed form; every other word goes through feed_word.
  void feed(std::span<const std::uint32_t> words);

  /// Arm the CRC states serialize() recorded for `stream`'s FDRI payloads
  /// (`payloads`, in stream order). While armed, a run of feed() that is
  /// exactly one recorded payload -- the words at its offset in `stream`
  /// itself, by address -- and starts with the accumulator in the payload's
  /// recorded before-state takes the recorded after-state instead of a CRC
  /// pass: the CRC is a function of the state and the words, and both are
  /// the ones serialize() saw. Any other run, any copy of the words and
  /// every word fed singly is CRC'd. Both spans must stay alive and
  /// unchanged until disarm_payload_crcs().
  void arm_payload_crcs(std::span<const std::uint32_t> stream,
                        std::span<const bitstream::PayloadCrc> payloads) {
    armed_stream_ = stream;
    armed_payloads_ = payloads;
  }
  void disarm_payload_crcs() { arm_payload_crcs({}, {}); }
  /// Payload runs that took their recorded CRC state: host work saved, the
  /// configuration state the same either way.
  [[nodiscard]] std::int64_t recorded_runs() const { return recorded_runs_; }

  /// Reset the state machine (does not touch configuration memory).
  void reset();

  [[nodiscard]] bool synced() const { return synced_; }
  [[nodiscard]] bool error() const { return error_; }
  /// True after a clean DESYNC with no error since the last reset.
  [[nodiscard]] bool done() const { return done_; }
  /// True while readback (CMD RCFG) is armed.
  [[nodiscard]] bool readback_armed() const { return readback_; }
  /// The frame address register: where the next FDRI frame lands.
  [[nodiscard]] fabric::FrameAddress far() const { return far_; }
  /// The CRC accumulator: what the next CRC packet is checked against.
  [[nodiscard]] const bitstream::Crc32& crc() const { return crc_; }

  /// Readback path: the next FDRO word at the current frame address
  /// (advances through the frame, then to the next frame in scan order).
  /// Valid only while readback is armed; otherwise flags an error and
  /// returns a poison word.
  std::uint32_t readback_word();
  /// The next out.size() readback words, each as readback_word() pops it:
  /// the words of each frame in one copy, crossing into the next frame in
  /// scan order, and poison from the first word popped outside readback.
  void readback_words(std::span<std::uint32_t> out);

  [[nodiscard]] std::int64_t frames_written() const { return frames_written_; }
  [[nodiscard]] std::int64_t words_consumed() const { return words_consumed_; }

 private:
  enum class Expect { kHeader, kType2Header, kPayload };

  void handle_register_write(bitstream::ConfigReg reg, std::uint32_t w);
  void fail();
  /// The armed after-state for `run`, when it is exactly an armed payload
  /// entered in its before-state; false (and no change) otherwise.
  bool take_recorded_crc(std::span<const std::uint32_t> run);

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

  std::span<const std::uint32_t> armed_stream_;
  std::span<const bitstream::PayloadCrc> armed_payloads_;
  std::int64_t recorded_runs_ = 0;

  std::int64_t frames_written_ = 0;
  std::int64_t words_consumed_ = 0;
  sim::Counter* stat_frames_;
  // Per-frame trace spans: start time of the frame currently accumulating
  // in frame_buf_ (valid while tracing and the buffer is non-empty).
  sim::SimTime frame_span_start_;
  int trace_track_ = -1;
};

}  // namespace rtr::icap
