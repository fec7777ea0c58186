// Hashing modules: Jenkins lookup2 (tables 4/10) and SHA-1 (table 11).
//
// Both absorb the key/message through the connection interface at one word
// per strobe -- the compression rounds run in fabric cycles between strobes,
// so data transfer dominates end-to-end time (the paper's observation for
// why the hash speedups are modest).
//
// Protocol (32-bit words; a 64-bit strobe carries two, low half first):
//   word 0          : message length in bytes
//   following words : message bytes packed little-endian, ceil(len/4) words
// When all bytes have arrived the digest is valid:
//   Jenkins: read 0 -> the 32-bit hash
//   SHA-1:   reads 0..4 -> H0..H4
//
// A block of strobes (pio_block) hands whole message words to the digest
// at once: Jenkins adds three of them straight into a, b and c, SHA-1
// compresses sixteen. Partial blocks and the tail go byte by byte, as a
// single strobe does.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/module.hpp"

namespace rtr::hw {

/// Shared absorption state machine for the word-stream protocol.
class ByteStreamModule : public HwModule {
 public:
  void reset() override;
  /// A control strobe re-arms the unit for a new message.
  void control(std::uint32_t) override { reset(); }
  void write_word(std::uint64_t data, int width_bits) override;
  void pio_block(std::span<const std::uint32_t> in,
                 std::span<std::uint32_t> out) override;
  [[nodiscard]] bool has_output() const override { return false; }
  [[nodiscard]] bool result_ready() const { return done_; }

 protected:
  /// A message byte arrived.
  virtual void absorb(std::uint8_t byte) = 0;
  /// Whole message words arrived, each four bytes little-endian and none
  /// past the message's end: the same as absorb() of their bytes in order.
  /// They start at a 4-byte boundary of the message.
  virtual void absorb_words(std::span<const std::uint32_t> words) = 0;
  /// All `length` bytes arrived; finalise the digest.
  virtual void finalize() = 0;
  virtual void clear_state() = 0;

  [[nodiscard]] std::uint32_t length() const { return length_; }
  /// absorb() of a whole word's four bytes, low byte first.
  void absorb_bytes(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) absorb(static_cast<std::uint8_t>(w >> (8 * i)));
  }

 private:
  void accept32(std::uint32_t w);
  void accept_words(std::span<const std::uint32_t> words);

  bool have_length_ = false;
  bool done_ = false;
  std::uint32_t length_ = 0;
  std::uint32_t received_ = 0;
};

class JenkinsHashModule final : public ByteStreamModule {
 public:
  static constexpr int kBehaviorId = 101;

  JenkinsHashModule() { JenkinsHashModule::reset(); }
  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "jenkins-hash"; }
  [[nodiscard]] std::uint64_t read_word(int width_bits) override;

 protected:
  void absorb(std::uint8_t byte) override;
  void absorb_words(std::span<const std::uint32_t> words) override;
  void finalize() override;
  void clear_state() override;

 private:
  /// lookup2's mix of a, b and c.
  void mix();
  void mix_block();

  std::uint32_t a_ = 0, b_ = 0, c_ = 0;
  std::uint8_t block_[12] = {};
  int fill_ = 0;
};

class Sha1Module final : public ByteStreamModule {
 public:
  static constexpr int kBehaviorId = 102;

  Sha1Module() { Sha1Module::reset(); }
  [[nodiscard]] int behavior_id() const override { return kBehaviorId; }
  [[nodiscard]] std::string name() const override { return "sha1"; }
  [[nodiscard]] std::uint64_t read_word(int width_bits) override;

 protected:
  void absorb(std::uint8_t byte) override;
  void absorb_words(std::span<const std::uint32_t> words) override;
  void finalize() override;
  void clear_state() override;

 private:
  /// One 80-round compression of the block whose big-endian words are `w`.
  void compress(const std::uint32_t (&w)[16]);
  void process_block();

  std::array<std::uint32_t, 5> h_ = {};
  std::uint8_t block_[64] = {};
  int fill_ = 0;
  std::uint64_t total_bytes_ = 0;
  int read_index_ = 0;
};

}  // namespace rtr::hw
