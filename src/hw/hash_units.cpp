#include "hw/hash_units.hpp"

#include <algorithm>
#include <iterator>

namespace rtr::hw {

// --- ByteStreamModule -----------------------------------------------------------

void ByteStreamModule::reset() {
  have_length_ = false;
  done_ = false;
  length_ = 0;
  received_ = 0;
  clear_state();
}

void ByteStreamModule::write_word(std::uint64_t data, int width_bits) {
  accept32(static_cast<std::uint32_t>(data));
  if (width_bits == 64) accept32(static_cast<std::uint32_t>(data >> 32));
}

void ByteStreamModule::pio_block(std::span<const std::uint32_t> in,
                                 std::span<std::uint32_t> out) {
  bus::for_each_pio_group(
      in, out,
      [this](std::span<const std::uint32_t> words) { accept_words(words); },
      [this] { return static_cast<std::uint32_t>(read_word(32)); });
}

void ByteStreamModule::accept_words(std::span<const std::uint32_t> words) {
  // Strobes after the digest are ignored, as accept32 ignores them.
  while (!words.empty() && !done_) {
    // The words that carry four message bytes each; the length word and
    // the tail word take the single-strobe path.
    const std::size_t whole =
        have_length_ ? std::min<std::size_t>(words.size(),
                                             (length_ - received_) / 4)
                     : 0;
    if (whole == 0) {
      accept32(words.front());
      words = words.subspan(1);
      continue;
    }
    absorb_words(words.first(whole));
    received_ += static_cast<std::uint32_t>(4 * whole);
    words = words.subspan(whole);
    if (received_ == length_) {
      finalize();
      done_ = true;
    }
  }
}

void ByteStreamModule::accept32(std::uint32_t w) {
  if (done_) return;  // trailing pad strobes are ignored; control() re-arms
  if (!have_length_) {
    length_ = w;
    have_length_ = true;
    if (length_ == 0) {
      finalize();
      done_ = true;
    }
    return;
  }
  for (int i = 0; i < 4 && received_ < length_; ++i, ++received_) {
    absorb(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  if (received_ == length_) {
    finalize();
    done_ = true;
  }
}

// --- Jenkins lookup2 ---------------------------------------------------------------

void JenkinsHashModule::clear_state() {
  a_ = b_ = 0x9e3779b9u;
  c_ = 0;  // initval 0, as in the software baseline
  fill_ = 0;
}

void JenkinsHashModule::mix() {
  a_ -= b_; a_ -= c_; a_ ^= (c_ >> 13);
  b_ -= c_; b_ -= a_; b_ ^= (a_ << 8);
  c_ -= a_; c_ -= b_; c_ ^= (b_ >> 13);
  a_ -= b_; a_ -= c_; a_ ^= (c_ >> 12);
  b_ -= c_; b_ -= a_; b_ ^= (a_ << 16);
  c_ -= a_; c_ -= b_; c_ ^= (b_ >> 5);
  a_ -= b_; a_ -= c_; a_ ^= (c_ >> 3);
  b_ -= c_; b_ -= a_; b_ ^= (a_ << 10);
  c_ -= a_; c_ -= b_; c_ ^= (b_ >> 15);
}

void JenkinsHashModule::mix_block() {
  auto word = [&](int base) {
    return block_[base] | (std::uint32_t{block_[base + 1]} << 8) |
           (std::uint32_t{block_[base + 2]} << 16) |
           (std::uint32_t{block_[base + 3]} << 24);
  };
  a_ += word(0);
  b_ += word(4);
  c_ += word(8);
  mix();
  fill_ = 0;
}

void JenkinsHashModule::absorb(std::uint8_t byte) {
  block_[fill_++] = byte;
  if (fill_ == 12) mix_block();
}

void JenkinsHashModule::absorb_words(std::span<const std::uint32_t> words) {
  // The pending block holds 0, 4 or 8 bytes: top it up, then add whole
  // 12-byte blocks straight into a, b and c.
  std::size_t i = 0;
  for (; i < words.size() && fill_ != 0; ++i) absorb_bytes(words[i]);
  for (; i + 3 <= words.size(); i += 3) {
    a_ += words[i];
    b_ += words[i + 1];
    c_ += words[i + 2];
    mix();
  }
  for (; i < words.size(); ++i) absorb_bytes(words[i]);
}

void JenkinsHashModule::finalize() {
  // Tail handling of lookup2: the remaining fill_ bytes (0..11) are added
  // into the highest positions, with the total length added to c.
  c_ += length();
  const int n = fill_;
  auto at = [&](int i) { return std::uint32_t{block_[i]}; };
  if (n >= 11) c_ += at(10) << 24;
  if (n >= 10) c_ += at(9) << 16;
  if (n >= 9) c_ += at(8) << 8;
  if (n >= 8) b_ += at(7) << 24;
  if (n >= 7) b_ += at(6) << 16;
  if (n >= 6) b_ += at(5) << 8;
  if (n >= 5) b_ += at(4);
  if (n >= 4) a_ += at(3) << 24;
  if (n >= 3) a_ += at(2) << 16;
  if (n >= 2) a_ += at(1) << 8;
  if (n >= 1) a_ += at(0);
  fill_ = 0;
  mix();
}

std::uint64_t JenkinsHashModule::read_word(int) {
  return result_ready() ? c_ : 0xFFFFFFFFu;
}

// --- SHA-1 -------------------------------------------------------------------------

void Sha1Module::clear_state() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  fill_ = 0;
  total_bytes_ = 0;
  read_index_ = 0;
}

namespace {

std::uint32_t rol(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

/// One 20-round phase from round `first`, with round function `f`, as the
/// unit's pipeline runs it: a 16-word shift register holds W[t - 16 ..
/// t - 1], and each round past the 16th expands the next word into the
/// slot the oldest one leaves.
template <typename F>
void phase(std::uint32_t (&v)[5], std::uint32_t (&w)[16], int first,
           std::uint32_t k, F f) {
  std::uint32_t a = v[0], b = v[1], c = v[2], d = v[3], e = v[4];
  for (int t = first; t < first + 20; ++t) {
    std::uint32_t& wt = w[t & 15];
    if (t >= 16) {
      wt = rol(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ wt, 1);
    }
    const std::uint32_t tmp = rol(a, 5) + f(b, c, d) + e + wt + k;
    e = d;
    d = c;
    c = rol(b, 30);
    b = a;
    a = tmp;
  }
  v[0] = a;
  v[1] = b;
  v[2] = c;
  v[3] = d;
  v[4] = e;
}

}  // namespace

void Sha1Module::compress(const std::uint32_t (&block)[16]) {
  using Word = std::uint32_t;
  const auto parity = [](Word b, Word c, Word d) { return b ^ c ^ d; };
  std::uint32_t w[16];
  std::copy(std::begin(block), std::end(block), w);
  std::uint32_t v[5] = {h_[0], h_[1], h_[2], h_[3], h_[4]};
  phase(v, w, 0, 0x5A827999u,
        [](Word b, Word c, Word d) { return (b & c) | ((~b) & d); });
  phase(v, w, 20, 0x6ED9EBA1u, parity);
  phase(v, w, 40, 0x8F1BBCDCu,
        [](Word b, Word c, Word d) { return (b & c) | (b & d) | (c & d); });
  phase(v, w, 60, 0xCA62C1D6u, parity);
  for (int i = 0; i < 5; ++i) h_[static_cast<std::size_t>(i)] += v[i];
}

void Sha1Module::process_block() {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    const int i = t * 4;
    w[t] = (std::uint32_t{block_[i]} << 24) |
           (std::uint32_t{block_[i + 1]} << 16) |
           (std::uint32_t{block_[i + 2]} << 8) | block_[i + 3];
  }
  compress(w);
  fill_ = 0;
}

void Sha1Module::absorb(std::uint8_t byte) {
  block_[fill_++] = byte;
  ++total_bytes_;
  if (fill_ == 64) process_block();
}

void Sha1Module::absorb_words(std::span<const std::uint32_t> words) {
  // The pending block holds a whole number of words: top it up, then
  // compress whole 64-byte blocks straight from the words, each turned to
  // SHA-1's big-endian byte order.
  std::size_t i = 0;
  for (; i < words.size() && fill_ != 0; ++i) absorb_bytes(words[i]);
  for (; i + 16 <= words.size(); i += 16) {
    std::uint32_t w[16];
    for (int t = 0; t < 16; ++t) {
      const std::uint32_t v = words[i + static_cast<std::size_t>(t)];
      w[t] = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
             (v << 24);
    }
    compress(w);
    total_bytes_ += 64;
  }
  for (; i < words.size(); ++i) absorb_bytes(words[i]);
}

void Sha1Module::finalize() {
  const std::uint64_t bits = total_bytes_ * 8;
  block_[fill_++] = 0x80;
  if (fill_ == 64) process_block();
  while (fill_ != 56) {
    block_[fill_++] = 0;
    if (fill_ == 64) process_block();
  }
  for (int i = 7; i >= 0; --i) {
    block_[fill_++] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  process_block();
}

std::uint64_t Sha1Module::read_word(int width_bits) {
  auto word = [&](int idx) -> std::uint32_t {
    if (!result_ready()) return 0xFFFFFFFFu;
    return h_[static_cast<std::size_t>(idx % 5)];
  };
  if (width_bits == 64) {
    const std::uint64_t v = word(read_index_) |
                            (static_cast<std::uint64_t>(word(read_index_ + 1)) << 32);
    read_index_ += 2;
    return v;
  }
  return word(read_index_++);
}

}  // namespace rtr::hw
