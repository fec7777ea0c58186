// BitLinker: assembly of complete partial configurations from component
// configurations (the model of [12], used for every experiment in the paper).
//
// Responsibilities (paper section 2.2):
//  * produce *complete* configurations -- not differential ones -- so that a
//    module loads correctly regardless of what occupied the region before;
//  * never disturb the static circuits above/below the dynamic region: the
//    rows outside the region are re-encoded from the static baseline;
//  * assemble multiple components by concatenation, checking that their bus
//    macro terminals line up (figure 2);
//  * reject assemblies that do not fit the region (footprint, BRAMs, logic).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bitlinker/component.hpp"
#include "bitstream/partial_config.hpp"
#include "busmacro/bus_macro.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/dynamic_region.hpp"

namespace rtr::bitlinker {

/// Where a component lands, region-relative (CLB offsets from the region's
/// bottom-left corner).
struct Placement {
  int row_off = 0;
  int col_off = 0;
};

struct LinkInput {
  const ComponentDescriptor* component = nullptr;
  Placement place;
};

/// An assembly job: one or more placed components forming one loadable
/// module, identified to the runtime by `behavior_id`.
struct LinkJob {
  std::vector<LinkInput> parts;
  int behavior_id = 0;
  std::uint32_t revision = 1;
};

struct LinkStats {
  int frames = 0;
  std::int64_t payload_bytes = 0;
  fabric::Resources logic_used;
  int bram_blocks_used = 0;
  std::uint32_t payload_hash = 0;  // the hash the signature embeds
};

struct LinkResult {
  std::vector<std::string> errors;
  std::optional<bitstream::PartialConfig> config;
  LinkStats stats;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// The payload hash is FNV-1a 32 over the little-endian bytes of the hashed
/// words: it starts at kPayloadHashBasis and payload_hash_word adds a word.
inline constexpr std::uint32_t kPayloadHashBasis = 2166136261u;

inline constexpr std::uint32_t kPayloadHashPrime = 16777619u;

/// Add a run of `z` zero words to a payload hash. A zero byte makes the xor
/// a no-op, (h ^ 0) * P == h * P, so z zero words -- most of a sparsely
/// configured region -- are one multiply by P^(4z) (mod 2^32), raised here
/// by squaring.
[[nodiscard]] constexpr std::uint32_t payload_hash_zeros(std::uint32_t h,
                                                         std::uint64_t z) {
  std::uint32_t p = kPayloadHashPrime * kPayloadHashPrime *
                    kPayloadHashPrime * kPayloadHashPrime;  // P^4
  for (; z != 0; z >>= 1, p *= p) {
    if (z & 1) h *= p;
  }
  return h;
}

/// Add one word to a payload hash.
[[nodiscard]] constexpr std::uint32_t payload_hash_word(std::uint32_t h,
                                                        std::uint32_t v) {
  if (v == 0) return payload_hash_zeros(h, 1);
  for (int i = 0; i < 4; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * kPayloadHashPrime;
  }
  return h;
}

/// A payload hash fed word by word or in blocks, each run of zero words
/// taken in one step: equal to payload_hash_word over every word added.
class PayloadHasher {
 public:
  explicit PayloadHasher(std::uint32_t h = kPayloadHashBasis) : h_(h) {}

  void add(std::uint32_t v) {
    if (v == 0) {
      ++zeros_;
      return;
    }
    h_ = payload_hash_word(payload_hash_zeros(h_, zeros_), v);
    zeros_ = 0;
  }
  void add(std::span<const std::uint32_t> words) {
    std::uint32_t any = 0;
    for (const std::uint32_t v : words) any |= v;
    if (any == 0) {
      zeros_ += words.size();
      return;
    }
    for (const std::uint32_t v : words) add(v);
  }
  [[nodiscard]] std::uint32_t value() const {
    return payload_hash_zeros(h_, zeros_);
  }

 private:
  std::uint32_t h_;
  std::uint64_t zeros_ = 0;  // zero words not yet folded into h_
};

/// Payload hash over the region-row words of every frame covering `region`,
/// skipping the signature words themselves. The BitLinker stores this hash
/// in the signature. A load the platform cannot prove exact re-computes it
/// before binding a behaviour, so half-applied or stale-base configurations
/// never bind; a clean load of a cached plan onto the image it assumes
/// compares the signature with the plan's copy of this hash instead
/// (Platform::load_plan). Walks only the covered frames, and hashes each
/// run of zero words in one step.
[[nodiscard]] std::uint32_t region_payload_hash(
    const fabric::ConfigMemory& cm, const fabric::DynamicRegion& region);

class BitLinker {
 public:
  /// `baseline` is the full-device configuration of the static design; its
  /// rows outside the region are what complete configurations re-encode.
  /// `dock_interface` gives the fixed terminals every assembly must mate.
  BitLinker(const fabric::DynamicRegion& region,
            busmacro::ConnectionInterface dock_interface,
            const fabric::ConfigMemory& baseline);

  [[nodiscard]] const fabric::DynamicRegion& region() const { return *region_; }
  [[nodiscard]] const fabric::ConfigMemory& baseline() const {
    return *baseline_;
  }

  /// Validate and assemble. On success the result carries a *complete*
  /// partial configuration for the region.
  [[nodiscard]] LinkResult link(const LinkJob& job) const;

  /// What link() reads its configuration from: `job` checked, then
  /// composed on one copy of the baseline. The region's covered frames of
  /// the image (bitstream::region_spans) are the complete configuration.
  /// Empty when the job does not link. Either way `res` gets the errors or
  /// the stats, and no configuration.
  [[nodiscard]] std::optional<fabric::ConfigMemory> assemble(
      const LinkJob& job, LinkResult& res) const;

  /// Convenience: a single component placed at the region origin.
  [[nodiscard]] LinkResult link_single(const ComponentDescriptor& comp) const;
  /// The job link_single links; `comp` must outlive it.
  [[nodiscard]] static LinkJob single(const ComponentDescriptor& comp);

  /// Assemble a *differential* configuration against an assumed current
  /// fabric state. Smaller and faster to load, but correct only when the
  /// fabric really is in `assumed_current` -- the hazard the paper
  /// describes. Validation is identical to link().
  [[nodiscard]] LinkResult link_differential(
      const LinkJob& job, const fabric::ConfigMemory& assumed_current) const;

 private:
  /// Every check of an assembly; the errors, none when it links. A clean
  /// job fills the stats' logic and BRAM use.
  [[nodiscard]] std::vector<std::string> check(const LinkJob& job,
                                               LinkStats& stats) const;
  /// The assembled full-device state of a checked job, composed on one
  /// copy of the baseline. Fills the stats' payload hash.
  [[nodiscard]] fabric::ConfigMemory compose(const LinkJob& job,
                                             LinkStats& stats) const;

  const fabric::DynamicRegion* region_;
  busmacro::ConnectionInterface dock_if_;
  const fabric::ConfigMemory* baseline_;
};

}  // namespace rtr::bitlinker
