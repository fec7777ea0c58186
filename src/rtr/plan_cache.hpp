// Reconfiguration plan cache: memoized link/diff/encode pipeline.
//
// Every module swap used to repeat the same host-side work: re-link the
// component with the BitLinker, diff the two modules' configurations, and
// re-encode the result into ICAP packets. All of that work is a pure
// function of the module pair (see below), so it is done once here and
// reused -- the simulated cost (streaming the words through the HWICAP) is
// untouched, which keeps every simulated time and every matrix output
// byte-identical with or without the cache.
//
// Purity argument. A complete configuration (BitLinker output) covers
// every frame of the dynamic region full-height: it first zeroes the
// region rows of every covered frame, then paints the component
// (bitlinker.cpp). Loading it therefore leaves the covered frames in a
// state that depends only on (behavior, dock_width) -- not on what was
// there before. Frames outside the region are never written by any
// configuration load. So the fabric state after a successful load of X is
// pure in X: over the covered frames it is X's complete plan, frame for
// frame. Two complete plans of one area hold the same covered frames in
// the same scan order, so the differential X -> Y is the frames where Y's
// plan differs from X's, diffed plan against plan without building either
// fabric state -- byte-identical to one diffed against a live snapshot.
// The one thing that breaks purity is an *external* write to the fabric (a
// debugger poke, a scrubber, a mid-stream fault) -- which is exactly what
// the ConfigMemory generation tag detects: the ModuleManager records the
// generation when it establishes residency and refuses any cached
// differential once the tag has moved.
//
// The same argument fixes a load's validation verdict in advance. A plan
// records the behaviour it binds, the behaviour it assumes resident and
// the payload hash BitLinker embedded in the target's image, so the
// platform can bind a clean load of it onto the image it assumes without
// re-walking the area (Platform::load_plan). It also records the CRC
// states its stream passes through around each FDRI payload, which the
// ICAP takes instead of a CRC pass when the plan streams in place.
//
// Nothing is evicted. Keys come from the behaviour registry, so with n
// behaviours the cache holds at most n complete and n(n-1) differential
// plans per (area, dock width), plus one error string per component that
// does not link, so that it is linked once. A plan is its encoded stream
// and one record per FDRI payload: the stream holds every frame run, so
// no other copy of the configuration is kept. On the XC2VP30 a
// differential plan takes 56-157 KiB (108 KiB on average over
// swap_storm's five behaviours), a complete one 391 KiB.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bitlinker/bitlinker.hpp"
#include "bitstream/partial_config.hpp"
#include "hw/library.hpp"

namespace rtr {

class PlanCache {
 public:
  /// A ready-to-stream reconfiguration: its pre-encoded ICAP word stream,
  /// staged and streamed without re-serialisation, the frame run and CRC
  /// states of each FDRI payload in it, and what a clean load of it leaves
  /// in the area.
  struct Plan {
    std::vector<std::uint32_t> words;  // bitstream::serialize(...)
    std::vector<bitstream::PayloadCrc> crcs;  // ... and its payloads
    std::int64_t payload_bytes = 0;
    int target = -1;  // the behaviour a load binds
    int base = -1;    // the behaviour it assumes resident; -1: complete
    std::uint32_t hash = 0;  // target's payload hash, as its signature says
    const fabric::Device* device = nullptr;

    /// The frame runs the stream writes, read in place from its payloads.
    [[nodiscard]] std::vector<bitstream::FrameSpan> runs() const;
  };

  /// What complete() memoizes: `id`'s component linked against `linker`'s
  /// region and encoded straight from the linked image. Empty (and sets
  /// *error) when the link fails.
  [[nodiscard]] static std::optional<Plan> build_complete(
      const bitlinker::BitLinker& linker, hw::BehaviorId id, int dock_width,
      std::string* error);

  /// What differential() memoizes: the frame diff of two complete plans of
  /// one area, read from their payloads in place, encoded.
  [[nodiscard]] static Plan build_differential(const Plan& from,
                                               const Plan& to);

  /// Memoized complete plan for (id, dock_width, area), built on first
  /// use. Plans are area-specific -- the linker relocates the component
  /// into its own region, so the same behaviour yields different words per
  /// area; the caller passes the linker of the keyed area. Returns null
  /// (and sets *error) when the link fails, which is remembered too;
  /// *hit reports whether a plan was already cached (a remembered failure
  /// is a miss).
  const Plan* complete(const bitlinker::BitLinker& linker, hw::BehaviorId id,
                       int dock_width, std::string* error, bool* hit,
                       int area = 0);

  /// Memoized differential plan `from` -> `to` (keyed per dock width and
  /// area), diffed frame by frame from the two complete plans. The caller
  /// is responsible for generation-tag validation (a cached differential
  /// is only safe while the area still holds the pure post-`from` state).
  const Plan* differential(const bitlinker::BitLinker& linker,
                           hw::BehaviorId from, hw::BehaviorId to,
                           int dock_width, std::string* error, bool* hit,
                           int area = 0);

  void clear();
  [[nodiscard]] std::size_t complete_plans() const { return complete_.size(); }
  [[nodiscard]] std::size_t diff_plans() const { return diff_.size(); }
  /// BitLinker links run so far: one per complete key ever asked for,
  /// whether it linked or not.
  [[nodiscard]] std::int64_t links() const { return links_; }

 private:
  struct DiffKey {
    int from, to, width, area;
    bool operator<(const DiffKey& o) const {
      if (from != o.from) return from < o.from;
      if (to != o.to) return to < o.to;
      if (width != o.width) return width < o.width;
      return area < o.area;
    }
  };

  struct CompleteKey {
    int behavior, width, area;
    bool operator<(const CompleteKey& o) const {
      if (behavior != o.behavior) return behavior < o.behavior;
      if (width != o.width) return width < o.width;
      return area < o.area;
    }
  };

  std::map<CompleteKey, Plan> complete_;
  std::map<CompleteKey, std::string> failed_;  // the link error
  std::map<DiffKey, Plan> diff_;
  std::int64_t links_ = 0;
};

}  // namespace rtr
