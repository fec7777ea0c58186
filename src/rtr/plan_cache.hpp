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
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "bitlinker/bitlinker.hpp"
#include "bitstream/partial_config.hpp"
#include "hw/library.hpp"

namespace rtr {

class PlanCache {
 public:
  /// A ready-to-stream reconfiguration: the structured configuration (for
  /// payload accounting and host-side application) plus its pre-encoded
  /// ICAP word stream, staged and streamed without re-serialisation.
  struct Plan {
    bitstream::PartialConfig config;
    std::vector<std::uint32_t> words;  // bitstream::serialize(config)
    std::int64_t payload_bytes = 0;
  };

  /// `diff_capacity` bounds the differential-plan LRU (complete plans are
  /// one per (behavior, dock_width) -- a handful -- and never evicted).
  explicit PlanCache(std::size_t diff_capacity = kDefaultDiffCapacity)
      : diff_capacity_(diff_capacity) {}

  static constexpr std::size_t kDefaultDiffCapacity = 16;

  /// Memoized complete plan for (id, dock_width, area): BitLinker assembly
  /// + packet encoding, built on first use. Plans are area-specific -- the
  /// linker relocates the component into its own region, so the same
  /// behaviour yields different words per area; the caller passes the
  /// linker of the keyed area. Returns null (and sets *error) when the
  /// link fails; *hit reports whether the plan was already cached.
  const Plan* complete(const bitlinker::BitLinker& linker, hw::BehaviorId id,
                       int dock_width, std::string* error, bool* hit,
                       int area = 0);

  /// Memoized differential plan `from` -> `to` (LRU, keyed per dock width
  /// and area), diffed frame by frame from the two complete plans. The
  /// caller is responsible for generation-tag validation (a cached
  /// differential is only safe while the area still holds the pure
  /// post-`from` state).
  const Plan* differential(const bitlinker::BitLinker& linker,
                           hw::BehaviorId from, hw::BehaviorId to,
                           int dock_width, std::string* error, bool* hit,
                           int area = 0);

  void clear();
  [[nodiscard]] std::size_t complete_plans() const { return complete_.size(); }
  [[nodiscard]] std::size_t diff_plans() const { return diff_.size(); }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }

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
  struct DiffEntry {
    Plan plan;
    std::list<DiffKey>::iterator lru_pos;
  };

  struct CompleteKey {
    int behavior, width, area;
    bool operator<(const CompleteKey& o) const {
      if (behavior != o.behavior) return behavior < o.behavior;
      if (width != o.width) return width < o.width;
      return area < o.area;
    }
  };

  std::size_t diff_capacity_;
  std::map<CompleteKey, Plan> complete_;
  std::map<DiffKey, DiffEntry> diff_;
  std::list<DiffKey> lru_;  // front = most recently used
  std::int64_t evictions_ = 0;
};

}  // namespace rtr
