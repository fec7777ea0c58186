// PPC405-style data cache model (timing-only).
//
// 16 KB, 2-way set associative, 32-byte lines, write-back with allocate on
// load miss (stores that miss go straight to the bus, as on the real core).
// The cache tracks tags, dirty bits and LRU; data always lives in the
// functional memory model, so coherence with DMA is a *timing* concern
// (modelled by the explicit flush the driver software performs), never a
// functional one.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/types.hpp"
#include "sim/check.hpp"

namespace rtr::cpu {

struct CacheParams {
  int size_bytes = 16 * 1024;
  int ways = 2;
  int line_bytes = 32;
};

class DataCache {
 public:
  explicit DataCache(CacheParams p = {});

  [[nodiscard]] const CacheParams& params() const { return params_; }
  [[nodiscard]] int sets() const { return sets_; }

  struct AccessResult {
    bool hit = false;
    bool fill = false;            // line must be fetched (load miss)
    bool writeback = false;       // a dirty victim must be written first
    bus::Addr victim_line = 0;    // line address of the dirty victim
  };

  /// A load: hits, or misses with allocation (possibly evicting a dirty
  /// victim).
  AccessResult load(bus::Addr addr);

  /// A store: write-back on hit (marks dirty); on miss the store is passed
  /// through to the bus without allocation.
  AccessResult store(bus::Addr addr);

  /// Write back and invalidate every line; returns the dirty line
  /// addresses that needed writing (caller charges the bus time).
  std::vector<bus::Addr> flush_all();

  /// Flush (write back + invalidate) all lines overlapping [addr,
  /// addr+len); returns dirty line addresses written back.
  std::vector<bus::Addr> flush_range(bus::Addr addr, std::uint64_t len);

  [[nodiscard]] bus::Addr line_of(bus::Addr a) const {
    return a & ~static_cast<bus::Addr>(params_.line_bytes - 1);
  }

  // Statistics.
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  struct Line {
    bus::Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  // lower = older
  };

  [[nodiscard]] int set_of(bus::Addr a) const {
    return static_cast<int>((a / static_cast<bus::Addr>(params_.line_bytes)) %
                            static_cast<bus::Addr>(sets_));
  }
  Line* find(bus::Addr a);
  Line& victim(bus::Addr a);

  CacheParams params_;
  int sets_;
  std::vector<Line> lines_;  // sets_ * ways
  std::uint64_t tick_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace rtr::cpu
