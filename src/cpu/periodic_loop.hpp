// Periodic CPU loops in closed form.
//
// The driver software of both systems moves data in loops whose every
// iteration issues the same uncached loads and stores and the same CPU
// work: the configuration stream into the HWICAP (paper section 3.1) and
// every programmed-I/O transfer through a dock (Tables 2 and 7). Such a
// loop is periodic in simulated time. run_periodic times iterations 0 and
// 1 through the CPU and bus models and, when the period provably repeats,
// applies iterations 2..n-1 as m copies of iteration 1's time, bus
// reservations, counters and histograms while the loop's bulk side moves
// the data (docs/PERFORMANCE.md, "Closed-form PIO loops").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "bus/bridge.hpp"
#include "bus/bus.hpp"
#include "cpu/kernel.hpp"
#include "sim/check.hpp"
#include "sim/stats.hpp"

namespace rtr::fault {
class FaultInjector;
}  // namespace rtr::fault

namespace rtr::cpu {

/// One periodic loop: `iterations` repetitions of a body. `reads` holds the
/// ranges whose pre-loop contents an iteration reads. Memory the loop
/// writes before it reads it goes in `writes` only: SHA-1's W[] within a
/// block, or across the expansion's iterations, where iteration t reads
/// W[t-3], which the loop wrote. Such a loop's bulk side computes its
/// iterations in order. Every address an iteration touches lies in one of
/// the ranges (an empty range is unused), so the D-cacheable fallback
/// covers all of them, and the overlap fallback keeps its meaning: the
/// bulk side reads every pre-loop source before it writes. A non-zero
/// `deadline` arms a watchdog that stops the loop at the first iteration
/// starting at or after it.
struct PeriodicLoop {
  std::int64_t iterations = 0;
  std::array<bus::AddressRange, 2> reads{};
  bus::AddressRange writes{};
  sim::SimTime deadline{};
};

/// At most N values in place: the runner's per-loop storage, which
/// allocates nothing. A slot is constructed when a value is appended, so
/// an empty list costs no initialisation. Appending past N aborts.
template <typename T, std::size_t N>
class FixedList {
  static_assert(std::is_trivially_destructible_v<T>,
                "a FixedList never destroys its values");

 public:
  FixedList() {}  // the slots stay unconstructed
  /// Construct the next value in place from `args`.
  template <typename... Args>
  void emplace_back(Args&&... args) {
    RTR_CHECK(size_ < N, "fixed list full");
    std::construct_at(items_ + size_, std::forward<Args>(args)...);
    ++size_;
  }
  void push_back(const T& v) { emplace_back(v); }
  void clear() { size_ = 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return items_[i]; }
  [[nodiscard]] const T* begin() const { return items_; }
  [[nodiscard]] const T* end() const { return items_ + size_; }
  [[nodiscard]] std::span<const T> view() const { return {begin(), size_}; }

 private:
  union {
    T items_[N];
  };
  std::size_t size_ = 0;
};

/// The buses a CPU access can reach (the PLB and the OPB behind it) and the
/// bridges between them, on either system.
inline constexpr std::size_t kMaxLoopBuses = 2;
inline constexpr std::size_t kMaxLoopBridges = 1;

/// The statistics one loop iteration advances, snapshotted so the closed
/// form can apply m times their change: every bus's transactions, beats,
/// busy time and latency histogram, the bridge's crossings and beat splits,
/// the CPU's loads and stores, and, under a quiet fault plan, the
/// opportunities of the fault sites a CPU access reaches (bus, icap and
/// readback). The components register all of them at construction, and the
/// snapshot takes them from the components. Device counters are not here:
/// the bulk side hands its data words to the device in one block
/// (bus::Slave::pio_block), and the device counts every strobe of it.
class IterationStats {
 public:
  IterationStats(const Ppc405& cpu, std::span<bus::Bus* const> buses,
                 std::span<const bus::PlbOpbBridge* const> bridges,
                 fault::FaultInjector* faults);

  /// Advance every series by `m` times its change since the snapshot.
  void repeat(std::int64_t m);

 private:
  // Two per bus and per bridge, and the CPU's loads and stores.
  FixedList<std::pair<sim::Counter*, std::int64_t>,
            2 * (kMaxLoopBuses + kMaxLoopBridges + 1)>
      counters_;
  FixedList<std::pair<sim::BusyTime*, sim::SimTime>, kMaxLoopBuses> busy_;
  FixedList<std::pair<sim::Histogram*, sim::Histogram>, kMaxLoopBuses> hists_;
  fault::FaultInjector* faults_;
  std::array<std::int64_t, 3> opportunities_{};  // bus, icap, readback
};

/// The closed-form half of run_periodic: the fallback checks, the snapshot
/// around iteration 1 and the m-fold advance.
class PeriodicReplay {
 public:
  PeriodicReplay(Kernel& k, const PeriodicLoop& loop);

  /// False when every iteration must run through the models: a tracer or
  /// trace logging is on, a fault plan has an active spec at a
  /// per-transaction site (bus, icap, dma or readback), the loop touches
  /// D-cacheable memory, a range it writes overlaps one whose pre-loop
  /// contents it reads, it has fewer than 4 iterations, or the buses it can
  /// reach run on different clocks. A plan whose active specs act per
  /// dispatch or per load (fail_stop, brownout, storage) keeps the closed
  /// form; the m-fold advance counts its bus, ICAP and readback
  /// opportunities.
  [[nodiscard]] bool allowed() const { return allowed_; }
  /// Snapshot before iteration 1.
  void begin_template();
  /// After iteration 1: true when iteration 2 starts at iteration 1's phase
  /// of the bus clock with every bus free, as iteration 1 did.
  [[nodiscard]] bool end_template();
  /// Iterations after the template that start before the watchdog's
  /// deadline, at most `left`.
  [[nodiscard]] std::int64_t count(std::int64_t left) const;
  /// Apply `m` copies of iteration 1: time, statistics, and the
  /// reservations of the buses iteration 1 used.
  void repeat(std::int64_t m);

 private:
  [[nodiscard]] bool buses_free_at(sim::SimTime t) const;

  Kernel* k_;
  sim::SimTime deadline_;
  FixedList<bus::Bus*, kMaxLoopBuses> buses_;
  FixedList<const bus::PlbOpbBridge*, kMaxLoopBridges> bridges_;
  bool allowed_ = false;
  sim::SimTime t1_;
  sim::SimTime t2_;
  bool free_at_t1_ = false;
  FixedList<sim::SimTime, kMaxLoopBuses> busy_at_t1_;
  std::optional<IterationStats> stats_;
};

/// Iterations [from, to) through the CPU and bus models: the reference.
/// Returns the iteration a non-zero `deadline` stopped the loop at, or `to`.
template <typename Iteration>
std::int64_t run_iterations(Kernel& k, sim::SimTime deadline,
                            std::int64_t from, std::int64_t to,
                            Iteration&& iteration) {
  for (std::int64_t i = from; i < to; ++i) {
    if (deadline.ps() > 0 && k.now() >= deadline) return i;  // watchdog
    iteration(i);
  }
  return to;
}

/// Run `loop`: `iteration(i)` times iteration i through the models and is
/// the single reference; `bulk(first, count)` applies only the data effect
/// of iterations [first, first + count). Returns the iterations run.
template <typename Iteration, typename Bulk>
std::int64_t run_periodic(Kernel& k, const PeriodicLoop& loop,
                          Iteration&& iteration, Bulk&& bulk) {
  const std::int64_t n = loop.iterations;
  const auto per_iteration = [&](std::int64_t from, std::int64_t to) {
    return run_iterations(k, loop.deadline, from, to, iteration);
  };
  PeriodicReplay replay(k, loop);
  if (!replay.allowed()) return per_iteration(0, n);
  // Iteration 0 absorbs the phase the loop starts at; iteration 1 is the
  // template.
  if (per_iteration(0, 1) < 1) return 0;
  replay.begin_template();
  if (per_iteration(1, 2) < 2) return 1;
  if (!replay.end_template()) return per_iteration(2, n);
  const std::int64_t m = replay.count(n - 2);
  bulk(std::int64_t{2}, m);
  replay.repeat(m);
  return 2 + m;
}

}  // namespace rtr::cpu
