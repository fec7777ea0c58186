// Slot-fixed parallel rounds over independent simulations: each index owns
// its simulation and writes only its own result slot, so output assembled
// from the slots is byte-identical at any thread count, however the
// indices were scheduled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <stop_token>
#include <thread>
#include <type_traits>
#include <vector>

namespace rtr::sim {

/// Host threads that run rounds of independent calls. The pool starts
/// min(jobs, n) - 1 threads once (jobs < 1 counts as 1; n is the most
/// indices a round needs run at once), and the thread that calls run()
/// takes part in every round. Between rounds the threads block on a
/// condition variable; they never spin.
class WorkerPool {
 public:
  WorkerPool(int jobs, std::size_t n);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// One round: fn(order[k]) for every k, the indices handed out in
  /// `order`'s sequence, and return once every call has finished. A call
  /// that throws stops the hand-out of further indices; the first exception
  /// is rethrown after the round, and the pool stays usable.
  template <typename F>
  void run(std::span<const std::size_t> order, F&& fn) {
    round(order.data(), order.size(), erase(fn), &call<F>);
  }
  /// One round over [0, n), handed out in index order.
  template <typename F>
  void run(std::size_t n, F&& fn) {
    round(nullptr, n, erase(fn), &call<F>);
  }

  /// Host threads a round runs on, the caller's included.
  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

 private:
  using Call = void (*)(void*, std::size_t);
  template <typename F>
  static void* erase(F& fn) {
    return const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
  }
  template <typename F>
  static void call(void* fn, std::size_t i) {
    (*static_cast<std::remove_reference_t<F>*>(fn))(i);
  }

  void round(const std::size_t* order, std::size_t n, void* fn, Call call);
  /// Take indices of the current round until none is left.
  void hand_out();
  void serve(std::stop_token stop);

  std::mutex mu_;
  std::condition_variable_any start_;
  std::condition_variable done_;
  // The current round: written under mu_ before it starts, read-only
  // while it runs.
  const std::size_t* order_ = nullptr;  // null: index order
  std::size_t n_ = 0;
  void* fn_ = nullptr;
  Call call_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;  // guarded by mu_
  std::uint64_t round_ = 0;   // guarded by mu_
  std::size_t busy_ = 0;      // workers still in the round; guarded by mu_
  // Last, so that the threads stop and join before the state they share
  // goes, also when starting one of them throws.
  std::vector<std::jthread> workers_;
};

/// Run fn(i) for every i in [0, n) on min(jobs, n) host threads, the
/// calling thread included: one round on a pool of its own.
template <typename F>
void parallel_for(std::size_t n, int jobs, F&& fn) {
  WorkerPool(jobs, n).run(n, fn);
}

}  // namespace rtr::sim
