// Slot-fixed parallel loop over independent simulations: each index owns
// its simulation and writes only its own result slot, so output assembled
// from the slots is byte-identical at any thread count, however the
// indices were scheduled.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rtr::sim {

/// Run fn(i) for every i in [0, n) on min(jobs, n) host threads, the
/// calling thread included (jobs < 1 counts as 1), and return once every
/// call has finished. A call that throws stops the hand-out of further
/// indices; the first exception is rethrown after all threads have joined.
template <typename F>
void parallel_for(std::size_t n, int jobs, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  auto worker = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      next = n;
    }
  };
  const std::size_t threads =
      std::min(n, static_cast<std::size_t>(std::max(jobs, 1)));
  {
    // jthreads join on destruction, also when creating one throws.
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rtr::sim
