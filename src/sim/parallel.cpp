#include "sim/parallel.hpp"

#include <algorithm>
#include <utility>

namespace rtr::sim {

WorkerPool::WorkerPool(int jobs, std::size_t n) {
  const std::size_t threads =
      std::min(n, static_cast<std::size_t>(std::max(jobs, 1)));
  for (std::size_t t = 1; t < threads; ++t) {
    workers_.emplace_back([this](std::stop_token stop) { serve(stop); });
  }
}

void WorkerPool::round(const std::size_t* order, std::size_t n, void* fn,
                       Call call) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    order_ = order;
    n_ = n;
    fn_ = fn;
    call_ = call;
    next_ = 0;
    busy_ = workers_.size();
    ++round_;
  }
  start_.notify_all();
  hand_out();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void WorkerPool::hand_out() {
  try {
    for (std::size_t k = next_++; k < n_; k = next_++) {
      call_(fn_, order_ != nullptr ? order_[k] : k);
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
    next_ = n_;
  }
}

// Every worker takes part in every round once, even one whose indices are
// all gone when it wakes: the caller waits for each, so that no worker
// still reads a round's state when the next is written.
void WorkerPool::serve(std::stop_token stop) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (start_.wait(lock, stop, [&] { return round_ != seen; })) {
    seen = round_;
    lock.unlock();
    hand_out();
    lock.lock();
    if (--busy_ == 0) done_.notify_one();
  }
}

}  // namespace rtr::sim
