// Simulation statistics.
//
// Components register named counters and accumulators with a StatRegistry so
// the bench harness can dump a uniform report (bus beats, cache hits, DMA
// bursts, reconfiguration bytes, ...). The whole registry exports to JSON
// and CSV for offline analysis (`--stats-out` on the CLI).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>

#include "sim/time.hpp"

namespace rtr::sim {

/// Write `s` as a quoted JSON string: quotes and backslashes escaped,
/// control characters as \u00XX. Shared by every JSON writer (stats
/// export, Chrome traces, bench files).
void write_json_string(std::ostream& os, const std::string& s);

/// A monotonically increasing event counter.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  [[nodiscard]] std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Accumulates samples: count / sum / min / max / mean / variance.
/// Variance uses Welford's online algorithm (numerically stable; no stored
/// sample set).
class Accumulator {
 public:
  void sample(double v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
  }
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance of the samples seen so far.
  [[nodiscard]] double variance() const {
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double stddev() const;
  /// Fold another accumulator in, as if its samples had been seen here
  /// (Chan et al. parallel-Welford combination; order-independent up to
  /// floating-point rounding).
  void merge(const Accumulator& o);
  void reset() { *this = Accumulator{}; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Log-bucketed histogram of non-negative samples (latencies in ps, sizes
/// in bytes). Bucket b holds values in [2^(b-1), 2^b); percentiles are
/// interpolated within the bucket, so relative error is bounded by the
/// bucket width (a factor of 2) and is usually much smaller.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void sample(std::int64_t v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  }
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Value at percentile `p` in [0, 100], linearly interpolated inside the
  /// containing bucket and clamped to the observed min/max.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p90() const { return percentile(90.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
  [[nodiscard]] double p999() const { return percentile(99.9); }
  void reset() { *this = Histogram{}; }

  /// Index of the bucket holding `v`: 0 for v <= 0, else 1 + floor(log2 v),
  /// clamped to the table.
  [[nodiscard]] static int bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    const int lg = 63 - __builtin_clzll(static_cast<unsigned long long>(v));
    return std::min(lg + 1, kBuckets - 1);
  }

  /// Fold another histogram in (exact: buckets add).
  void merge(const Histogram& o);

  /// Record `m` more copies of every sample added since `since`, an earlier
  /// copy of this histogram: buckets, count and sum advance by m times
  /// their change. Min and max need no update, since the repeated samples
  /// are already in them. Exactly equal to m replays of those samples.
  void add_repeat(const Histogram& since, std::int64_t m);

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Accumulates busy time of a shared resource so utilisation can be
/// reported against total simulated time.
class BusyTime {
 public:
  void add(SimTime from, SimTime to) {
    if (to > from) busy_ += (to - from);
  }
  [[nodiscard]] SimTime total() const { return busy_; }
  [[nodiscard]] double utilisation(SimTime horizon) const {
    if (horizon.ps() <= 0) return 0.0;
    return static_cast<double>(busy_.ps()) / static_cast<double>(horizon.ps());
  }
  void merge(const BusyTime& o) { busy_ += o.busy_; }
  void reset() { busy_ = SimTime::zero(); }

 private:
  SimTime busy_;
};

/// Flat registry of named statistics. Names use "component.stat" dotted
/// paths. Registration returns stable references owned by the registry.
class StatRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Accumulator& accumulator(const std::string& name) { return accs_[name]; }
  BusyTime& busy(const std::string& name) { return busy_[name]; }
  Histogram& histogram(const std::string& name) { return hists_[name]; }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Accumulator>& accumulators() const { return accs_; }
  [[nodiscard]] const std::map<std::string, BusyTime>& busy_times() const { return busy_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const { return hists_; }

  void reset_all();
  /// Fold another registry in by name: counters and busy times add,
  /// histograms merge bucket-wise, accumulators combine their moments.
  /// Stats absent here are created. The aggregation primitive of the
  /// multi-scenario CLI runners (sweep, serve).
  void merge(const StatRegistry& other);
  /// Dump all statistics, one per line, sorted by name.
  void print(std::ostream& os) const;
  /// Machine-readable exports of everything in the registry.
  void export_json(std::ostream& os) const;
  void export_csv(std::ostream& os) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Accumulator> accs_;
  std::map<std::string, BusyTime> busy_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace rtr::sim
