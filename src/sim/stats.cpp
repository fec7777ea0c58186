#include "sim/stats.hpp"

#include <cmath>
#include <cstdio>

namespace rtr::sim {

namespace {

/// JSON/CSV-safe rendering of a double (shortest round-trippable-ish form;
/// never "inf"/"nan", which JSON forbids).
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters are invalid raw inside JSON strings; names
      // should never contain them, but a malformed name must not poison
      // the whole export.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(o.count_);
  const double n = na + nb;
  mean_ += delta * (nb / n);
  m2_ += o.m2_ + delta * delta * (na * nb / n);
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Histogram::merge(const Histogram& o) {
  if (o.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        o.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Histogram::add_repeat(const Histogram& since, std::int64_t m) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += m * (buckets_[b] - since.buckets_[b]);
  }
  count_ += m * (count_ - since.count_);
  sum_ += m * (sum_ - since.sum_);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::min(std::max(p, 0.0), 100.0) / 100.0 * static_cast<double>(count_);
  std::int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b);
      const double frac =
          std::max(0.0, (target - static_cast<double>(cum))) /
          static_cast<double>(n);
      const double v = lo + frac * (hi - lo);
      // The bucket bounds can overshoot the values actually seen.
      return std::min(std::max(v, static_cast<double>(min_)),
                      static_cast<double>(max_));
    }
    cum += n;
  }
  return static_cast<double>(max_);
}

void StatRegistry::reset_all() {
  for (auto& [k, v] : counters_) v.reset();
  for (auto& [k, v] : accs_) v.reset();
  for (auto& [k, v] : busy_) v.reset();
  for (auto& [k, v] : hists_) v.reset();
}

void StatRegistry::merge(const StatRegistry& other) {
  for (const auto& [k, v] : other.counters_) counters_[k].add(v.value());
  for (const auto& [k, v] : other.accs_) accs_[k].merge(v);
  for (const auto& [k, v] : other.busy_) busy_[k].merge(v);
  for (const auto& [k, v] : other.hists_) hists_[k].merge(v);
}

void StatRegistry::print(std::ostream& os) const {
  for (const auto& [k, v] : counters_) {
    os << k << " = " << v.value() << '\n';
  }
  for (const auto& [k, v] : accs_) {
    os << k << " : n=" << v.count() << " mean=" << v.mean()
       << " stddev=" << v.stddev() << " min=" << v.min() << " max=" << v.max()
       << '\n';
  }
  for (const auto& [k, v] : busy_) {
    os << k << " busy=" << v.total().to_string() << '\n';
  }
  for (const auto& [k, v] : hists_) {
    os << k << " : n=" << v.count() << " p50=" << v.p50() << " p90=" << v.p90()
       << " p99=" << v.p99() << " p999=" << v.p999() << " max=" << v.max()
       << '\n';
  }
}

void StatRegistry::export_json(std::ostream& os) const {
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n    ";
  };
  os << "{\n  \"counters\": {";
  for (const auto& [k, v] : counters_) {
    sep();
    write_json_string(os, k);
    os << ": " << v.value();
  }
  os << "\n  },\n  \"accumulators\": {";
  first = true;
  for (const auto& [k, v] : accs_) {
    sep();
    write_json_string(os, k);
    os << ": {\"count\": " << v.count() << ", \"sum\": " << fmt_double(v.sum())
       << ", \"min\": " << fmt_double(v.min())
       << ", \"max\": " << fmt_double(v.max())
       << ", \"mean\": " << fmt_double(v.mean())
       << ", \"stddev\": " << fmt_double(v.stddev()) << "}";
  }
  os << "\n  },\n  \"busy\": {";
  first = true;
  for (const auto& [k, v] : busy_) {
    sep();
    write_json_string(os, k);
    os << ": {\"busy_ps\": " << v.total().ps() << "}";
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [k, v] : hists_) {
    sep();
    write_json_string(os, k);
    os << ": {\"count\": " << v.count() << ", \"min\": " << v.min()
       << ", \"max\": " << v.max() << ", \"mean\": " << fmt_double(v.mean())
       << ", \"p50\": " << fmt_double(v.p50())
       << ", \"p90\": " << fmt_double(v.p90())
       << ", \"p99\": " << fmt_double(v.p99())
       << ", \"p999\": " << fmt_double(v.p999()) << "}";
  }
  os << "\n  }\n}\n";
}

void StatRegistry::export_csv(std::ostream& os) const {
  os << "kind,name,value,count,min,max,mean,stddev,p50,p90,p99,p999\n";
  for (const auto& [k, v] : counters_) {
    os << "counter," << k << "," << v.value() << ",,,,,,,,,\n";
  }
  for (const auto& [k, v] : accs_) {
    os << "accumulator," << k << "," << fmt_double(v.sum()) << ","
       << v.count() << "," << fmt_double(v.min()) << "," << fmt_double(v.max())
       << "," << fmt_double(v.mean()) << "," << fmt_double(v.stddev())
       << ",,,,\n";
  }
  for (const auto& [k, v] : busy_) {
    os << "busy," << k << "," << v.total().ps() << ",,,,,,,,,\n";
  }
  for (const auto& [k, v] : hists_) {
    os << "histogram," << k << "," << v.sum() << "," << v.count() << ","
       << v.min() << "," << v.max() << "," << fmt_double(v.mean()) << ","
       << "," << fmt_double(v.p50()) << "," << fmt_double(v.p90()) << ","
       << fmt_double(v.p99()) << "," << fmt_double(v.p999()) << "\n";
  }
}

}  // namespace rtr::sim
