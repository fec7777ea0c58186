#include "trace/tracer.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/check.hpp"
#include "sim/stats.hpp"

namespace rtr::trace {

namespace {

/// Counter events carry no track; group them under one synthetic tid so the
/// Chrome UI renders each counter name as its own row.
constexpr int kCounterTrack = -1;
constexpr int kPid = 1;

/// Picoseconds to the Chrome unit (microseconds), keeping ps resolution.
/// Negative values print as a leading '-' over the magnitude (the naive
/// `quot "." rem` split would emit "0.-5" style non-JSON for them).
void write_us(std::ostream& os, std::int64_t ps) {
  std::uint64_t mag;
  if (ps < 0) {
    os << '-';
    mag = ~static_cast<std::uint64_t>(ps) + 1;
  } else {
    mag = static_cast<std::uint64_t>(ps);
  }
  os << mag / 1'000'000;
  const std::uint64_t frac = mag % 1'000'000;
  if (frac != 0) {
    char buf[16];
    std::snprintf(buf, sizeof buf, ".%06llu",
                  static_cast<unsigned long long>(frac));
    // trim trailing zeros
    std::string s{buf};
    while (s.back() == '0') s.pop_back();
    os << s;
  }
}

[[nodiscard]] bool is_flow(Phase ph) {
  return ph == Phase::kFlowStart || ph == Phase::kFlowStep ||
         ph == Phase::kFlowEnd;
}

}  // namespace

int Tracer::track(const std::string& name) {
  const auto it = std::find(track_names_.begin(), track_names_.end(), name);
  if (it != track_names_.end()) {
    return static_cast<int>(it - track_names_.begin());
  }
  track_names_.push_back(name);
  depth_.push_back(0);
  return static_cast<int>(track_names_.size()) - 1;
}

void Tracer::record(TraceEvent ev) {
  if (!enabled_) return;
  if (observer_) observer_(ev);
  if (store_events_) events_.push_back(std::move(ev));
}

void Tracer::begin(int track, std::string name, sim::SimTime at) {
  if (!enabled_) return;
  RTR_CHECK(track >= 0 && track < static_cast<int>(track_names_.size()),
            "begin on an unregistered track");
  ++depth_[static_cast<std::size_t>(track)];
  ++open_spans_;
  record({Phase::kBegin, track, at.ps(), 0, std::move(name), "", 0});
}

void Tracer::end(int track, sim::SimTime at) {
  if (!enabled_) return;
  RTR_CHECK(track >= 0 && track < static_cast<int>(track_names_.size()),
            "end on an unregistered track");
  RTR_CHECK(depth_[static_cast<std::size_t>(track)] > 0,
            "end without a matching begin");
  --depth_[static_cast<std::size_t>(track)];
  --open_spans_;
  record({Phase::kEnd, track, at.ps(), 0, "", "", 0});
}

void Tracer::complete(int track, std::string name, sim::SimTime start,
                      sim::SimTime end) {
  record({Phase::kComplete, track, start.ps(), (end - start).ps(),
          std::move(name), "", 0});
}

void Tracer::complete(int track, std::string name, sim::SimTime start,
                      sim::SimTime end, std::string arg_name,
                      std::int64_t arg_value) {
  record({Phase::kComplete, track, start.ps(), (end - start).ps(),
          std::move(name), std::move(arg_name), arg_value});
}

void Tracer::instant(int track, std::string name, sim::SimTime at) {
  record({Phase::kInstant, track, at.ps(), 0, std::move(name), "", 0});
}

void Tracer::instant(int track, std::string name, sim::SimTime at,
                     std::string arg_name, std::int64_t arg_value) {
  record({Phase::kInstant, track, at.ps(), 0, std::move(name),
          std::move(arg_name), arg_value});
}

void Tracer::counter(std::string name, std::int64_t value, sim::SimTime at) {
  record({Phase::kCounter, kCounterTrack, at.ps(), 0, std::move(name),
          "value", value});
}

void Tracer::flow(Phase ph, int track, std::string name, std::int64_t id,
                  sim::SimTime at) {
  if (!enabled_) return;
  RTR_CHECK(is_flow(ph), "flow() requires a flow phase");
  RTR_CHECK(track >= 0 && track < static_cast<int>(track_names_.size()),
            "flow on an unregistered track");
  record({ph, track, at.ps(), 0, std::move(name), "", 0, id});
}

void Tracer::clear() {
  events_.clear();
  std::fill(depth_.begin(), depth_.end(), 0);
  open_spans_ = 0;
}

void write_chrome_track_meta(std::ostream& os, const std::string& name,
                             std::size_t tid) {
  os << R"({"name":"thread_name","ph":"M","pid":)" << kPid
     << R"(,"tid":)" << tid << R"(,"args":{"name":)";
  sim::write_json_string(os, name);
  os << "}}";
}

void write_chrome_event(std::ostream& os, const TraceEvent& e,
                        std::size_t n_tracks) {
  os << "{\"name\":";
  sim::write_json_string(os, e.ph == Phase::kEnd ? std::string{} : e.name);
  os << ",\"ph\":\"" << static_cast<char>(e.ph) << "\",\"ts\":";
  write_us(os, e.ts_ps);
  os << ",\"pid\":" << kPid << ",\"tid\":"
     << (e.track == kCounterTrack ? static_cast<int>(n_tracks) : e.track);
  if (e.ph == Phase::kComplete) {
    os << ",\"dur\":";
    write_us(os, e.dur_ps);
  }
  if (e.ph == Phase::kInstant) {
    os << ",\"s\":\"t\"";
  }
  if (is_flow(e.ph)) {
    // Flow chains share a category + id; "bp":"e" binds each point to the
    // slice enclosing its (tid, ts) rather than requiring an exact match.
    os << ",\"cat\":\"req\",\"id\":" << e.flow_id << ",\"bp\":\"e\"";
  }
  if (e.ph == Phase::kCounter) {
    os << ",\"args\":{\"value\":" << e.arg_value << "}";
  } else if (!e.arg_name.empty()) {
    os << ",\"args\":{";
    sim::write_json_string(os, e.arg_name);
    os << ":" << e.arg_value << "}";
  }
  os << "}";
}

void Tracer::export_chrome(std::ostream& os) const {
  os << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // Thread-name metadata so the UI labels each track.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    sep();
    write_chrome_track_meta(os, track_names_[i], i);
  }
  for (const TraceEvent& e : events_) {
    sep();
    write_chrome_event(os, e, track_names_.size());
  }
  os << "\n]\n";
}

void Tracer::export_timeline(std::ostream& os) const {
  std::vector<int> depth(track_names_.size() + 1, 0);
  auto track_name = [&](int t) -> std::string {
    return t == kCounterTrack ? "counter" : track_names_[static_cast<std::size_t>(t)];
  };
  for (const TraceEvent& e : events_) {
    const std::size_t ti =
        e.track == kCounterTrack ? track_names_.size()
                                 : static_cast<std::size_t>(e.track);
    int d = depth[ti];
    if (e.ph == Phase::kEnd) --d;
    os << sim::SimTime{e.ts_ps}.to_string() << " [" << track_name(e.track)
       << "] " << std::string(static_cast<std::size_t>(std::max(d, 0)) * 2, ' ');
    switch (e.ph) {
      case Phase::kBegin:
        os << "+ " << e.name;
        ++depth[ti];
        break;
      case Phase::kEnd:
        os << "-";
        --depth[ti];
        break;
      case Phase::kComplete:
        os << e.name << " (" << sim::SimTime{e.dur_ps}.to_string() << ")";
        if (!e.arg_name.empty()) {
          os << " " << e.arg_name << "=" << e.arg_value;
        }
        break;
      case Phase::kInstant:
        os << "! " << e.name;
        if (!e.arg_name.empty()) {
          os << " " << e.arg_name << "=" << e.arg_value;
        }
        break;
      case Phase::kCounter:
        os << e.name << " = " << e.arg_value;
        break;
      case Phase::kFlowStart:
        os << "~> " << e.name << " flow=" << e.flow_id;
        break;
      case Phase::kFlowStep:
        os << "~ " << e.name << " flow=" << e.flow_id;
        break;
      case Phase::kFlowEnd:
        os << "~| " << e.name << " flow=" << e.flow_id;
        break;
    }
    os << "\n";
  }
}

}  // namespace rtr::trace
