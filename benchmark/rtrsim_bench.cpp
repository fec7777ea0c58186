// rtrsim_bench: the benchmark driver. One process runs one workload once,
// from an empty plan cache and a blank fabric as every CLI run does, and
// prints one JSON line (README.md lists the workloads and metrics).
//
//   rtrsim_bench --workload W [--seed N] [--scale-div D]
//       Untraced run: the serve phase is timed as a whole; prints the
//       end-to-end metrics.
//   rtrsim_bench --workload W --mode trace [--trace-out FILE] ...
//       Traced run: a serve pass that times every serving call, then a
//       replay of its disposals on a fresh platform that times
//       ModuleManager::warm/ensure and the exec calls; prints the per-layer
//       metrics and writes the spans as a Chrome trace on the host clock.
//   rtrsim_bench --check-heavy
//       Self-test: the closed-loop driver reproduces serve::run_workload.
//
// Only public library calls are driven: TaskServer::submit/serve_batch,
// fleet::run_fleet, ModuleManager::warm/ensure, serve::exec_request/
// exec_image_batch and FleetRouter::route.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <queue>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "serve/batch_exec.hpp"
#include "serve/exec.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/fleet/router.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace {

namespace hw = rtr::hw;
namespace serve = rtr::serve;
namespace fleet = rtr::serve::fleet;
namespace sim = rtr::sim;
using rtr::Platform32;
using rtr::Platform64;
using serve::Completion;
using serve::Outcome;
using serve::Request;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, ahead of the library's own static
// constructors (default priority), so setup_s covers them.
__attribute__((init_priority(101))) const Clock::time_point g_start =
    Clock::now();

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Shortest decimal that reads back as `v` (JSON has no inf/nan).
std::string num(double v) {
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, std::isfinite(v) ? v : 0);
  return {buf, r.ptr};
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- workloads ---------------------------------------------------------------

enum class Loop { kClosed, kOpen, kFleet };

/// One benchmark workload; README.md says why each exists. A run of one
/// takes 1.5 to 2.5 host seconds, so one measurement holds several runs.
struct Workload {
  const char* name;
  Loop loop;
  int system;        // 32 or 64 (every fleet device is a 64)
  int areas;         // dynamic areas per device
  int max_batch;     // 1 = unbatched
  int clients;       // closed loop: client population; fleet: devices
  int requests;      // closed loop: rounds per client; otherwise arrivals
  std::int64_t gap_ps;       // mean think time / arrival gap, U[0, 2x mean]
  std::int64_t deadline_ps;  // per-request budget
  std::size_t queue;         // admission bound (per device)
  std::vector<serve::TaskMix> mix;  // the fleet draws Zipf(1) instead
};

constexpr std::int64_t kMs = sim::SimTime::from_ms(1).ps();
constexpr std::int64_t kUs = sim::SimTime::from_us(1).ps();

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"swap_storm", Loop::kClosed, 64, 1, 1, 4, 256, 80 * kMs, 250 * kMs,
       48,
       {{hw::kJenkinsHash, 5},
        {hw::kBrightness, 3},
        {hw::kBlendAdd, 3},
        {hw::kFade, 2},
        {hw::kPatternMatcher, 2}}},
      {"resident_hot", Loop::kOpen, 64, 2, 8, 0, 28000, 250 * kUs, 250 * kMs,
       256, {{hw::kJenkinsHash, 1}, {hw::kBrightness, 1}}},
      {"degraded_32", Loop::kClosed, 32, 1, 1, 8, 300, 80 * kMs, 250 * kMs, 32,
       {{hw::kSha1, 4}, {hw::kJenkinsHash, 3}, {hw::kPatternMatcher, 1}}},
      {"fleet_failover", Loop::kFleet, 64, 1, 1, 8, 30000, 4 * kMs,
       250 * kMs, 64, {}},
  };
  return kAll;
}

/// A fleet device fail-stops at its 500th dispatch of the full-size run
/// (every seed routes it more than that).
constexpr int kFailStopDispatch = 500;
constexpr int kFailStopDevice = 1;

const Workload* workload_by_name(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int scaled(int n, int div) { return std::max(1, n / div); }

serve::WorkloadSpec closed_spec(const Workload& w, int div) {
  return {w.name, w.clients, scaled(w.requests, div), w.gap_ps,
          w.deadline_ps, w.queue, w.mix};
}

/// Open-loop arrivals: the integer-only draws of serve::make_open_stream,
/// over the workload's own mix.
std::vector<Request> make_open_stream(const Workload& w, int div,
                                      std::uint64_t seed) {
  sim::Rng rng{seed};
  const int n = scaled(w.requests, div);
  std::vector<Request> stream;
  stream.reserve(static_cast<std::size_t>(n));
  std::int64_t at_ps = 0;
  for (int i = 0; i < n; ++i) {
    at_ps += w.gap_ps / 1000 * static_cast<std::int64_t>(rng.below(2001));
    Request r;
    r.id = i + 1;
    r.behavior = serve::draw_mix(rng, w.mix);
    r.priority = serve::draw_priority(rng);
    r.submitted = sim::SimTime::from_ps(at_ps);
    r.deadline = sim::SimTime::from_ps(at_ps + w.deadline_ps);
    stream.push_back(r);
  }
  return stream;
}

fleet::FleetOptions fleet_options(const Workload& w, int div,
                                  std::uint64_t seed) {
  fleet::FleetOptions fo;
  fo.devices = w.clients;
  fo.mix = {w.system};
  fo.areas = w.areas;
  fo.affinity = true;
  fo.steal_threshold = 4;
  fo.queue_capacity = w.queue;
  fo.batch.max_batch = w.max_batch;
  fo.jobs = 3;
  fo.seed = seed;
  fo.health.enabled = true;
  rtr::fault::FaultSpec spec;
  const std::string text = "fail_stop:once@" +
                           std::to_string(scaled(kFailStopDispatch, div)) +
                           ":1:" + std::to_string(kFailStopDevice);
  RTR_CHECK(rtr::fault::FaultSpec::parse(text, &spec), "fleet fault spec");
  fo.fault_plan.add(spec);
  return fo;
}

fleet::FleetWorkloadSpec fleet_spec(const Workload& w, int div) {
  fleet::FleetWorkloadSpec fw;
  fw.requests = scaled(w.requests, div);
  fw.mean_gap_ps = w.gap_ps;
  fw.rel_deadline_ps = w.deadline_ps;
  fw.zipf_skew = 1;
  return fw;
}

// --- host-clock tracing ------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;  // since process start
  std::int64_t dur_ns;
  int tid;               // 1 serve pass, 2 replay, 3 fleet, 10+i shard i
  std::int64_t req;      // request id (the leader, for a batch)
};

/// Spans and per-call samples of a traced run, kept in memory and written
/// out when the run ends.
struct Trace {
  std::vector<Span> spans;
  std::vector<std::int64_t> submit_ns;
  std::vector<std::int64_t> serve_ns;       // per serve_batch call
  std::vector<std::int64_t> admit_lag_ps;   // admission time - due time
  std::vector<std::vector<Completion>> groups;  // disposals per serve call

  void span(const char* name, Clock::time_point t0, Clock::time_point t1,
            int tid, std::int64_t req) {
    spans.push_back(
        {name, ns_between(g_start, t0), ns_between(t0, t1), tid, req});
  }

  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot open " << path << "\n";
      std::exit(1);
    }
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    std::set<int> tids;
    for (const Span& s : spans) tids.insert(s.tid);
    for (const int tid : tids) {
      const std::string name = tid == 1   ? "serve pass"
                               : tid == 2 ? "replay"
                               : tid == 3 ? "fleet"
                                          : "replay shard " +
                                                std::to_string(tid - 10);
      os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
         << "\"tid\": " << tid << ", \"args\": {\"name\": \"" << name
         << "\"}},\n";
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string_view name{s.name};
      os << "{\"name\": \"" << name << "\", \"cat\": \""
         << name.substr(0, name.find('.')) << "\", \"ph\": \"X\", \"pid\": 1"
         << ", \"tid\": " << s.tid
         << ", \"ts\": " << num(static_cast<double>(s.start_ns) / 1e3)
         << ", \"dur\": " << num(static_cast<double>(s.dur_ns) / 1e3)
         << ", \"args\": {\"req\": " << s.req << "}}"
         << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }
};

// --- serve pass --------------------------------------------------------------

/// The serving calls of one run. Untraced, the caller times the phase as a
/// whole; traced, every call is timed and its disposals kept for replay.
template <typename Platform>
class Calls {
 public:
  Calls(Platform& p, serve::TaskServer<Platform>& srv, Trace* tr)
      : p_(p), srv_(srv), tr_(tr) {}

  bool submit(const Request& r) {
    if (tr_ == nullptr) return srv_.submit(r) == serve::AdmitError::kNone;
    tr_->admit_lag_ps.push_back(p_.kernel().now().ps() - r.submitted.ps());
    const auto t0 = Clock::now();
    const bool admitted = srv_.submit(r) == serve::AdmitError::kNone;
    const auto t1 = Clock::now();
    tr_->submit_ns.push_back(ns_between(t0, t1));
    tr_->span("serve.submit", t0, t1, 1, r.id);
    return admitted;
  }

  std::vector<Completion> serve() {
    if (tr_ == nullptr) return srv_.serve_batch();
    const auto t0 = Clock::now();
    std::vector<Completion> out = srv_.serve_batch();
    const auto t1 = Clock::now();
    tr_->serve_ns.push_back(ns_between(t0, t1));
    tr_->span("serve.serve_batch", t0, t1, 1, out.front().req.id);
    tr_->groups.push_back(out);
    return out;
  }

  [[nodiscard]] bool pending() const { return srv_.pending(); }

 private:
  Platform& p_;
  serve::TaskServer<Platform>& srv_;
  Trace* tr_;
};

/// Closed loop, call for call the loop of serve::run_workload (the
/// --check-heavy self-test holds it to that): each client submits its next
/// request a think time after its previous one was disposed of.
template <typename Platform>
void drive_closed(Platform& p, Calls<Platform>& calls,
                  const serve::WorkloadSpec& w, std::uint64_t seed) {
  sim::Rng rng{seed};
  struct Pending {
    std::int64_t at_ps;
    int client;
    bool operator>(const Pending& o) const {
      return at_ps != o.at_ps ? at_ps > o.at_ps : client > o.client;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> events;
  std::vector<int> remaining(static_cast<std::size_t>(w.clients), w.rounds);
  for (int cl = 0; cl < w.clients; ++cl) {
    events.push({p.kernel().now().ps() + serve::draw_think_ps(rng, w), cl});
  }
  const auto dispose = [&](int client, std::int64_t at_ps) {
    if (remaining[static_cast<std::size_t>(client)] > 0) {
      events.push({at_ps + serve::draw_think_ps(rng, w), client});
    }
  };
  std::int64_t next_id = 1;
  while (!events.empty() || calls.pending()) {
    if (!calls.pending() && !events.empty() &&
        events.top().at_ps > p.kernel().now().ps()) {
      p.cpu().idle_until(sim::SimTime::from_ps(events.top().at_ps));
    }
    while (!events.empty() && events.top().at_ps <= p.kernel().now().ps()) {
      const Pending e = events.top();
      events.pop();
      Request r;
      r.id = next_id++;
      r.client = e.client;
      r.behavior = serve::draw_behavior(rng, w);
      r.priority = serve::draw_priority(rng);
      r.submitted = sim::SimTime::from_ps(e.at_ps);
      if (w.rel_deadline_ps > 0) {
        r.deadline = sim::SimTime::from_ps(e.at_ps + w.rel_deadline_ps);
      }
      --remaining[static_cast<std::size_t>(e.client)];
      if (!calls.submit(r)) dispose(e.client, p.kernel().now().ps());
    }
    if (calls.pending()) {
      for (const Completion& c : calls.serve()) {
        dispose(c.req.client, c.finished.ps());
      }
    }
  }
}

/// Open loop, as serve::run_open_workload: arrivals come at their drawn
/// times whether or not earlier requests have finished. They are admitted
/// between serve calls; latency still counts from the due time.
template <typename Platform>
void drive_open(Platform& p, Calls<Platform>& calls,
                const std::vector<Request>& stream) {
  std::size_t next = 0;
  while (next < stream.size() || calls.pending()) {
    if (!calls.pending() && next < stream.size() &&
        stream[next].submitted > p.kernel().now()) {
      p.cpu().idle_until(stream[next].submitted);
    }
    while (next < stream.size() &&
           stream[next].submitted <= p.kernel().now()) {
      (void)calls.submit(stream[next]);
      ++next;
    }
    if (calls.pending()) (void)calls.serve();
  }
}

struct ServePass {
  serve::ServeReport report;
  sim::StatRegistry stats;
  std::int64_t icap_words = 0;  // words the ICAP consumed
  std::int64_t setup_ns = 0;    // process start -> first timed call
  std::int64_t host_ns = 0;     // the timed phase
};

template <typename Platform>
ServePass serve_pass(const Workload& w, int div, std::uint64_t seed,
                     Trace* tr) {
  rtr::PlatformOptions po;
  po.dynamic_areas = w.areas;
  Platform p{po};
  serve::ServeOptions so;
  so.batch.max_batch = w.max_batch;
  serve::TaskServer<Platform> srv(p, w.queue, so, seed);
  Calls<Platform> calls(p, srv, tr);
  ServePass out;
  if (w.loop == Loop::kClosed) {
    const serve::WorkloadSpec spec = closed_spec(w, div);
    const auto t0 = Clock::now();
    drive_closed(p, calls, spec, seed);
    out.setup_ns = ns_between(g_start, t0);
    out.host_ns = ns_between(t0, Clock::now());
  } else {
    const std::vector<Request> stream = make_open_stream(w, div, seed);
    const auto t0 = Clock::now();
    drive_open(p, calls, stream);
    out.setup_ns = ns_between(g_start, t0);
    out.host_ns = ns_between(t0, Clock::now());
  }
  out.report = srv.report();
  out.stats = p.sim().stats();
  out.icap_words = p.icap_ctl().words_consumed();
  return out;
}

// --- dispositions ------------------------------------------------------------

/// The final disposition of every submitted request. In the fleet a
/// request may be disposed of on several devices (fail-stop, then
/// re-dispatch); it counts as served when any of them served it.
struct Dispositions {
  std::int64_t submitted = 0;
  std::int64_t served = 0;  // served with a golden-ok output
  std::int64_t served_hw = 0;
  std::int64_t on_time = 0;
  std::int64_t failed = 0;  // never served with a golden-ok output
  std::int64_t golden_mismatches = 0;
  std::int64_t makespan_ps = 0;
  std::vector<std::int64_t> latency_ps;  // finished - due, served requests
};

bool served(const Completion& c) {
  return c.outcome == Outcome::kHw || c.outcome == Outcome::kSw;
}

/// `due` gives each id's arrival (index id - 1); empty means the
/// completion's own request carries it.
Dispositions tally(const std::vector<const Completion*>& all,
                   std::int64_t submitted, const std::vector<Request>& due) {
  Dispositions d;
  d.submitted = submitted;
  std::vector<const Completion*> best(static_cast<std::size_t>(submitted) + 1,
                                      nullptr);
  for (const Completion* c : all) {
    if (served(*c) && !c->golden_ok) ++d.golden_mismatches;
    const Completion*& b = best[static_cast<std::size_t>(c->req.id)];
    if (b == nullptr || (served(*c) && c->golden_ok)) b = c;
  }
  for (std::int64_t id = 1; id <= submitted; ++id) {
    const Completion* c = best[static_cast<std::size_t>(id)];
    if (c == nullptr || !served(*c) || !c->golden_ok) {
      ++d.failed;
      continue;
    }
    const Request& r =
        due.empty() ? c->req : due[static_cast<std::size_t>(id - 1)];
    ++d.served;
    if (c->outcome == Outcome::kHw) ++d.served_hw;
    if (r.deadline.ps() == 0 || c->finished <= r.deadline) ++d.on_time;
    d.latency_ps.push_back(c->finished.ps() - r.submitted.ps());
    d.makespan_ps = std::max(d.makespan_ps, c->finished.ps());
  }
  std::sort(d.latency_ps.begin(), d.latency_ps.end());
  return d;
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool sim;  // simulated clock / exact counter (vs host measurement)
};

/// One JSON line: the run's checks, its metrics and auxiliary numbers.
struct Result {
  std::string workload;
  std::string mode;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t golden_mismatches = 0;
  bool digests_ok = true;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> aux;

  void add(std::string name, double v, std::string unit, bool sim) {
    metrics.push_back({std::move(name), v, std::move(unit), sim});
  }

  void count(const Dispositions& d) {
    attempted = d.submitted;
    failed = d.failed;
    golden_mismatches = d.golden_mismatches;
  }

  void print() const {
    std::ostringstream os;
    os << "{\"workload\": \"" << workload << "\", \"mode\": \"" << mode
       << "\", \"attempted\": "
       << attempted << ", \"failed\": " << failed
       << ", \"golden_mismatches\": " << golden_mismatches
       << ", \"digests_ok\": " << (digests_ok ? "true" : "false")
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
         << num(m.value) << ", \"unit\": \"" << m.unit << "\", \"clock\": \""
         << (m.sim ? "sim" : "host") << "\"}";
    }
    os << "}, \"aux\": {";
    for (std::size_t i = 0; i < aux.size(); ++i) {
      os << (i ? ", " : "") << '"' << aux[i].first
         << "\": " << num(aux[i].second);
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

std::int64_t counter(const sim::StatRegistry& st, const std::string& name) {
  const auto it = st.counters().find(name);
  return it == st.counters().end() ? 0 : it->second.value();
}

const sim::Histogram* histogram(const sim::StatRegistry& st,
                                const std::string& name) {
  const auto it = st.histograms().find(name);
  return it == st.histograms().end() ? nullptr : &it->second;
}

std::int64_t bus_transactions(const sim::StatRegistry& st) {
  return counter(st, "PLB.transactions") + counter(st, "OPB.transactions");
}

void add_end_to_end(Result& res, const Dispositions& d, std::int64_t setup_ns,
                    std::int64_t host_ns) {
  res.count(d);
  res.add("host_req_per_s",
          ratio(static_cast<double>(d.submitted),
                static_cast<double>(host_ns) * 1e-9),
          "req/s", false);
  res.add("setup_s", static_cast<double>(setup_ns) * 1e-9, "s", false);
  res.add("peak_rss_mb", peak_rss_mib(), "MiB", false);
  res.add("sim_latency_p50_ms", percentile(d.latency_ps, 50) / 1e9, "sim_ms",
          true);
  res.add("sim_latency_p99_ms", percentile(d.latency_ps, 99) / 1e9, "sim_ms",
          true);
  res.add("sim_throughput_rps",
          ratio(static_cast<double>(d.served),
                static_cast<double>(d.makespan_ps) * 1e-12),
          "req/sim_s", true);
  res.add("deadline_met_ratio",
          ratio(static_cast<double>(d.on_time),
                static_cast<double>(d.submitted)),
          "fraction", true);
  res.add("hw_ratio",
          ratio(static_cast<double>(d.served_hw),
                static_cast<double>(d.submitted)),
          "fraction", true);
  res.aux.push_back({"timed_ns", static_cast<double>(host_ns)});
  res.aux.push_back(
      {"latency_samples", static_cast<double>(d.latency_ps.size())});
}

// --- replay ------------------------------------------------------------------

/// Host time per layer, measured by the replay.
struct LayerTimes {
  std::int64_t warm_ns = 0, builds = 0;
  std::int64_t swap_ns = 0, swaps = 0, words = 0;
  std::int64_t hit_ns = 0, hits = 0;
  std::int64_t failed_ensure_ns = 0;
  std::int64_t hw_ns = 0, hw_execs = 0;
  std::int64_t batch_ns = 0, batch_members = 0;
  std::int64_t sw_ns = 0, sw_execs = 0;
  bool clock_ok = true;
  bool digests_ok = true;

  [[nodiscard]] std::int64_t ensure_ns() const {
    return swap_ns + hit_ns + failed_ensure_ns;
  }
  [[nodiscard]] std::int64_t rtr_ns() const { return warm_ns + ensure_ns(); }
  [[nodiscard]] std::int64_t apps_ns() const {
    return hw_ns + batch_ns + sw_ns;
  }
  [[nodiscard]] std::int64_t total_ns() const { return rtr_ns() + apps_ns(); }

  void add(const LayerTimes& o) {
    warm_ns += o.warm_ns;
    builds += o.builds;
    swap_ns += o.swap_ns;
    swaps += o.swaps;
    words += o.words;
    hit_ns += o.hit_ns;
    hits += o.hits;
    failed_ensure_ns += o.failed_ensure_ns;
    hw_ns += o.hw_ns;
    hw_execs += o.hw_execs;
    batch_ns += o.batch_ns;
    batch_members += o.batch_members;
    sw_ns += o.sw_ns;
    sw_execs += o.sw_execs;
    clock_ok = clock_ok && o.clock_ok;
    digests_ok = digests_ok && o.digests_ok;
  }
};

/// TaskServer's input seed for a request (a pure function of the server
/// seed and the request id). The replay feeds exec the same inputs; the
/// digest comparison checks that it did.
std::uint64_t input_seed(std::uint64_t seed, std::int64_t id) {
  std::uint64_t h = serve::kFnvOffset;
  h = serve::fnv1a_u32(static_cast<std::uint32_t>(seed), h);
  h = serve::fnv1a_u32(static_cast<std::uint32_t>(seed >> 32), h);
  return serve::fnv1a_u32(static_cast<std::uint32_t>(id), h);
}

/// Replays a serve pass's disposals on a fresh platform: per serve call,
/// ModuleManager::warm, then the watchdog-armed ensure, then the exec call
/// the server made, each timed on the host clock. The platform idles to
/// each call's start, so a faithful replay ends every call at the
/// simulated time the server did.
template <typename Platform>
class Replayer {
 public:
  static constexpr int kWidth = std::is_same_v<Platform, Platform64> ? 64 : 32;

  Replayer(const rtr::PlatformOptions& po, std::uint64_t server_seed,
           Trace* tr, int tid)
      : p_(po), mgr_(p_, rtr::RecoveryPolicy{}), seed_(server_seed),
        tr_(tr), tid_(tid) {}

  Platform& platform() { return p_; }
  [[nodiscard]] const LayerTimes& times() const { return lt_; }

  void dispatch(std::span<const Completion> g) {
    std::vector<const Completion*> live;
    for (const Completion& c : g) {
      if (c.outcome != Outcome::kExpired && c.outcome != Outcome::kShed &&
          !c.fail_stop) {
        live.push_back(&c);
      }
    }
    if (live.empty()) return;
    const sim::SimTime started = g.front().started;
    const hw::BehaviorId b = g.front().req.behavior;
    const std::int64_t leader = live.front()->req.id;
    p_.cpu().idle_until(started);

    // The server tried the hardware path when the breaker let it: the
    // batch then either ran on hardware or recorded a giveup.
    const bool tried_hw = std::any_of(live.begin(), live.end(), [](auto* c) {
      return c->outcome == Outcome::kHw || c->hw_giveup;
    });
    bool hw_ready = false;
    if (tried_hw) {
      const std::size_t plans0 = plans();
      const auto t0 = Clock::now();
      (void)mgr_.warm(b, kWidth);
      const auto t1 = Clock::now();
      lt_.warm_ns += ns_between(t0, t1);
      if (plans() > plans0) ++lt_.builds;
      sim::SimTime dl = started + budget_;
      for (const Completion* c : live) {
        if (c->req.deadline.ps() > 0 && c->req.deadline < dl) {
          dl = c->req.deadline;
        }
      }
      p_.set_load_deadline(dl);
      const rtr::EnsureStats es = mgr_.ensure(b, kWidth);
      p_.set_load_deadline(sim::SimTime{});
      const auto t2 = Clock::now();
      const std::int64_t ens = ns_between(t1, t2);
      lt_.words += es.stream_words;
      if (es.ok && !es.already_resident) {
        lt_.swap_ns += ens;
        ++lt_.swaps;
      } else if (es.ok) {
        lt_.hit_ns += ens;
        ++lt_.hits;
      } else {
        lt_.failed_ensure_ns += ens;
      }
      span("rtr.warm", t0, t1, leader);
      span("rtr.ensure", t1, t2, leader);
      hw_ready = es.ok;
    }

    if (hw_ready) {
      bool chained = false;
      if (live.size() > 1) {
        std::vector<serve::BatchMember> ms(live.size());
        for (std::size_t j = 0; j < live.size(); ++j) {
          ms[j].input_seed = input_seed(seed_, live[j]->req.id);
        }
        const auto t0 = Clock::now();
        chained = serve::exec_image_batch(p_, b, std::span(ms));
        if (chained) {
          const auto t1 = Clock::now();
          lt_.batch_ns += ns_between(t0, t1);
          lt_.batch_members += static_cast<std::int64_t>(live.size());
          span("apps.exec_batch", t0, t1, leader);
          for (std::size_t j = 0; j < live.size(); ++j) {
            if (!ms[j].result.golden_ok) {
              exec(*live[j], /*hw=*/false);  // the server's member degrade
            } else if (ms[j].result.digest != live[j]->digest) {
              lt_.digests_ok = false;
            }
          }
        }
      }
      if (!chained) {
        for (const Completion* c : live) {
          if (!exec(*c, /*hw=*/true)) exec(*c, /*hw=*/false);
        }
      }
    } else {
      for (const Completion* c : live) exec(*c, /*hw=*/false);
    }

    sim::SimTime end = started;
    for (const Completion& c : g) end = std::max(end, c.finished);
    if (p_.kernel().now() != end) lt_.clock_ok = false;
  }

 private:
  [[nodiscard]] std::size_t plans() const {
    return mgr_.plan_cache().complete_plans() +
           mgr_.plan_cache().diff_plans();
  }

  /// Run one request's kernel; false when the path produced no result.
  bool exec(const Completion& c, bool hw) {
    const auto t0 = Clock::now();
    const serve::ExecResult r = serve::exec_request(
        p_, c.req.behavior, input_seed(seed_, c.req.id), hw);
    const auto t1 = Clock::now();
    if (hw) {
      lt_.hw_ns += ns_between(t0, t1);
      ++lt_.hw_execs;
    } else {
      lt_.sw_ns += ns_between(t0, t1);
      ++lt_.sw_execs;
    }
    span(hw ? "apps.exec_hw" : "apps.exec_sw", t0, t1, c.req.id);
    if (r.ok && r.digest != c.digest) lt_.digests_ok = false;
    return r.ok;
  }

  void span(const char* name, Clock::time_point t0, Clock::time_point t1,
            std::int64_t req) {
    if (tr_ != nullptr) tr_->span(name, t0, t1, tid_, req);
  }

  Platform p_;
  rtr::ModuleManager<Platform> mgr_;
  std::uint64_t seed_;
  Trace* tr_;
  int tid_;
  // The server's watchdog budget for one hardware attempt.
  const sim::SimTime budget_ = serve::ServeOptions{}.hw_attempt_budget;
  LayerTimes lt_;
};

// --- per-layer metrics -------------------------------------------------------

/// Simulated per-layer metrics read from a (merged) stats registry,
/// normalised per submitted request.
void add_sim_layers(Result& res, const sim::StatRegistry& st,
                    std::int64_t submitted, std::int64_t replay_words) {
  const auto per_req = [&](double v) {
    return ratio(v, static_cast<double>(submitted));
  };
  const auto c = [&](const char* n) {
    return static_cast<double>(counter(st, n));
  };
  res.add("serve.batch.coalesced_ratio",
          ratio(c("serve.batch.coalesced"),
                c("serve.batch.count") + c("serve.batch.coalesced")),
          "fraction", true);
  res.add("serve.prefetch.hit_ratio",
          ratio(c("serve.prefetch.hits"),
                c("serve.prefetch.hits") + c("serve.prefetch.misses")),
          "fraction", true);
  res.add("serve.prefetch.wasted", per_req(c("serve.prefetch.wasted")),
          "1/req", true);
  res.add("serve.expired", per_req(c("serve.expired")), "1/req", true);
  res.add("serve.shed", per_req(c("serve.shed")), "1/req", true);
  res.add("serve.degraded", per_req(c("serve.degraded")), "1/req", true);
  res.add("serve.breaker_opens", per_req(c("serve.breaker_opens")), "1/req",
          true);

  const std::int64_t swaps = fleet::count_swaps(st);
  double swap_ps = 0;
  for (const char* path : {"cached", "differential", "complete"}) {
    const sim::Histogram* h =
        histogram(st, std::string("rtr.ensure.latency_ps.") + path);
    swap_ps += h == nullptr ? 0 : static_cast<double>(h->sum());
  }
  const sim::Histogram* resident =
      histogram(st, "rtr.ensure.latency_ps.resident");
  const double hits =
      resident == nullptr ? 0 : static_cast<double>(resident->count());
  res.add("rtr.ensure.swaps_per_req", per_req(static_cast<double>(swaps)),
          "1/req", true);
  res.add("rtr.ensure.resident_hit_ratio",
          ratio(hits, hits + static_cast<double>(swaps)), "fraction", true);
  res.add("rtr.ensure.stream_words",
          per_req(static_cast<double>(replay_words)), "words/req", true);
  res.add("rtr.ensure.sim_ms_per_swap",
          ratio(swap_ps, static_cast<double>(swaps)) / 1e9, "sim_ms/swap",
          true);
  res.add("rtr.plan_cache.hit_ratio",
          ratio(c("rtr.plan_cache.hits"),
                c("rtr.plan_cache.hits") + c("rtr.plan_cache.misses")),
          "fraction", true);
  res.add("rtr.place.evictions", per_req(c("rtr.place.evictions")), "1/req",
          true);

  const sim::Histogram* exec_h = histogram(st, "serve.stage.exec.latency_ps");
  res.add("apps.exec.sim_us_per_req",
          per_req(exec_h ? static_cast<double>(exec_h->sum()) : 0) / 1e6,
          "sim_us/req", true);

  const auto busy = st.busy_times().find("PLB.busy");
  const double plb_busy_ps =
      busy == st.busy_times().end()
          ? 0
          : static_cast<double>(busy->second.total().ps());
  res.add("icap.frames", per_req(c("icap.frames")), "frames/req", true);
  res.add("reconfig.differential_bytes",
          per_req(c("reconfig.differential_bytes")), "B/req", true);
  res.add("bus.plb.transactions", per_req(c("PLB.transactions")), "1/req",
          true);
  res.add("bus.opb.transactions", per_req(c("OPB.transactions")), "1/req",
          true);
  res.add("bus.plb.busy_ms", per_req(plb_busy_ps) / 1e9, "sim_ms/req",
          true);
  res.add("bus.bridge.crossings", per_req(c("bridge.crossings")), "1/req",
          true);
  res.add("cpu.loads", per_req(c("cpu.loads")), "1/req", true);
  res.add("cpu.stores", per_req(c("cpu.stores")), "1/req", true);
  res.add("dma.descriptors", per_req(c("dma.descriptors")), "1/req", true);
  res.add("dma.chain.setup_ms", per_req(c("dma.chain.setup_ps")) / 1e9,
          "sim_ms/req", true);
}

/// Queue wait (dispatch - submission) over every dispatched completion.
void add_queue_waits(Result& res, const std::vector<const Completion*>& all) {
  std::vector<std::int64_t> w;
  for (const Completion* c : all) {
    if (c->outcome != Outcome::kShed) {
      w.push_back(c->started.ps() - c->req.submitted.ps());
    }
  }
  std::sort(w.begin(), w.end());
  res.add("serve.queue_wait_ms.p50", percentile(w, 50) / 1e9, "sim_ms", true);
  res.add("serve.queue_wait_ms.p99", percentile(w, 99) / 1e9, "sim_ms", true);
}

/// Host per-layer metrics shared by the server and fleet workloads.
/// `serve_ns` is the host time of the serving phase the layers ran in.
void add_host_layers(Result& res, const LayerTimes& lt, double serve_ns,
                     std::int64_t submitted, double self_ns) {
  const auto host = [&](const char* name, double v, const char* unit) {
    res.add(name, v, unit, false);
  };
  host("serve.self.host_us_per_req", ratio(self_ns, submitted) / 1e3,
       "us/req");
  host("serve.self.host_share_pct", 100 * ratio(self_ns, serve_ns), "%");
  host("rtr.ensure.host_us_per_swap", ratio(lt.swap_ns, lt.swaps) / 1e3,
       "us/swap");
  host("rtr.ensure.host_ns_per_word", ratio(lt.swap_ns, lt.words), "ns/word");
  host("rtr.ensure.host_ns_per_hit", ratio(lt.hit_ns, lt.hits), "ns/hit");
  host("rtr.ensure.host_share_pct", 100 * ratio(lt.ensure_ns(), serve_ns),
       "%");
  host("rtr.warm.host_us_per_build", ratio(lt.warm_ns, lt.builds) / 1e3,
       "us/build");
  host("apps.exec_hw.host_us_per_req", ratio(lt.hw_ns, lt.hw_execs) / 1e3,
       "us/req");
  host("apps.exec_batch.host_us_per_member",
       ratio(lt.batch_ns, lt.batch_members) / 1e3, "us/member");
  host("apps.exec_sw.host_us_per_req", ratio(lt.sw_ns, lt.sw_execs) / 1e3,
       "us/req");
  host("apps.exec.host_share_pct", 100 * ratio(lt.apps_ns(), serve_ns), "%");
}

// --- the workloads' runs -----------------------------------------------------

template <typename Platform>
Result run_server(const Workload& w, std::uint64_t seed, int div) {
  const ServePass sp = serve_pass<Platform>(w, div, seed, nullptr);
  Result res;
  std::vector<const Completion*> all;
  for (const Completion& c : sp.report.completions) all.push_back(&c);
  const Dispositions d = tally(all, sp.report.submitted, {});
  res.digests_ok = sp.report.digests_ok;
  add_end_to_end(res, d, sp.setup_ns, sp.host_ns);
  res.aux.push_back(
      {"bus_transactions", static_cast<double>(bus_transactions(sp.stats))});
  return res;
}

template <typename Platform>
Result trace_server(const Workload& w, std::uint64_t seed, int div,
                    Trace& tr) {
  const ServePass sp = serve_pass<Platform>(w, div, seed, &tr);
  rtr::PlatformOptions po;
  po.dynamic_areas = w.areas;
  Replayer<Platform> rp(po, seed, &tr, 2);
  for (const std::vector<Completion>& g : tr.groups) rp.dispatch(g);
  const LayerTimes& lt = rp.times();

  Result res;
  res.digests_ok = sp.report.digests_ok;
  std::vector<const Completion*> all;
  for (const Completion& c : sp.report.completions) all.push_back(&c);
  const Dispositions d = tally(all, sp.report.submitted, {});
  res.count(d);

  std::vector<std::int64_t> per_req;  // host ns per member, per serve call
  std::int64_t serve_total = 0;
  for (std::size_t i = 0; i < tr.serve_ns.size(); ++i) {
    serve_total += tr.serve_ns[i];
    per_req.push_back(tr.serve_ns[i] /
                      static_cast<std::int64_t>(tr.groups[i].size()));
  }
  std::sort(per_req.begin(), per_req.end());
  std::int64_t submit_total = 0;
  for (const std::int64_t ns : tr.submit_ns) submit_total += ns;
  const double phase_ns = static_cast<double>(serve_total + submit_total);

  res.add("serve.host_us_per_req.p50", percentile(per_req, 50) / 1e3,
          "us/req", false);
  res.add("serve.host_us_per_req.p99", percentile(per_req, 99) / 1e3,
          "us/req", false);
  res.add("serve.submit.host_ns_per_call",
          ratio(static_cast<double>(submit_total),
                static_cast<double>(tr.submit_ns.size())),
          "ns/call", false);
  add_host_layers(res, lt, phase_ns, d.submitted,
                  phase_ns - static_cast<double>(lt.total_ns()));

  std::vector<std::int64_t> lags = tr.admit_lag_ps;
  std::sort(lags.begin(), lags.end());
  add_queue_waits(res, all);
  res.add("serve.admit_lag_ms.p99", percentile(lags, 99) / 1e9, "sim_ms",
          true);
  add_sim_layers(res, sp.stats, d.submitted, lt.words);
  res.aux.push_back({"serve_phase_ns", phase_ns});

  // The replay must reproduce the run's reconfigurations exactly.
  const bool verified =
      lt.swaps == fleet::count_swaps(sp.stats) && lt.words == sp.icap_words &&
      rp.platform().icap_ctl().words_consumed() == sp.icap_words &&
      lt.clock_ok && lt.digests_ok;
  // One device: the fleet layer is not on this workload's path.
  res.add("fleet.route.host_ns_per_decision", 0, "ns/decision", false);
  res.add("fleet.route.affinity_hit_ratio", 0, "fraction", true);
  res.add("fleet.swaps", 0, "1/req", true);
  res.add("fleet.redispatched", 0, "1/req", true);
  res.add("fleet.quarantines", 0, "count", true);
  res.add("fleet.shard.host_s.max", 0, "s", false);
  res.add("fleet.shard.skew", 0, "ratio", false);
  res.add("fleet.runner.self_host_s", 0, "s", false);
  res.add("bench.replay.verified", verified ? 1 : 0, "flag", true);
  return res;
}

Result run_fleet_workload(const Workload& w, std::uint64_t seed, int div,
                          Trace* tr) {
  const fleet::FleetOptions fo = fleet_options(w, div, seed);
  const fleet::FleetWorkloadSpec fw = fleet_spec(w, div);
  // The arrival stream run_fleet generates internally, for the due times.
  const std::vector<Request> stream = fleet::make_fleet_stream(fw, seed);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const fleet::FleetReport fr = fleet::run_fleet(fo, fw);
  const auto t1 = Clock::now();
  const double cpu_ns = (cpu_seconds() - cpu0) * 1e9;
  if (tr != nullptr) tr->span("fleet.run_fleet", t0, t1, 3, 0);

  Result res;
  res.digests_ok = fr.digests_ok;
  std::vector<const Completion*> all;
  for (const fleet::ShardOutcome& s : fr.shards) {
    for (const Completion& c : s.report.completions) all.push_back(&c);
  }
  const Dispositions d = tally(all, fr.requests, stream);
  if (tr == nullptr) {
    add_end_to_end(res, d, ns_between(g_start, t0), ns_between(t0, t1));
    res.aux.push_back(
        {"bus_transactions", static_cast<double>(bus_transactions(fr.stats))});
    return res;
  }
  res.count(d);

  // Replay every shard's disposals (the fleet serves one request per call).
  LayerTimes lt;
  std::vector<double> shard_ns;
  bool verified = true;
  for (std::size_t i = 0; i < fr.shards.size(); ++i) {
    const fleet::ShardOutcome& s = fr.shards[i];
    rtr::PlatformOptions po;
    po.dynamic_areas = w.areas;
    po.fault_plan = fo.fault_plan.for_device(static_cast<int>(i));
    Replayer<Platform64> rp(po, seed, tr, 10 + static_cast<int>(i));
    for (const Completion& c : s.report.completions) {
      rp.dispatch(std::span<const Completion>(&c, 1));
    }
    lt.add(rp.times());
    shard_ns.push_back(static_cast<double>(rp.times().total_ns()));
    const sim::StatRegistry& rs = rp.platform().sim().stats();
    verified = verified && rp.times().swaps == s.swaps &&
               counter(rs, "icap.frames") == counter(s.stats, "icap.frames") &&
               counter(rs, "reconfig.complete_bytes") ==
                   counter(s.stats, "reconfig.complete_bytes") &&
               counter(rs, "reconfig.differential_bytes") ==
                   counter(s.stats, "reconfig.differential_bytes");
  }
  verified = verified && lt.clock_ok && lt.digests_ok;

  // The router's cost per decision, on a standalone router fed the stream.
  fleet::FleetRouter router(std::vector<int>(fr.shards.size(), w.system),
                            fo.affinity, fo.steal_threshold, seed,
                            std::vector<int>(fr.shards.size(), w.areas));
  const auto r0 = Clock::now();
  for (const Request& r : stream) (void)router.route(r);
  const auto r1 = Clock::now();
  tr->span("fleet.route", r0, r1, 3, 0);
  const double route_ns = static_cast<double>(ns_between(r0, r1));

  // run_fleet makes its serving calls internally, out of the driver's reach.
  res.add("serve.host_us_per_req.p50", 0, "us/req", false);
  res.add("serve.host_us_per_req.p99", 0, "us/req", false);
  res.add("serve.submit.host_ns_per_call", 0, "ns/call", false);
  add_host_layers(res, lt, cpu_ns, d.submitted,
                  cpu_ns - route_ns - static_cast<double>(lt.total_ns()));
  add_queue_waits(res, all);
  res.add("serve.admit_lag_ms.p99", 0, "sim_ms", true);
  add_sim_layers(res, fr.stats, d.submitted, lt.words);

  const double sub = static_cast<double>(d.submitted);
  const double max_shard = *std::max_element(shard_ns.begin(), shard_ns.end());
  double sum_shard = 0;
  for (const double v : shard_ns) sum_shard += v;
  res.add("fleet.route.host_ns_per_decision",
          ratio(route_ns, static_cast<double>(stream.size())), "ns/decision",
          false);
  res.add("fleet.route.affinity_hit_ratio",
          ratio(static_cast<double>(fr.route.affinity_hits),
                static_cast<double>(fr.route.decisions)),
          "fraction", true);
  res.add("fleet.swaps", ratio(static_cast<double>(fr.swaps), sub), "1/req",
          true);
  res.add("fleet.redispatched",
          ratio(static_cast<double>(fr.redispatched), sub), "1/req", true);
  res.add("fleet.quarantines",
          static_cast<double>(counter(fr.stats, "fleet.health.quarantines")),
          "count", true);
  res.add("fleet.shard.host_s.max", max_shard / 1e9, "s", false);
  res.add("fleet.shard.skew",
          ratio(max_shard, sum_shard / static_cast<double>(shard_ns.size())),
          "ratio", false);
  res.add("fleet.runner.self_host_s",
          static_cast<double>(ns_between(t0, t1) - max_shard) / 1e9, "s",
          false);
  res.add("bench.replay.verified", verified ? 1 : 0, "flag", true);
  res.aux.push_back(
      {"serve_phase_ns", static_cast<double>(ns_between(t0, t1))});
  return res;
}

// --- self-test ---------------------------------------------------------------

/// The closed-loop driver must reproduce serve::run_workload("heavy",
/// seed 1) field for field, stats registry included.
int check_heavy() {
  const serve::WorkloadSpec* w = serve::workload_by_name("heavy");
  RTR_CHECK(w != nullptr, "heavy workload");
  Platform64 pa;
  const serve::ServeReport want = serve::run_workload(pa, *w, 1);
  Platform64 pb;
  serve::TaskServer<Platform64> srv(pb, w->queue_capacity, {}, 1);
  Calls<Platform64> calls(pb, srv, nullptr);
  drive_closed(pb, calls, *w, 1);
  const serve::ServeReport& got = srv.report();

  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "mismatch: " << what << "\n";
      ++bad;
    }
  };
#define RTR_BENCH_FIELD(f) expect(want.f == got.f, #f)
  RTR_BENCH_FIELD(submitted);
  RTR_BENCH_FIELD(admitted);
  RTR_BENCH_FIELD(shed);
  RTR_BENCH_FIELD(unservable);
  RTR_BENCH_FIELD(expired);
  RTR_BENCH_FIELD(served_hw);
  RTR_BENCH_FIELD(degraded);
  RTR_BENCH_FIELD(failed);
  RTR_BENCH_FIELD(deadline_miss);
  RTR_BENCH_FIELD(watchdog_aborts);
  RTR_BENCH_FIELD(fail_stops);
  RTR_BENCH_FIELD(breaker_opens);
  RTR_BENCH_FIELD(breaker_probes);
  RTR_BENCH_FIELD(breaker_closes);
  RTR_BENCH_FIELD(slo_breaches);
  RTR_BENCH_FIELD(batches);
  RTR_BENCH_FIELD(coalesced);
  RTR_BENCH_FIELD(digests_ok);
  RTR_BENCH_FIELD(completions.size());
#undef RTR_BENCH_FIELD
  for (std::size_t i = 0;
       i < std::min(want.completions.size(), got.completions.size()); ++i) {
    const Completion& a = want.completions[i];
    const Completion& b = got.completions[i];
    const bool same =
        a.req.id == b.req.id && a.req.client == b.req.client &&
        a.req.behavior == b.req.behavior && a.req.priority == b.req.priority &&
        a.req.submitted == b.req.submitted &&
        a.req.deadline == b.req.deadline &&
        a.req.redispatches == b.req.redispatches &&
        a.req.bypassed == b.req.bypassed && a.outcome == b.outcome &&
        a.error == b.error && a.started == b.started &&
        a.finished == b.finished && a.digest == b.digest &&
        a.golden_ok == b.golden_ok && a.deadline_met == b.deadline_met &&
        a.watchdog == b.watchdog && a.hw_giveup == b.hw_giveup &&
        a.hw_detected == b.hw_detected &&
        a.breaker_opened == b.breaker_opened && a.fail_stop == b.fail_stop;
    expect(same, "completion " + std::to_string(i));
  }
  std::ostringstream sa, sb;
  pa.sim().stats().export_json(sa);
  pb.sim().stats().export_json(sb);
  expect(sa.str() == sb.str(), "stats registry");
  std::cout << (bad == 0 ? "heavy: identical to serve::run_workload\n"
                         : "heavy: differs from serve::run_workload\n");
  return bad == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: rtrsim_bench --workload NAME [--seed N] "
               "[--mode run|trace] [--scale-div D] [--trace-out FILE]\n"
               "       rtrsim_bench --check-heavy\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  std::exit(2);
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
  return r.ec == std::errc{} && r.ptr == s.data() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "run", trace_out;
  std::uint64_t seed = 1, div = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--check-heavy") return check_heavy();
    if (i + 1 >= argc) usage();
    const std::string_view v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--mode" && (v == "run" || v == "trace")) {
      mode = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (!((a == "--seed" && parse_u64(v, &seed)) ||
                 (a == "--scale-div" && parse_u64(v, &div) && div >= 1 &&
                  div <= 100000))) {
      usage();
    }
  }
  const Workload* w = workload_by_name(workload);
  if (w == nullptr) usage();
  const int d = static_cast<int>(div);

  Trace tr;
  Trace* trp = mode == "trace" ? &tr : nullptr;
  Result res;
  if (w->loop == Loop::kFleet) {
    res = run_fleet_workload(*w, seed, d, trp);
  } else if (trp == nullptr) {
    res = w->system == 32 ? run_server<Platform32>(*w, seed, d)
                          : run_server<Platform64>(*w, seed, d);
  } else {
    res = w->system == 32 ? trace_server<Platform32>(*w, seed, d, tr)
                          : trace_server<Platform64>(*w, seed, d, tr);
  }
  res.workload = w->name;
  res.mode = mode;
  if (trp != nullptr && !trace_out.empty()) tr.write_chrome(trace_out);
  res.print();
  return 0;
}
