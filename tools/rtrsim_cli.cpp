// rtrsim command-line front end.
//
//   rtrsim_cli topology  --system 32|64 [--areas N]
//   rtrsim_cli resources --system 32|64
//   rtrsim_cli run       --system 32|64 --task <name> [--bytes N] [--image WxH]
//                        [--dma] [--cache]
//   rtrsim_cli reconfig  --system 32|64 --task <name> [--dma]
//   rtrsim_cli sweep     [-j N] [--smoke] [--bench-out FILE]
//   rtrsim_cli faults    [--smoke] [--seed N]
//   rtrsim_cli serve     [-j N] [--smoke] [--seed N] [--bench-out FILE]
//                        [--no-plan-cache]
//   rtrsim_cli serve     --workload NAME --system 32|64 [--seed N]
//                        [--fault-spec ...] [--repair-at N] [--dma]
//                        [--no-plan-cache]
//   rtrsim_cli chaos     [-j N] [--smoke] [--seed N] [--bench-out FILE]
//                        [--stats-out FILE] [--trace-out FILE]
//
// `sweep` runs a fixed list of Platform32/Platform64 scenarios across a
// worker-thread pool (each simulation is single-threaded and owns all its
// state; only independent simulations run concurrently), so stdout is
// byte-identical for any -j. Host wall-clock goes to stderr; --bench-out
// records sweep throughput (BENCH_substrate.json).
//
// `faults` sweeps a fixed fault matrix: one seeded fault per site
// (storage, icap, dma, bus, readback) on both platforms, recovered through
// the ModuleManager's retry/fallback/scrub machinery, reporting detection
// latency and recovery outcome per scenario (docs/FAULTS.md). Output is a
// pure function of --seed, so identical invocations are byte-identical.
// run/reconfig also accept --fault-spec <site:trigger:seed> (repeatable)
// to arm individual faults.
//
// `chaos` runs the deterministic device-failure matrix over the
// health-tracking fleet (docs/FLEET_HEALTH.md): seeded fail-stop and
// brownout scenarios, each in three arms (fault-free baseline, faults with
// the HealthTracker, faults without it), reporting goodput retained and
// checking per-scenario expectations (quarantine, readmission, typed
// no-healthy-device failures). Output is a pure function of --seed at any
// -j; --bench-out records BENCH_chaos.json.
//
// `serve` drives the request-serving layer (docs/SERVING.md): closed-loop
// seeded workloads through a TaskServer with admission control, deadline
// watchdogs, per-module circuit breakers and graceful degradation to the
// software kernels. Without --workload it runs a fixed self-checking
// scenario matrix (including stuck-fault scenarios that must watchdog,
// open the breaker, degrade, and recover through a half-open probe) across
// the same worker pool as `sweep`; with --workload it runs one named
// workload on one platform. Output is a pure function of --seed.
// --slo metric:target[@short/long][:burn=X] (repeatable) declares service
// objectives checked by a multi-window burn-rate engine; --incident-dir
// DIR (single-workload mode only) arms a flight recorder that snapshots
// the recent trace window and serving state on watchdog abort, breaker
// open, recovery give-up or SLO burn (docs/OBSERVABILITY.md).
//
// Observability (run/reconfig):
//   --trace-out FILE      record spans and write a trace
//   --trace-format chrome|text   (default chrome: open in Perfetto)
//   --stats-out FILE      dump the whole stat registry
//   --stats-format json|csv      (default json)
//   --log-level err|warn|info|trace   component log to stderr
//
// Tasks: jenkins, sha1, patmatch, brightness, blend, fade, loopback.
// Every run executes both the software baseline and the hardware version
// and cross-checks them, printing simulated times and the speedup.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "fault/fault.hpp"
#include "report/table.hpp"
#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "rtr/readback.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/server.hpp"
#include "sim/parallel.hpp"
#include "sim/parse.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace rtr;
using bus::Addr;

struct Args {
  std::string command;
  int system = 32;
  std::string task = "jenkins";
  std::uint32_t bytes = 4096;
  int img_w = 128;
  int img_h = 96;
  bool dma = false;
  bool cache = false;
  std::string trace_out;
  std::string trace_format = "chrome";
  std::string stats_out;
  std::string stats_format = "json";
  std::string log_level;  // empty: logging off
  int jobs = 0;           // sweep worker threads; 0 = hardware concurrency
  bool smoke = false;     // sweep/faults: small scenario subset (CI)
  bool plan_cache = true;  // serve: memoize/prefetch reconfiguration plans
  std::string bench_out;  // sweep/serve: benchmark JSON
  std::vector<std::string> fault_specs;  // run/reconfig/serve: --fault-spec
  std::uint64_t fault_seed = 1;          // faults/serve: --seed
  std::string workload;                  // serve: named workload (single mode)
  int repair_at = -1;                    // serve: repair_all after N requests
  std::vector<serve::SloSpec> slos;      // serve: --slo declared objectives
  std::string incident_dir;              // serve: flight-recorder snapshots
  int devices = 8;                       // fleet: simulated device count
  std::vector<int> mix = {64, 32};       // fleet: device systems, cycled
  std::string mix_text = "64:32";        // fleet: --mix as given (for output)
  int steal_threshold = 4;               // fleet: 0 disables work stealing
  bool affinity = true;                  // fleet: --no-affinity for A/B
  int requests = 2000;                   // fleet: arrival stream length
  int zipf_skew = 1;                     // fleet: behaviour popularity skew
  long long arrival_us = 800;            // fleet: mean interarrival gap
  int areas = 1;  // serve/fleet: co-resident dynamic areas per device
  int max_batch = 1;  // serve/fleet/chaos: swap-aware batching (1 = off)
  long long batch_slack_us = 20000;  // batch admission slack budget
};

int usage() {
  std::fprintf(stderr,
               "usage: rtrsim_cli <topology|resources|run|reconfig|sweep|"
               "faults|serve|fleet|chaos> "
               "[--system 32|64] [--task NAME] [--bytes N] "
               "[--image WxH] [--dma] [--cache]\n"
               "       [--trace-out FILE] [--trace-format chrome|text]\n"
               "       [--stats-out FILE] [--stats-format json|csv]\n"
               "       [--log-level err|warn|info|trace]\n"
               "       [-j N|--jobs N] [--smoke] [--bench-out FILE]\n"
               "       [--fault-spec site:trigger:seed]... [--seed N]\n"
               "       [--workload NAME] [--repair-at N] [--no-plan-cache]\n"
               "       [--slo metric:target[@S/L][:burn=X]]... "
               "[--incident-dir DIR]\n"
               "       [--devices N] [--mix 64:32] [--requests N] "
               "[--arrival-us N]\n"
               "       [--zipf-skew N] [--steal-threshold N] "
               "[--no-affinity] [--areas N]\n"
               "       [--max-batch N] [--batch-slack US]\n"
               "tasks: jenkins sha1 patmatch brightness blend fade loopback\n"
               "workloads: mixed hash image burst steady heavy "
               "open-steady open-bursty open-diurnal\n"
               "fault sites: storage icap dma bus readback fail_stop "
               "brownout; triggers: once@N every@N stuck@N rand\n"
               "fault spec: site:trigger:seed[:device] (device scopes the "
               "fault to one fleet shard)\n"
               "slo metrics: deadline hw (e.g. deadline:0.99@10ms/50ms:burn=2)"
               "\n");
  return 2;
}

/// Strict decimal parse (sim/parse.hpp: whole-string, overflow-checked --
/// atoi-style silent zero-on-garbage is how "--bytes 4k" becomes a 0-byte
/// run). Null-tolerant so `value()` can feed it directly.
bool parse_i64(const char* s, long long* out) {
  std::int64_t v = 0;
  if (s == nullptr || !sim::parse_i64(s, &v)) return false;
  *out = v;
  return true;
}

/// Parse the command line. Every rejection names the failing flag on
/// stderr (the caller follows up with the usage text), so "--bytes 4k"
/// fails as "invalid value '4k' for '--bytes'", not as a silent exit 2.
bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) {
    std::fprintf(stderr, "rtrsim_cli: missing command\n");
    return false;
  }
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string opt = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto bad = [&](const char* v) {
      if (v == nullptr) {
        std::fprintf(stderr, "rtrsim_cli: missing value for '%s'\n",
                     opt.c_str());
      } else {
        std::fprintf(stderr, "rtrsim_cli: invalid value '%s' for '%s'\n", v,
                     opt.c_str());
      }
      return false;
    };
    if (opt == "--system") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || (n != 32 && n != 64)) return bad(v);
      a.system = static_cast<int>(n);
    } else if (opt == "--task") {
      const char* v = value();
      if (!v) return bad(v);
      a.task = v;
    } else if (opt == "--bytes") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > UINT32_MAX) return bad(v);
      a.bytes = static_cast<std::uint32_t>(n);
    } else if (opt == "--image") {
      const char* v = value();
      if (!v || !sim::parse_dims(v, &a.img_w, &a.img_h)) return bad(v);
    } else if (opt == "--dma") {
      a.dma = true;
    } else if (opt == "--cache") {
      a.cache = true;
    } else if (opt == "--trace-out") {
      const char* v = value();
      if (!v) return bad(v);
      a.trace_out = v;
    } else if (opt == "--trace-format") {
      const char* v = value();
      if (!v) return bad(v);
      a.trace_format = v;
      if (a.trace_format != "chrome" && a.trace_format != "text") {
        return bad(v);
      }
    } else if (opt == "--stats-out") {
      const char* v = value();
      if (!v) return bad(v);
      a.stats_out = v;
    } else if (opt == "--stats-format") {
      const char* v = value();
      if (!v) return bad(v);
      a.stats_format = v;
      if (a.stats_format != "json" && a.stats_format != "csv") return bad(v);
    } else if (opt == "-j" || opt == "--jobs") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 1024) return bad(v);
      a.jobs = static_cast<int>(n);
    } else if (opt == "--smoke") {
      a.smoke = true;
    } else if (opt == "--no-plan-cache") {
      a.plan_cache = false;
    } else if (opt == "--fault-spec") {
      const char* v = value();
      if (!v) return bad(v);
      a.fault_specs.emplace_back(v);
    } else if (opt == "--seed") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0) return bad(v);
      a.fault_seed = static_cast<std::uint64_t>(n);
    } else if (opt == "--bench-out") {
      const char* v = value();
      if (!v) return bad(v);
      a.bench_out = v;
    } else if (opt == "--workload") {
      const char* v = value();
      if (!v || (serve::workload_by_name(v) == nullptr &&
                 serve::open_workload_by_name(v) == nullptr)) {
        return bad(v);
      }
      a.workload = v;
    } else if (opt == "--repair-at") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0) return bad(v);
      a.repair_at = static_cast<int>(n);
    } else if (opt == "--slo") {
      const char* v = value();
      serve::SloSpec spec;
      if (!v || !serve::SloSpec::parse(v, &spec)) return bad(v);
      a.slos.push_back(spec);
    } else if (opt == "--incident-dir") {
      const char* v = value();
      if (!v) return bad(v);
      a.incident_dir = v;
    } else if (opt == "--devices") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 256) return bad(v);
      a.devices = static_cast<int>(n);
    } else if (opt == "--mix") {
      const char* v = value();
      if (!v) return bad(v);
      std::vector<int> mix;
      const std::string s = v;
      for (std::size_t i = 0; i <= s.size();) {
        std::size_t j = s.find_first_of(":,", i);
        if (j == std::string::npos) j = s.size();
        long long n = 0;
        if (!parse_i64(s.substr(i, j - i).c_str(), &n) ||
            (n != 32 && n != 64)) {
          return bad(v);
        }
        mix.push_back(static_cast<int>(n));
        i = j + 1;
      }
      a.mix = mix;
      a.mix_text = s;
    } else if (opt == "--steal-threshold") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 1024) return bad(v);
      a.steal_threshold = static_cast<int>(n);
    } else if (opt == "--no-affinity") {
      a.affinity = false;
    } else if (opt == "--areas") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 ||
          n > fabric::DynamicRegion::kMaxAreasXc2vp30) {
        return bad(v);
      }
      a.areas = static_cast<int>(n);
    } else if (opt == "--max-batch") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 64) return bad(v);
      a.max_batch = static_cast<int>(n);
    } else if (opt == "--batch-slack") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 10000000) return bad(v);
      a.batch_slack_us = n;
    } else if (opt == "--requests") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 1000000) return bad(v);
      a.requests = static_cast<int>(n);
    } else if (opt == "--zipf-skew") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 8) return bad(v);
      a.zipf_skew = static_cast<int>(n);
    } else if (opt == "--arrival-us") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 10000000) return bad(v);
      a.arrival_us = n;
    } else if (opt == "--log-level") {
      const char* v = value();
      if (!v) return bad(v);
      a.log_level = v;
      if (a.log_level != "err" && a.log_level != "warn" &&
          a.log_level != "info" && a.log_level != "trace") {
        return bad(v);
      }
    } else {
      std::fprintf(stderr, "rtrsim_cli: unknown option '%s'\n", opt.c_str());
      return false;
    }
  }
  return true;
}

/// Apply --log-level: install the stderr sink at the requested threshold.
void apply_log_level(sim::Simulation& sim, const Args& a) {
  if (a.log_level.empty()) return;
  sim::LogLevel lvl = sim::LogLevel::kWarn;
  if (a.log_level == "err") lvl = sim::LogLevel::kError;
  else if (a.log_level == "warn") lvl = sim::LogLevel::kWarn;
  else if (a.log_level == "info") lvl = sim::LogLevel::kInfo;
  else if (a.log_level == "trace") lvl = sim::LogLevel::kTrace;
  sim.logger().set_level(lvl);
  sim.logger().set_sink(sim::Logger::stderr_sink());
}

/// Write --trace-out / --stats-out files. A command that records no trace
/// passes a null tracer and --trace-out is ignored. Returns 0, or 1 when a
/// file cannot be opened.
int dump_observability(const sim::StatRegistry& stats,
                       const trace::Tracer* tracer, const Args& a) {
  if (tracer != nullptr && !a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", a.trace_out.c_str());
      return 1;
    }
    if (a.trace_format == "text") {
      tracer->export_timeline(f);
    } else {
      tracer->export_chrome(f);
    }
  }
  if (!a.stats_out.empty()) {
    std::ofstream f(a.stats_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", a.stats_out.c_str());
      return 1;
    }
    if (a.stats_format == "csv") {
      stats.export_csv(f);
    } else {
      stats.export_json(f);
    }
  }
  return 0;
}

/// Host worker threads: -j when given, else one per hardware thread.
int host_jobs(const Args& a) {
  if (a.jobs > 0) return a.jobs;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// A run's result and the host wall-clock time it took.
template <typename T>
struct Timed {
  T value;
  double wall_ms = 0;
};

/// The CLI's one host timer: run `fn` once and time it. Host time is not
/// deterministic, so it goes to stderr and --bench-out files, never to
/// stdout.
template <typename F>
auto timed(F&& fn) -> Timed<decltype(fn())> {
  const auto t0 = std::chrono::steady_clock::now();
  auto value = fn();
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - t0;
  return {std::move(value), wall.count()};
}

/// `n` events over `wall_ms` of host time, per second.
double per_sec(std::int64_t n, double wall_ms) {
  return wall_ms > 0 ? 1000.0 * static_cast<double>(n) / wall_ms : 0.0;
}

/// An A/B arm's swap reduction: swaps before / swaps after (0 if none after).
double swap_drop(std::int64_t before, std::int64_t after) {
  return after > 0 ? static_cast<double>(before) / static_cast<double>(after)
                   : 0.0;
}

/// The --bench-out writer: a JSON document of nested objects and arrays,
/// one member per line, opened with its schema name and closed by save().
/// Reals are fixed-point at the caller's precision (1 digit for wall times,
/// 2 for ratios, 0 for picosecond percentiles).
class JsonOut {
 public:
  explicit JsonOut(const char* schema) {
    os_ << std::fixed;
    open().text("schema", schema);
  }

  /// Open an object (with '[', an array) as member `key`, or as an array
  /// element when `key` is null.
  JsonOut& open(const char* key = nullptr, char bracket = '{') {
    member(key) << bracket;
    closers_.push_back(bracket == '[' ? ']' : '}');
    first_ = true;
    return *this;
  }
  JsonOut& close() {
    const char closer = closers_.back();
    closers_.pop_back();
    newline() << closer;
    first_ = false;
    return *this;
  }
  JsonOut& integer(const char* key, std::int64_t v) {
    member(key) << v;
    return *this;
  }
  JsonOut& real(const char* key, double v, int digits) {
    member(key) << std::setprecision(digits) << v;
    return *this;
  }
  JsonOut& text(const char* key, const std::string& v) {
    sim::write_json_string(member(key), v);
    return *this;
  }
  JsonOut& flag(const char* key, bool v) {
    member(key) << (v ? "true" : "false");
    return *this;
  }

  /// Close the document and write it to `path`. False, with a stderr
  /// note, when the file cannot be written.
  bool save(const std::string& path) {
    RTR_CHECK(closers_.size() == 1, "bench JSON member left open");
    close();
    std::ofstream f(path);
    if (!(f << os_.str() << '\n')) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  /// Start a member: separator, indent, and `"key": ` unless key is null.
  std::ostream& member(const char* key) {
    if (!first_) os_ << ',';
    first_ = false;
    if (!closers_.empty()) newline();
    if (key != nullptr) {
      sim::write_json_string(os_, key);
      os_ << ": ";
    }
    return os_;
  }
  std::ostream& newline() {
    return os_ << '\n' << std::string(2 * closers_.size(), ' ');
  }

  std::ostringstream os_;
  std::vector<char> closers_;
  bool first_ = true;
};

/// `"latency_ps": {...}`: the p50, p90 (when `with_p90`), p99 and p999 of
/// a simulated latency histogram.
void write_latency(JsonOut& j, const sim::Histogram& h, bool with_p90) {
  j.open("latency_ps").real("p50", h.p50(), 0);
  if (with_p90) j.real("p90", h.p90(), 0);
  j.real("p99", h.p99(), 0).real("p999", h.p999(), 0).close();
}

/// Parse every --fault-spec into `plan`. False (with a stderr note) on a
/// malformed spec.
bool build_fault_plan(const Args& a, fault::FaultPlan* plan) {
  for (const std::string& s : a.fault_specs) {
    fault::FaultSpec spec;
    if (!fault::FaultSpec::parse(s, &spec)) {
      std::fprintf(stderr,
                   "bad --fault-spec '%s' (want site:trigger:seed[:device], "
                   "e.g. icap:once@20000:1)\n",
                   s.c_str());
      return false;
    }
    plan->add(spec);
  }
  return true;
}

/// Deterministic one-line injection summary for run/reconfig with faults
/// armed (simulated quantities only).
void print_fault_summary(fault::FaultInjector* fi) {
  if (fi == nullptr) return;
  std::printf("faults: injected=%lld (storage=%lld icap=%lld dma=%lld "
              "bus=%lld readback=%lld fail_stop=%lld brownout=%lld)\n",
              static_cast<long long>(fi->injected_total()),
              static_cast<long long>(fi->injected(fault::Site::kConfigStorage)),
              static_cast<long long>(fi->injected(fault::Site::kIcap)),
              static_cast<long long>(fi->injected(fault::Site::kDma)),
              static_cast<long long>(fi->injected(fault::Site::kBus)),
              static_cast<long long>(fi->injected(fault::Site::kReadback)),
              static_cast<long long>(fi->injected(fault::Site::kFailStop)),
              static_cast<long long>(fi->injected(fault::Site::kBrownout)));
}

hw::BehaviorId behavior_of(const std::string& task) {
  if (task == "jenkins") return hw::kJenkinsHash;
  if (task == "sha1") return hw::kSha1;
  if (task == "patmatch") return hw::kPatternMatcher;
  if (task == "brightness") return hw::kBrightness;
  if (task == "blend") return hw::kBlendAdd;
  if (task == "fade") return hw::kFade;
  if (task == "loopback") return hw::kLoopback;
  RTR_CHECK(false, "unknown task name");
  __builtin_unreachable();
}

/// Outcome of one task execution (software baseline + hardware version),
/// print-free so both the interactive `run` command and the parallel sweep
/// driver share it. All fields are simulated quantities and therefore
/// deterministic for a given (platform, task, parameters).
struct TaskOutcome {
  sim::SimTime sw_time, hw_time;
  bool match = true;
  // patmatch detail (for the run command's report line)
  int pm_count = 0, pm_row = 0, pm_col = 0;
};

/// Stage deterministic inputs, run the software and hardware versions of
/// `a.task` and cross-check them. The module must already be loaded.
/// Handles every task except loopback (which has no sw/hw split).
template <typename Platform>
TaskOutcome exec_task(const Args& a, Platform& p) {
  const Addr in = Platform::kConfigStaging - 0x0100'0000;
  const Addr in_b = Platform::kConfigStaging - 0x00C0'0000;
  const Addr out = Platform::kConfigStaging - 0x0080'0000;
  const Addr scratch = Platform::kConfigStaging - 0x0040'0000;

  sim::Rng rng{2026};
  TaskOutcome r;

  if (a.task == "jenkins" || a.task == "sha1") {
    std::vector<std::uint8_t> msg(a.bytes);
    for (auto& b : msg) b = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, msg);
    auto t0 = p.kernel().now();
    if (a.task == "jenkins") {
      const auto sw = apps::sw_jenkins(p.kernel(), in, a.bytes);
      r.sw_time = p.kernel().now() - t0;
      t0 = p.kernel().now();
      const auto hw =
          apps::hw_jenkins_pio(p.kernel(), Platform::dock_data(), in, a.bytes);
      r.hw_time = p.kernel().now() - t0;
      r.match = sw == hw && sw == apps::jenkins_hash(msg);
    } else {
      const auto sw = apps::sw_sha1(p.kernel(), in, a.bytes, scratch);
      r.sw_time = p.kernel().now() - t0;
      t0 = p.kernel().now();
      const auto hw =
          apps::hw_sha1_pio(p.kernel(), Platform::dock_data(), in, a.bytes);
      r.hw_time = p.kernel().now() - t0;
      r.match = sw == hw && sw == apps::sha1(msg);
    }
  } else if (a.task == "patmatch") {
    apps::BinaryImage img = apps::BinaryImage::make(a.img_w, a.img_h);
    for (auto& w : img.words) w = rng.next_u32() & rng.next_u32();
    apps::Pattern8x8 pat;
    for (auto& row : pat) row = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, apps::to_bytes(img));
    std::vector<std::uint8_t> pb(64);
    for (int i = 0; i < 64; ++i) {
      pb[static_cast<std::size_t>(i)] =
          (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
    }
    apps::store_bytes(p.cpu().plb(), in_b, pb);
    auto t0 = p.kernel().now();
    const auto sw = apps::sw_pattern_match(p.kernel(), in, a.img_w, a.img_h, in_b);
    r.sw_time = p.kernel().now() - t0;
    t0 = p.kernel().now();
    const auto hw = apps::hw_pattern_match_pio(p.kernel(), Platform::dock_data(),
                                               in, a.img_w, a.img_h, in_b);
    r.hw_time = p.kernel().now() - t0;
    r.match = sw.best_count == hw.best_count && sw.best_row == hw.best_row &&
              sw.best_col == hw.best_col;
    r.pm_count = hw.best_count;
    r.pm_row = hw.best_row;
    r.pm_col = hw.best_col;
  } else if (a.task == "brightness" || a.task == "blend" || a.task == "fade") {
    const int n = a.img_w * a.img_h;
    apps::GrayImage ia = apps::GrayImage::make(a.img_w, a.img_h);
    apps::GrayImage ib = apps::GrayImage::make(a.img_w, a.img_h);
    for (auto& px : ia.pixels) px = rng.next_u8();
    for (auto& px : ib.pixels) px = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, ia.pixels);
    apps::store_bytes(p.cpu().plb(), in_b, ib.pixels);

    std::vector<std::uint8_t> want;
    auto t0 = p.kernel().now();
    if (a.task == "brightness") {
      apps::sw_brightness(p.kernel(), in, out, n, 60);
      want = apps::brightness(ia, 60).pixels;
    } else if (a.task == "blend") {
      apps::sw_blend(p.kernel(), in, in_b, out, n);
      want = apps::blend_add(ia, ib).pixels;
    } else {
      apps::sw_fade(p.kernel(), in, in_b, out, n, 160);
      want = apps::fade(ia, ib, 160).pixels;
    }
    r.sw_time = p.kernel().now() - t0;
    r.match = apps::fetch_bytes(p.cpu().plb(), out, want.size()) == want;

    t0 = p.kernel().now();
    if constexpr (std::is_same_v<Platform, Platform64>) {
      if (a.dma) {
        if (a.task == "brightness") {
          apps::hw_brightness_dma(p, in, out, n, 60);
        } else if (a.task == "blend") {
          apps::hw_blend_dma(p, in, in_b, scratch, out, n);
        } else {
          apps::hw_fade_dma(p, in, in_b, scratch, out, n, 160);
        }
        r.hw_time = p.kernel().now() - t0;
        r.match = r.match &&
                  apps::fetch_bytes(p.cpu().plb(), out, want.size()) == want;
      }
    }
    if (r.hw_time == sim::SimTime::zero()) {
      if (a.task == "brightness") {
        apps::hw_brightness_pio(p.kernel(), Platform::dock_data(), in, out, n, 60);
      } else if (a.task == "blend") {
        apps::hw_blend_pio(p.kernel(), Platform::dock_data(), in, in_b, out, n);
      } else {
        apps::hw_fade_pio(p.kernel(), Platform::dock_data(), in, in_b, out, n, 160);
      }
      r.hw_time = p.kernel().now() - t0;
      r.match = r.match &&
                apps::fetch_bytes(p.cpu().plb(), out, want.size()) == want;
    }
  }
  return r;
}

template <typename Platform>
int run_task_inner(const Args& a, Platform& p) {
  const Addr in = Platform::kConfigStaging - 0x0100'0000;

  ReconfigStats load;
  if constexpr (std::is_same_v<Platform, Platform64>) {
    load = a.dma ? p.load_module_dma(behavior_of(a.task))
                 : p.load_module(behavior_of(a.task));
  } else {
    load = p.load_module(behavior_of(a.task));
  }
  if (!load.ok) {
    std::printf("load failed: %s\n", load.error.c_str());
    return 1;
  }
  std::printf("system %d, task %s: module loaded in %s (%lld KB)\n", a.system,
              a.task.c_str(), load.duration().to_string().c_str(),
              static_cast<long long>(load.config_bytes / 1024));

  if (a.task == "loopback") {
    sim::Rng rng{2026};
    std::vector<std::uint8_t> data(a.bytes);
    for (auto& b : data) b = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, data);
    const sim::SimTime t = apps::pio_write_seq(
        p.kernel(), in, Platform::dock_data(), static_cast<int>(a.bytes / 4));
    std::printf("%u bytes written to the dock in %s\n", a.bytes,
                t.to_string().c_str());
    return 0;
  }

  const TaskOutcome r = exec_task(a, p);
  if (a.task == "patmatch") {
    std::printf("best match %d/64 at (%d,%d)\n", r.pm_count, r.pm_row,
                r.pm_col);
  }
  std::printf("software: %s\nhardware: %s%s\nspeedup : %.2fx\nresults : %s\n",
              r.sw_time.to_string().c_str(), r.hw_time.to_string().c_str(),
              a.dma ? " (DMA)" : " (PIO)",
              static_cast<double>(r.sw_time.ps()) /
                  static_cast<double>(r.hw_time.ps()),
              r.match ? "sw == hw == golden" : "MISMATCH");
  return r.match ? 0 : 1;
}

/// Build the platform with observability wired in, run the task, then dump
/// the requested trace/stats files (also on failure: a failed run's trace is
/// exactly when you want one).
template <typename Platform>
int run_task(const Args& a) {
  trace::Tracer tracer;
  tracer.enable(!a.trace_out.empty());
  PlatformOptions opts;
  opts.enable_dcache = a.cache;
  opts.tracer = &tracer;
  if (!build_fault_plan(a, &opts.fault_plan)) return 2;
  Platform p{opts};
  apply_log_level(p.sim(), a);
  const int rc = run_task_inner(a, p);
  if (!a.fault_specs.empty()) print_fault_summary(p.faults());
  const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
  return rc != 0 ? rc : dump_rc;
}

// ---------------------------------------------------------------------------
// sweep: parallel scenario fan-out with deterministic output.
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  int system;  // 32 or 64
  const char* task;
  bool dma;  // Platform64 only: DMA configuration load + DMA data movement
  std::uint32_t bytes;
  int img_w, img_h;
};

// Fixed scenario list: every task on both platforms (sha1 does not fit the
// 32-bit device's dock, so it only appears on 64), plus the DMA variants.
constexpr Scenario kSweepScenarios[] = {
    {"p32-jenkins", 32, "jenkins", false, 16384, 0, 0},
    {"p32-patmatch", 32, "patmatch", false, 0, 96, 64},
    {"p32-brightness", 32, "brightness", false, 0, 160, 120},
    {"p32-blend", 32, "blend", false, 0, 160, 120},
    {"p32-fade", 32, "fade", false, 0, 160, 120},
    {"p64-jenkins", 64, "jenkins", false, 16384, 0, 0},
    {"p64-sha1", 64, "sha1", false, 16384, 0, 0},
    {"p64-patmatch", 64, "patmatch", false, 0, 96, 64},
    {"p64-brightness", 64, "brightness", false, 0, 160, 120},
    {"p64-blend", 64, "blend", false, 0, 160, 120},
    {"p64-fade", 64, "fade", false, 0, 160, 120},
    {"p64-brightness-dma", 64, "brightness", true, 0, 160, 120},
    {"p64-blend-dma", 64, "blend", true, 0, 160, 120},
    {"p64-fade-dma", 64, "fade", true, 0, 160, 120},
    {"p64-sha1-dma", 64, "sha1", true, 16384, 0, 0},
};

/// CI subset: one 32-bit scenario, one plain 64-bit, one DMA.
constexpr std::size_t kSmokeIndices[] = {0, 6, 13};

struct SweepOutcome {
  std::string line;  // rendered report: simulated quantities only
  bool ok = false;
  long long plb_txns = 0;
  long long plb_beats = 0;
  long long opb_txns = 0;
};

/// Run one scenario on a freshly built platform. Everything this returns is
/// a function of the scenario alone (fixed input seed, single-threaded
/// simulation), so results are independent of worker scheduling.
template <typename Platform>
SweepOutcome sweep_one(const Scenario& sc) {
  Args a;
  a.system = sc.system;
  a.task = sc.task;
  a.dma = sc.dma;
  a.bytes = sc.bytes;
  if (sc.img_w > 0) {
    a.img_w = sc.img_w;
    a.img_h = sc.img_h;
  }

  SweepOutcome o;
  Platform p;
  ReconfigStats load;
  if constexpr (std::is_same_v<Platform, Platform64>) {
    load = sc.dma ? p.load_module_dma(behavior_of(a.task))
                  : p.load_module(behavior_of(a.task));
  } else {
    load = p.load_module(behavior_of(a.task));
  }
  if (!load.ok) {
    o.line = std::string(sc.name) + ": load failed: " + load.error;
    return o;
  }
  const TaskOutcome r = exec_task(a, p);
  o.plb_txns = p.sim().stats().counter("PLB.transactions").value();
  o.plb_beats = p.sim().stats().counter("PLB.beats").value();
  o.opb_txns = p.sim().stats().counter("OPB.transactions").value();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-18s load=%-12s sw=%-12s hw=%-12s speedup=%6.2fx "
                "plb.txns=%-7lld %s",
                sc.name, load.duration().to_string().c_str(),
                r.sw_time.to_string().c_str(), r.hw_time.to_string().c_str(),
                static_cast<double>(r.sw_time.ps()) /
                    static_cast<double>(r.hw_time.ps()),
                o.plb_txns, r.match ? "ok" : "MISMATCH");
  o.line = buf;
  o.ok = r.match;
  return o;
}

int sweep(const Args& a) {
  std::vector<Scenario> list;
  if (a.smoke) {
    for (const std::size_t i : kSmokeIndices) list.push_back(kSweepScenarios[i]);
  } else {
    list.assign(std::begin(kSweepScenarios), std::end(kSweepScenarios));
  }

  const int jobs = host_jobs(a);
  const auto run = timed([&] {
    std::vector<SweepOutcome> results(list.size());
    sim::parallel_for(list.size(), jobs, [&](std::size_t i) {
      results[i] = list[i].system == 32 ? sweep_one<Platform32>(list[i])
                                        : sweep_one<Platform64>(list[i]);
    });
    return results;
  });

  // Deterministic report: scenario order, simulated quantities only.
  // Aggregation goes through a StatRegistry so the sweep summary uses the
  // same machinery (and formatting) as per-simulation stats.
  sim::StatRegistry agg;
  bool all_ok = true;
  for (const SweepOutcome& o : run.value) {
    std::printf("%s\n", o.line.c_str());
    all_ok = all_ok && o.ok;
    agg.counter("sweep.scenarios").add(1);
    if (!o.ok) agg.counter("sweep.mismatches").add(1);
    agg.counter("sweep.plb.transactions").add(o.plb_txns);
    agg.counter("sweep.plb.beats").add(o.plb_beats);
    agg.counter("sweep.opb.transactions").add(o.opb_txns);
  }
  agg.counter("sweep.mismatches").add(0);  // present even when all pass
  std::printf("aggregate:\n");
  agg.print(std::cout);

  std::fprintf(stderr, "sweep: %zu scenarios, %d jobs, %.1f ms wall\n",
               list.size(), jobs, run.wall_ms);

  if (!a.bench_out.empty()) {
    const auto n = static_cast<std::int64_t>(list.size());
    JsonOut j("rtrsim-substrate-bench-v2");
    j.open("sweep")
        .integer("scenarios", n)
        .integer("jobs", jobs)
        .real("wall_ms", run.wall_ms, 1)
        .real("scenarios_per_sec", per_sec(n, run.wall_ms), 2)
        .close();
    if (!j.save(a.bench_out)) return 1;
  }
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// faults: deterministic fault matrix with recovery reporting.
// ---------------------------------------------------------------------------

struct FaultScenario {
  const char* name;
  int system;                // 32 or 64
  const char* task;          // module the manager ensures
  const char* site_trigger;  // "site:trigger"; ":<seed>" appended at runtime
  std::int64_t word;         // storage only: pinned staged word (-1 = seeded)
  bool dma;                  // recover through DMA loads (Platform64)
  bool verify;               // RecoveryPolicy::verify_after_load
  const char* second_task;   // non-empty: second (differential-path) ensure
  const char* expect;        // clean | tolerated | recovered | failed
};

// One seeded fault per site on both platforms. Trigger indexes are placed
// inside the first faulted operation's opportunity stream (a complete
// Platform32 load streams ~33k ICAP words and ~130k bus beats; a DMA load
// moves ~16k beats; a region readback pops tens of thousands of FDRO
// words). The sticky ICAP scenario is expected to exhaust retries and
// fail; the diff scenario faults the differential load and must fall back
// to the complete configuration.
constexpr FaultScenario kFaultScenarios[] = {
    {"p32-storage", 32, "brightness", "storage:once@0", 5000, false, true, "",
     "recovered"},
    {"p32-icap", 32, "brightness", "icap:once@20000", -1, false, true, "",
     "recovered"},
    {"p32-bus", 32, "brightness", "bus:once@60000", -1, false, true, "",
     "recovered"},
    {"p32-readback", 32, "brightness", "readback:once@0", -1, false, true,
     "", "recovered"},
    {"p32-icap-sticky", 32, "brightness", "icap:stuck@15000", -1, false, true,
     "", "failed"},
    {"p32-diff-fallback", 32, "brightness", "icap:once@33500", -1, false,
     false, "fade", "recovered"},
    {"p64-icap", 64, "jenkins", "icap:once@20000", -1, false, true, "",
     "recovered"},
    {"p64-dma", 64, "jenkins", "dma:once@1500", -1, true, true, "",
     "recovered"},
    {"p64-bus", 64, "jenkins", "bus:once@60000", -1, false, true, "",
     "recovered"},
    {"p64-readback", 64, "jenkins", "readback:once@0", -1, false, true, "",
     "recovered"},
};

/// CI subset: every injection site once across both platforms.
constexpr std::size_t kFaultSmokeIndices[] = {0, 1, 2, 7, 9};

/// Run one fault scenario: arm the spec, drive the manager, classify the
/// end state. Everything printed is simulated, so output is a pure
/// function of (scenario, seed).
template <typename Platform>
std::string fault_one(const FaultScenario& sc, std::uint64_t seed, bool* ok) {
  fault::FaultSpec spec;
  RTR_CHECK(fault::FaultSpec::parse(
                std::string(sc.site_trigger) + ":" + std::to_string(seed),
                &spec),
            "bad built-in fault spec");
  if (sc.word >= 0) {
    spec.word = sc.word;
    spec.mask = 0x0100;
  }
  if (spec.site == fault::Site::kReadback) {
    // The verifier only hashes the region's row window of each frame; aim
    // the fault at the middle of that window in the 10th covered frame so
    // the flip is always observable.
    const fabric::DynamicRegion region =
        std::is_same_v<Platform, Platform64>
            ? fabric::DynamicRegion::xc2vp30_region()
            : fabric::DynamicRegion::xc2vp7_region();
    spec.n = 10u * static_cast<std::uint64_t>(
                       region.device().words_per_frame()) +
             static_cast<std::uint64_t>(region.first_word()) +
             static_cast<std::uint64_t>(region.word_count()) / 2;
  }
  const std::string text = spec.to_string();
  PlatformOptions opts;
  opts.fault_plan.add(spec);
  Platform p{opts};
  RecoveryPolicy pol;
  pol.verify_after_load = sc.verify;
  pol.use_dma = sc.dma;
  ModuleManager<Platform> mgr{p, pol};
  const int w = std::is_same_v<Platform, Platform64> ? 64 : 32;

  EnsureStats res = mgr.ensure(behavior_of(sc.task), w);
  if (sc.second_task[0] != '\0') {
    res = mgr.ensure(behavior_of(sc.second_task), w);
  }

  fault::FaultInjector* fi = p.faults();
  // The scenario is over: disarm everything so the final golden check
  // observes the fabric, not the fault model.
  fi->repair_all();
  const int target =
      behavior_of(sc.second_task[0] != '\0' ? sc.second_task : sc.task);
  const bool golden =
      res.ok && p.region().scan_signature(p.fabric_state()) == target &&
      readback_verify(p.kernel(), Platform::kIcapRange.base, p.region()).ok;

  const char* outcome = "failed";
  if (fi->injected_total() == 0) {
    outcome = "clean";
  } else if (!res.detected) {
    if (golden) outcome = "tolerated";
  } else if (golden) {
    outcome = "recovered";
  }
  *ok = std::string(outcome) == sc.expect;

  const std::string latency =
      res.detected && fi->injected_total() > 0
          ? (res.detected_at - fi->first_injection()).to_string()
          : "-";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-18s spec=%-22s inj=%-2lld det=%s lat=%-10s att=%d ret=%d "
                "scr=%d fb=%s outcome=%-9s expect=%-9s %s",
                sc.name, text.c_str(),
                static_cast<long long>(fi->injected_total()),
                res.detected ? "y" : "n", latency.c_str(), res.attempts,
                res.retries, res.scrubs, res.fell_back ? "y" : "n", outcome,
                sc.expect, *ok ? "ok" : "MISMATCH");
  return buf;
}

int faults_cmd(const Args& a) {
  std::vector<std::size_t> idx;
  if (a.smoke) {
    idx.assign(std::begin(kFaultSmokeIndices), std::end(kFaultSmokeIndices));
  } else {
    for (std::size_t i = 0; i < std::size(kFaultScenarios); ++i) {
      idx.push_back(i);
    }
  }
  std::printf("fault matrix: %zu scenarios, seed=%llu\n", idx.size(),
              static_cast<unsigned long long>(a.fault_seed));
  bool all_ok = true;
  for (const std::size_t i : idx) {
    const FaultScenario& sc = kFaultScenarios[i];
    bool ok = false;
    const std::string line = sc.system == 32
                                 ? fault_one<Platform32>(sc, a.fault_seed, &ok)
                                 : fault_one<Platform64>(sc, a.fault_seed, &ok);
    std::printf("%s\n", line.c_str());
    all_ok = all_ok && ok;
  }
  std::printf("%s\n", all_ok ? "all scenarios matched expectations"
                             : "EXPECTATION MISMATCH");
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve: request-serving scenario matrix / single named workload.
// ---------------------------------------------------------------------------

struct ServeScenario {
  const char* name;
  int system;            // 32 or 64
  const char* workload;  // named WorkloadSpec
  const char* fault;     // "" = none; "site:trigger" (":<seed>" appended)
  bool dma;              // recover module loads through DMA (Platform64)
  int repair_at;         // FaultInjector::repair_all after N dispositions
  int budget_ms;         // watchdog budget; 0 = ServeOptions default
  // Self-check expectations: what this scenario MUST exhibit (and, for
  // clean scenarios, must not).
  bool expect_shed;
  bool expect_watchdog;
  bool expect_breaker_cycle;  // breaker opened AND a probe closed it again
  bool expect_degraded;
};

// Clean scenarios cover both platforms and every workload shape (including
// "burst", whose queue is smaller than its client population, and "hash"
// on the 32-bit system, where SHA-1 cannot be placed and is served by the
// software kernel for the whole run). The stuck-fault scenarios are the
// acceptance path of docs/SERVING.md: the watchdog must abort the hung
// load, the breaker must open, requests must degrade instead of hanging,
// and after field repair a half-open probe must restore hardware service.
// The stuck scenarios tighten the watchdog budget to just above one clean
// load on their platform (a clean p32 PIO load is ~24 ms, a p64 DMA load
// ~12 ms), so the stuck retry ladder is cut off on its second attempt.
constexpr ServeScenario kServeScenarios[] = {
    {"p32-mixed", 32, "mixed", "", false, -1, 0, false, false, false, false},
    {"p32-hash", 32, "hash", "", false, -1, 0, false, false, false, true},
    {"p32-burst", 32, "burst", "", false, -1, 0, true, false, false, false},
    {"p64-mixed", 64, "mixed", "", false, -1, 0, false, false, false, false},
    {"p64-image", 64, "image", "", false, -1, 0, false, false, false, false},
    {"p64-hash-dma", 64, "hash", "", true, -1, 0, false, false, false,
     false},
    {"p32-icap-stuck", 32, "steady", "icap:stuck@15000", false, 6, 40, false,
     true, true, true},
    {"p64-dma-stuck", 64, "steady", "dma:stuck@1500", true, 6, 20, false,
     true, true, true},
};

/// CI subset: one clean scenario per platform, shedding, both stuck faults.
constexpr std::size_t kServeSmokeIndices[] = {0, 2, 6, 7};

struct ServeScenarioOutcome {
  std::string line;
  bool ok = false;
  sim::StatRegistry stats;  // the scenario's whole registry, for merging
};

/// One scenario on a freshly built platform: a pure function of
/// (scenario, seed), independent of worker scheduling.
template <typename Platform>
ServeScenarioOutcome serve_scenario(const ServeScenario& sc,
                                    std::uint64_t seed, bool plan_cache,
                                    const std::vector<serve::SloSpec>& slos,
                                    int areas) {
  const serve::WorkloadSpec* w = serve::workload_by_name(sc.workload);
  RTR_CHECK(w != nullptr, "unknown built-in workload");
  PlatformOptions opts;
  opts.dynamic_areas = areas;
  if (sc.fault[0] != '\0') {
    fault::FaultSpec spec;
    RTR_CHECK(fault::FaultSpec::parse(
                  std::string(sc.fault) + ":" + std::to_string(seed), &spec),
              "bad built-in fault spec");
    opts.fault_plan.add(spec);
  }
  Platform p{opts};
  serve::ServeOptions so;
  so.recovery.use_dma = sc.dma;
  so.plan_cache = plan_cache;
  so.slos = slos;
  if (sc.budget_ms > 0) {
    so.hw_attempt_budget = sim::SimTime::from_ms(sc.budget_ms);
  }
  const serve::ServeReport r =
      serve::run_workload(p, *w, seed, so, sc.repair_at);

  bool ok = r.digests_ok && r.failed == 0 && r.unservable == 0;
  ok = ok && sc.expect_shed == (r.shed > 0);
  ok = ok && sc.expect_watchdog == (r.watchdog_aborts > 0);
  ok = ok && sc.expect_breaker_cycle ==
                 (r.breaker_opens > 0 && r.breaker_closes > 0);
  ok = ok && sc.expect_degraded == (r.degraded > 0);

  const auto& lat = p.sim().stats().histogram("serve.latency_ps");
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-15s wl=%-7s sub=%-3lld hw=%-3lld sw=%-3lld shed=%-2lld exp=%-2lld "
      "miss=%-2lld wd=%-2lld brk=%lld/%lld p50=%-10s %s",
      sc.name, sc.workload, static_cast<long long>(r.submitted),
      static_cast<long long>(r.served_hw), static_cast<long long>(r.degraded),
      static_cast<long long>(r.shed), static_cast<long long>(r.expired),
      static_cast<long long>(r.deadline_miss),
      static_cast<long long>(r.watchdog_aborts),
      static_cast<long long>(r.breaker_opens),
      static_cast<long long>(r.breaker_closes),
      sim::SimTime::from_ps(static_cast<std::int64_t>(lat.p50()))
          .to_string()
          .c_str(),
      ok ? "ok" : "MISMATCH");

  ServeScenarioOutcome o;
  o.line = buf;
  o.ok = ok;
  o.stats = p.sim().stats();
  return o;
}

/// Print the serve.* slice of a (merged) registry: the serving layer's
/// counters plus latency percentiles, nothing from the lower layers.
void print_serve_stats(const sim::StatRegistry& reg) {
  for (const auto& [name, c] : reg.counters()) {
    if (name.rfind("serve.", 0) == 0) {
      std::printf("  %-24s %lld\n", name.c_str(),
                  static_cast<long long>(c.value()));
    }
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("serve.", 0) == 0 && h.count() > 0) {
      std::printf("  %-24s count=%lld p50=%s p90=%s p99=%s p999=%s\n",
                  name.c_str(), static_cast<long long>(h.count()),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p50()))
                      .to_string()
                      .c_str(),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p90()))
                      .to_string()
                      .c_str(),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p99()))
                      .to_string()
                      .c_str(),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p999()))
                      .to_string()
                      .c_str());
    }
  }
}

/// Single named workload on one platform, with optional --fault-spec /
/// --repair-at and the full observability surface (--trace-out records the
/// SERVE track, --stats-out the serve.* stats).
template <typename Platform>
int serve_single(const Args& a) {
  const serve::WorkloadSpec* w = serve::workload_by_name(a.workload);
  const serve::OpenLoopSpec* ow = serve::open_workload_by_name(a.workload);
  RTR_CHECK(w != nullptr || ow != nullptr,
            "workload validated at parse time");
  trace::Tracer tracer;
  tracer.enable(!a.trace_out.empty() || !a.incident_dir.empty());
  // Recorder-only runs keep the tracer's own store off: retention then
  // lives entirely in the recorder's bounded ring.
  if (a.trace_out.empty()) tracer.set_store_events(false);
  std::optional<trace::FlightRecorder> recorder;
  if (!a.incident_dir.empty()) {
    recorder.emplace(tracer);
    recorder->set_output_dir(a.incident_dir);
  }
  PlatformOptions opts;
  opts.tracer = &tracer;
  opts.dynamic_areas = a.areas;
  if (!build_fault_plan(a, &opts.fault_plan)) return 2;
  Platform p{opts};
  apply_log_level(p.sim(), a);
  if (recorder) {
    p.sim().attach_flight_recorder(*recorder);
    recorder->add_state_provider(
        "stats", [&p](std::ostream& os) { p.sim().stats().export_json(os); });
  }

  serve::ServeOptions so;
  so.recovery.use_dma = a.dma;
  so.plan_cache = a.plan_cache;
  so.slos = a.slos;
  so.batch.max_batch = a.max_batch;
  so.batch.slack_ps = sim::SimTime::from_us(a.batch_slack_us).ps();
  const serve::ServeReport r =
      w != nullptr ? serve::run_workload(p, *w, a.fault_seed, so, a.repair_at)
                   : serve::run_open_workload(p, *ow, a.fault_seed, so);

  std::printf("serve: system %d, workload %s, seed %llu\n", a.system,
              a.workload.c_str(),
              static_cast<unsigned long long>(a.fault_seed));
  print_serve_stats(p.sim().stats());
  for (const serve::SloSpec& s : a.slos) {
    std::printf("slo: %s\n", s.to_string().c_str());
  }
  if (!a.slos.empty()) {
    std::printf("slo breaches: %lld\n",
                static_cast<long long>(r.slo_breaches));
  }
  if (recorder) {
    std::printf("incidents: %zu (%lld triggers, %lld suppressed)\n",
                recorder->incidents().size(),
                static_cast<long long>(recorder->triggers()),
                static_cast<long long>(recorder->suppressed()));
    for (const auto& inc : recorder->incidents()) {
      std::printf("  incident %d: %s req=%lld at=%s\n", inc.index,
                  inc.kind.c_str(), static_cast<long long>(inc.req_id),
                  sim::SimTime::from_ps(inc.at_ps).to_string().c_str());
    }
  }
  std::printf("digests: %s\n", r.digests_ok ? "ok" : "MISMATCH");
  if (!a.fault_specs.empty()) print_fault_summary(p.faults());
  const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
  return r.digests_ok && r.failed == 0 ? dump_rc : 1;
}

/// One run of the "heavy" workload (1280 requests) for the serve bench. On
/// the 32-bit platform it is the tail-latency source: the 8-scenario matrix
/// disposes too few requests for p99 and p999 to differ. On the 64-bit
/// platform it is each arm of the multi-area and batching A/Bs, counting
/// the reconfigurations the device actually streamed (every successful
/// ensure lands in exactly one rtr.ensure.latency_ps.* series; the
/// non-resident three are swaps, "resident" is a warm hit -- possibly a
/// cross-area dock re-bind). Simulated and deterministic per (platform,
/// areas, max_batch, seed, plan cache); max_batch 1 is unbatched.
struct HeavyArm {
  serve::ServeReport report;
  std::int64_t swaps = 0;
  std::int64_t complete_loads = 0;  // the complete (full-bitstream) subset
  std::int64_t resident_hits = 0;
  std::int64_t chain_descriptors = 0;  // dma.chain.descriptors
  sim::Histogram latency;              // serve.latency_ps
};

template <typename Platform>
HeavyArm run_heavy(const Args& a, int areas, int max_batch) {
  const serve::WorkloadSpec* w = serve::workload_by_name("heavy");
  RTR_CHECK(w != nullptr, "heavy workload exists");
  PlatformOptions opts;
  opts.dynamic_areas = areas;
  Platform p{opts};
  serve::ServeOptions so;
  so.plan_cache = a.plan_cache;
  so.batch.max_batch = max_batch;
  so.batch.slack_ps = sim::SimTime::from_us(a.batch_slack_us).ps();
  HeavyArm arm;
  arm.report = serve::run_workload(p, *w, a.fault_seed, so);
  sim::StatRegistry& stats = p.sim().stats();
  arm.swaps = serve::fleet::count_swaps(stats);
  arm.complete_loads =
      stats.histogram("rtr.ensure.latency_ps.complete").count();
  arm.resident_hits = stats.histogram("rtr.ensure.latency_ps.resident").count();
  arm.chain_descriptors = stats.counter("dma.chain.descriptors").value();
  arm.latency = stats.histogram("serve.latency_ps");
  return arm;
}

/// The serve bench record (rtrsim-serve-bench-v6): matrix throughput (host
/// wall-clock; the simulated outputs above are the determinism surface,
/// this is the perf surface), heavy-workload latency percentiles, the
/// one-vs-two-area A/B (docs/PLACEMENT.md) and the unbatched-vs-batched
/// A/B on the two-area device (docs/SERVING.md "Batching"), which the swap
/// amortization gate and the no-deadline-sacrificed check read.
bool write_serve_bench(const Args& a, std::int64_t scenarios, int jobs,
                       double wall_ms) {
  const int bench_batch = a.max_batch > 1 ? a.max_batch : 8;
  const auto lat = timed([&] { return run_heavy<Platform32>(a, 1, 1); });
  const auto one = timed([&] { return run_heavy<Platform64>(a, 1, 1); });
  const auto two = timed([&] { return run_heavy<Platform64>(a, 2, 1); });
  const auto batched =
      timed([&] { return run_heavy<Platform64>(a, 2, bench_batch); });
  const auto note = [](const char* arm, const Timed<HeavyArm>& run) {
    std::fprintf(stderr,
                 "serve: heavy %s: swaps %lld, deadline_miss %lld, %.1f ms "
                 "wall\n",
                 arm, static_cast<long long>(run.value.swaps),
                 static_cast<long long>(run.value.report.deadline_miss),
                 run.wall_ms);
  };
  note("p32", lat);
  note("p64 1 area", one);
  note("p64 2 areas", two);
  note("p64 2 areas batched", batched);

  const auto area_arm = [](JsonOut& j, const char* key, const HeavyArm& arm) {
    j.open(key)
        .integer("swaps", arm.swaps)
        .integer("complete_loads", arm.complete_loads)
        .integer("resident_hits", arm.resident_hits)
        .close();
  };
  const HeavyArm& b = batched.value;
  JsonOut j("rtrsim-serve-bench-v6");
  j.open("serve")
      .integer("scenarios", scenarios)
      .integer("jobs", jobs)
      .integer("areas", a.areas)
      .flag("plan_cache", a.plan_cache)
      .real("wall_ms", wall_ms, 1)
      .real("scenarios_per_sec", per_sec(scenarios, wall_ms), 2)
      .text("latency_workload", "heavy")
      .integer("latency_requests", lat.value.latency.count());
  write_latency(j, lat.value.latency, true);
  j.open("multi_area")
      .text("workload", "heavy")
      .integer("system", 64)
      .integer("requests",
               static_cast<std::int64_t>(one.value.report.completions.size()));
  area_arm(j, "one_area", one.value);
  area_arm(j, "two_areas", two.value);
  j.real("swap_drop", swap_drop(one.value.swaps, two.value.swaps), 2).close();
  j.open("batching")
      .text("workload", "heavy")
      .integer("system", 64)
      .integer("areas", 2)
      .integer("max_batch", bench_batch)
      .integer("slack_us", a.batch_slack_us)
      .open("unbatched")
      .integer("swaps", two.value.swaps)
      .integer("deadline_miss", two.value.report.deadline_miss);
  write_latency(j, two.value.latency, false);
  j.close()
      .open("batched")
      .integer("swaps", b.swaps)
      .integer("deadline_miss", b.report.deadline_miss)
      .integer("batches", b.report.batches)
      .integer("coalesced", b.report.coalesced)
      .integer("chain_descriptors", b.chain_descriptors);
  write_latency(j, b.latency, false);
  j.close()
      .real("swap_drop", swap_drop(two.value.swaps, b.swaps), 2)
      .close()
      .close();
  return j.save(a.bench_out);
}

/// --areas above 1 needs the XC2VP30. Says why and returns false when the
/// requested system cannot host the areas.
bool areas_fit_system(const Args& a) {
  if (a.system == 32 && a.areas > 1) {
    std::fprintf(stderr,
                 "rtrsim_cli: --areas %d requires --system 64 (the XC2VP7 "
                 "hosts a single dynamic area)\n",
                 a.areas);
    return false;
  }
  return true;
}

int serve_cmd(const Args& a) {
  if (!a.workload.empty()) {
    if (!areas_fit_system(a)) return 2;
    return a.system == 32 ? serve_single<Platform32>(a)
                          : serve_single<Platform64>(a);
  }
  if (!a.incident_dir.empty()) {
    std::fprintf(stderr, "rtrsim_cli: --incident-dir requires --workload\n");
    return 2;
  }

  std::vector<ServeScenario> list;
  if (a.smoke) {
    for (const std::size_t i : kServeSmokeIndices) {
      list.push_back(kServeScenarios[i]);
    }
  } else {
    list.assign(std::begin(kServeScenarios), std::end(kServeScenarios));
  }

  const int jobs = host_jobs(a);
  const auto run = timed([&] {
    std::vector<ServeScenarioOutcome> results(list.size());
    sim::parallel_for(list.size(), jobs, [&](std::size_t i) {
      // 32-bit scenarios always run single-area: the XC2VP7 strip has no
      // room for a second column-disjoint area (fabric/dynamic_region).
      results[i] = list[i].system == 32
                       ? serve_scenario<Platform32>(list[i], a.fault_seed,
                                                    a.plan_cache, a.slos, 1)
                       : serve_scenario<Platform64>(list[i], a.fault_seed,
                                                    a.plan_cache, a.slos,
                                                    a.areas);
    });
    return results;
  });

  std::printf("serve matrix: %zu scenarios, seed=%llu\n", list.size(),
              static_cast<unsigned long long>(a.fault_seed));
  sim::StatRegistry agg;
  bool all_ok = true;
  for (const ServeScenarioOutcome& o : run.value) {
    std::printf("%s\n", o.line.c_str());
    all_ok = all_ok && o.ok;
    agg.merge(o.stats);
  }
  std::printf("aggregate:\n");
  print_serve_stats(agg);
  std::printf("%s\n", all_ok ? "all scenarios matched expectations"
                             : "EXPECTATION MISMATCH");

  std::fprintf(stderr, "serve: %zu scenarios, %d jobs, %.1f ms wall\n",
               list.size(), jobs, run.wall_ms);

  if (!a.bench_out.empty() &&
      !write_serve_bench(a, static_cast<std::int64_t>(list.size()), jobs,
                         run.wall_ms)) {
    return 1;
  }
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// fleet: N-device serving with reconfiguration-affinity routing.
// ---------------------------------------------------------------------------

/// Requests one serve-matrix scenario submits on average: every workload
/// submits exactly clients x rounds requests, so the matrix total is a
/// constant 91 over its 8 scenarios (mixed 12, hash 9, burst 16, mixed 12,
/// image 9, hash 9, steady 12, steady 12). The fleet bench normalises its
/// aggregate requests/sec by this to report scenario-equivalents/sec
/// directly comparable with BENCH_serve.json's scenarios_per_sec.
constexpr double kServeMatrixRequestsPerScenario = 91.0 / 8.0;

serve::fleet::FleetOptions fleet_options(const Args& a) {
  serve::fleet::FleetOptions fo;
  fo.devices = a.devices;
  fo.mix = a.mix;
  fo.affinity = a.affinity;
  fo.steal_threshold = a.steal_threshold;
  fo.plan_cache = a.plan_cache;
  fo.areas = a.areas;
  fo.batch.max_batch = a.max_batch;
  fo.batch.slack_ps = sim::SimTime::from_us(a.batch_slack_us).ps();
  fo.jobs = host_jobs(a);
  fo.seed = a.fault_seed;
  return fo;
}

serve::fleet::FleetWorkloadSpec fleet_workload(const Args& a) {
  serve::fleet::FleetWorkloadSpec fw;
  fw.requests = a.requests;
  fw.mean_gap_ps = sim::SimTime::from_us(a.arrival_us).ps();
  fw.zipf_skew = a.zipf_skew;
  return fw;
}

std::string fmt_ps(double ps) {
  return sim::SimTime::from_ps(static_cast<std::int64_t>(ps)).to_string();
}

/// Open A/B arm object `key` with the fields every fleet arm records.
JsonOut& fleet_arm(JsonOut& j, const char* key,
                   const Timed<serve::fleet::FleetReport>& arm) {
  return j.open(key)
      .real("wall_ms", arm.wall_ms, 1)
      .integer("swaps", arm.value.swaps)
      .integer("served_hw", arm.value.served_hw)
      .integer("degraded", arm.value.degraded);
}

/// The fleet bench record (rtrsim-fleet-bench-v4): the primary run's
/// throughput and routing counters, then three arms over the identical
/// stream (request ids are assigned before routing, so every arm serves
/// identical work and swap counts compare like for like): seeded-random
/// sharding, co-residency off (areas=1 everywhere) and per-shard swap-aware
/// batching (docs/SERVING.md "Batching"). An arm that equals the primary
/// run -- --areas 1, or batching already on -- reuses it.
bool write_fleet_bench(const Args& a, const serve::fleet::FleetOptions& fo,
                       const serve::fleet::FleetWorkloadSpec& fw,
                       const Timed<serve::fleet::FleetReport>& primary) {
  // The stream re-served with one option changed.
  const auto arm = [&](auto change) {
    serve::fleet::FleetOptions o = fo;
    change(o);
    return timed([&] { return serve::fleet::run_fleet(o, fw); });
  };
  const int bench_batch = a.max_batch > 1 ? a.max_batch : 8;
  const auto no_affinity = arm([](auto& o) { o.affinity = false; });
  const auto single =
      a.areas > 1 ? arm([](auto& o) { o.areas = 1; }) : primary;
  const auto batched =
      a.max_batch <= 1
          ? arm([&](auto& o) { o.batch.max_batch = bench_batch; })
          : primary;
  const serve::fleet::FleetReport& fr = primary.value;
  std::fprintf(stderr,
               "fleet: no-affinity %.1f ms wall, swaps %lld vs %lld, "
               "single-area swaps %lld, batched swaps %lld\n",
               no_affinity.wall_ms,
               static_cast<long long>(no_affinity.value.swaps),
               static_cast<long long>(fr.swaps),
               static_cast<long long>(single.value.swaps),
               static_cast<long long>(batched.value.swaps));

  const sim::Histogram& lat = fr.stats.histograms().at("fleet.latency_ps");
  const double rps = per_sec(fr.requests, primary.wall_ms);
  JsonOut j("rtrsim-fleet-bench-v4");
  j.open("fleet")
      .integer("devices", a.devices)
      .text("mix", a.mix_text)
      .integer("areas", a.areas)
      .integer("jobs", fo.jobs)
      .integer("requests", fr.requests)
      .flag("plan_cache", a.plan_cache)
      .integer("steal_threshold", a.steal_threshold)
      .integer("zipf_skew", a.zipf_skew)
      .integer("arrival_us", a.arrival_us)
      .real("wall_ms", primary.wall_ms, 1)
      .real("requests_per_sec", rps, 1)
      .real("requests_per_scenario", kServeMatrixRequestsPerScenario, 3)
      .real("scenarios_per_sec", rps / kServeMatrixRequestsPerScenario, 2);
  write_latency(j, lat, true);
  j.open("route")
      .integer("decisions", fr.route.decisions)
      .integer("affinity_hits", fr.route.affinity_hits)
      .integer("rebalances", fr.route.rebalances)
      .integer("steals", fr.route.steals)
      .close()
      .integer("served_hw", fr.served_hw)
      .integer("degraded", fr.degraded)
      .integer("swaps", fr.swaps);
  fleet_arm(j, "no_affinity", no_affinity)
      .real("requests_per_sec",
            per_sec(no_affinity.value.requests, no_affinity.wall_ms), 1)
      .close();
  fleet_arm(j, "single_area", single)
      .real("swap_drop", swap_drop(single.value.swaps, fr.swaps), 2)
      .close();
  fleet_arm(j, "batched", batched)
      .integer("max_batch", bench_batch)
      .integer("deadline_miss", batched.value.deadline_miss)
      .real("swap_drop", swap_drop(fr.swaps, batched.value.swaps), 2)
      .close()
      .close();
  return j.save(a.bench_out);
}

int fleet_cmd(const Args& a) {
  const serve::fleet::FleetOptions fo = fleet_options(a);
  const serve::fleet::FleetWorkloadSpec fw = fleet_workload(a);

  const auto primary = timed([&] { return serve::fleet::run_fleet(fo, fw); });
  const serve::fleet::FleetReport& fr = primary.value;

  // Everything on stdout is simulated/deterministic: the fleet-determinism
  // CI job diffs it across -j values.
  std::printf("fleet: %d devices (mix %s), %d requests, seed=%llu, "
              "affinity=%s, steal-threshold=%d, zipf-skew=%d, areas=%d, "
              "max-batch=%d\n",
              a.devices, a.mix_text.c_str(), a.requests,
              static_cast<unsigned long long>(a.fault_seed),
              a.affinity ? "on" : "off", a.steal_threshold, a.zipf_skew,
              a.areas, a.max_batch);
  for (std::size_t i = 0; i < fr.shards.size(); ++i) {
    const serve::fleet::ShardOutcome& s = fr.shards[i];
    const auto hist =
        s.stats.histograms().find("serve.latency_ps");
    const bool has_lat =
        hist != s.stats.histograms().end() && hist->second.count() > 0;
    std::printf(
        "shard %-2zu sys=%d routed=%-4lld hw=%-4lld sw=%-3lld shed=%-3lld "
        "exp=%-3lld miss=%-3lld swaps=%-3lld p50=%s\n",
        i, s.system, static_cast<long long>(s.routed),
        static_cast<long long>(s.report.served_hw),
        static_cast<long long>(s.report.degraded),
        static_cast<long long>(s.report.shed),
        static_cast<long long>(s.report.expired),
        static_cast<long long>(s.report.deadline_miss),
        static_cast<long long>(s.swaps),
        has_lat ? fmt_ps(hist->second.p50()).c_str() : "-");
  }
  std::printf("route: decisions=%lld affinity_hits=%lld rebalances=%lld "
              "steals=%lld\n",
              static_cast<long long>(fr.route.decisions),
              static_cast<long long>(fr.route.affinity_hits),
              static_cast<long long>(fr.route.rebalances),
              static_cast<long long>(fr.route.steals));
  std::printf("fleet: hw=%lld sw=%lld shed=%lld expired=%lld miss=%lld "
              "swaps=%lld digests=%s\n",
              static_cast<long long>(fr.served_hw),
              static_cast<long long>(fr.degraded),
              static_cast<long long>(fr.shed),
              static_cast<long long>(fr.expired),
              static_cast<long long>(fr.deadline_miss),
              static_cast<long long>(fr.swaps),
              fr.digests_ok ? "ok" : "MISMATCH");
  const auto lat = fr.stats.histograms().find("fleet.latency_ps");
  if (lat != fr.stats.histograms().end() && lat->second.count() > 0) {
    std::printf("fleet latency: count=%lld p50=%s p90=%s p99=%s p999=%s\n",
                static_cast<long long>(lat->second.count()),
                fmt_ps(lat->second.p50()).c_str(),
                fmt_ps(lat->second.p90()).c_str(),
                fmt_ps(lat->second.p99()).c_str(),
                fmt_ps(lat->second.p999()).c_str());
  }

  std::fprintf(stderr,
               "fleet: %d requests, %d devices, %d jobs, %.1f ms wall "
               "(%.0f req/s)\n",
               a.requests, a.devices, fo.jobs, primary.wall_ms,
               per_sec(a.requests, primary.wall_ms));

  if (dump_observability(fr.stats, nullptr, a) != 0) return 1;
  if (!a.bench_out.empty() && !write_fleet_bench(a, fo, fw, primary)) {
    return 1;
  }
  return fr.digests_ok && fr.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// chaos: deterministic device-failure matrix over the health-tracking
// fleet (docs/FLEET_HEALTH.md). Every scenario runs three arms on the
// identical arrival stream: a fault-free baseline, the fault plan with the
// HealthTracker on, and the same plan with the tracker off. Goodput
// retained -- completed requests as an integer percentage of the baseline
// -- is the headline number; where the matrix declares a floor the tracker
// arm must hold it while the no-tracker arm demonstrably cannot.
// Everything on stdout is simulated/deterministic (the chaos-determinism
// CI job diffs it across -j values and seeds); host wall-clock goes to
// stderr and the bench JSON only.
// ---------------------------------------------------------------------------

struct ChaosScenario {
  const char* name;
  const char* intent;  // one deterministic line of context
  int devices;
  int requests;
  int zipf_skew;
  /// Mean interarrival gap. The matrix keeps the fleet below saturation on
  /// purpose: an overloaded device arms watchdogs against request
  /// deadlines and opens breakers with no fault present, and those
  /// congestion signals would (correctly, but unhelpfully for an A/B
  /// gate) quarantine healthy devices too.
  long long arrival_us;
  std::vector<const char*> faults;  // specs; seeds are offsets off --seed
  int repair_at_epoch;              // -1 = never (health arm only)
  bool smoke;                       // part of the --smoke subset
  // Expectations -- the exit status and the CI goodput-retention gate.
  int min_tracker_pct;     // tracker-arm goodput floor, -1 = none
  bool expect_separation;  // no-tracker goodput must fall below the floor
  bool expect_readmit;     // a probation -> healthy readmission must occur
  bool expect_no_healthy;  // typed no_healthy_device failures must occur
};

std::vector<ChaosScenario> chaos_matrix() {
  return {
      {"fail-stop-mid",
       "device 0 fail-stops mid-burst; quarantine + re-dispatch to survivors",
       4, 800, 1, 2500, {"fail_stop:stuck@40:0:0"}, -1, true, 90, true,
       false, false},
      {"brownout-churn",
       "device 1 brownout bursts corrupt config loads under uniform churn",
       4, 600, 0, 2500, {"brownout:every@4:0:1"}, -1, false, 90, false,
       false, false},
      {"quarantine-recover",
       "device 2 fail-stops, field repair at epoch 5; must probe + readmit",
       4, 1200, 1, 2500, {"fail_stop:stuck@25:0:2"}, 5, true, 90, true,
       true, false},
      {"all-degraded",
       "every device fail-stops; typed no-healthy-device admission failures",
       4, 400, 1, 2500, {"fail_stop:stuck@30:0"}, -1, false, -1, false,
       false, true},
  };
}

/// One arm of one scenario: the fleet options of `a` with the matrix's
/// overrides (device count, affinity routing and the plan cache always on).
/// All three arms share the scenario's workload spec and --seed, so they
/// serve the identical arrival stream.
Timed<serve::fleet::FleetReport> run_chaos_arm(const ChaosScenario& s,
                                               const Args& a, bool faults,
                                               bool health,
                                               trace::Tracer* tracer) {
  serve::fleet::FleetOptions fo = fleet_options(a);
  fo.devices = s.devices;
  fo.affinity = true;
  fo.plan_cache = true;
  if (faults) {
    for (const char* text : s.faults) {
      fault::FaultSpec spec;
      RTR_CHECK(fault::FaultSpec::parse(text, &spec), "chaos matrix spec");
      spec.seed += a.fault_seed;  // matrix seeds shift with --seed
      fo.fault_plan.add(spec);
    }
    fo.repair_at_epoch = s.repair_at_epoch;
  }
  if (health) {
    fo.health.enabled = true;
    fo.tracer = tracer;
  }
  serve::fleet::FleetWorkloadSpec fw;
  fw.requests = s.requests;
  fw.mean_gap_ps = sim::SimTime::from_us(s.arrival_us).ps();
  fw.zipf_skew = s.zipf_skew;
  return timed([&] { return serve::fleet::run_fleet(fo, fw); });
}

std::int64_t chaos_completed(const serve::fleet::FleetReport& fr) {
  return fr.served_hw + fr.degraded;
}

/// Integer percentage (floor division): deterministic on stdout, no
/// floating-point formatting in the diffed output.
int chaos_pct(std::int64_t completed, std::int64_t baseline) {
  return baseline > 0 ? static_cast<int>(completed * 100 / baseline) : 0;
}

int chaos_cmd(const Args& a) {
  trace::Tracer tracer;
  tracer.enable(!a.trace_out.empty());

  const std::vector<ChaosScenario> matrix = chaos_matrix();
  std::size_t selected = 0;
  for (const ChaosScenario& s : matrix) {
    if (!a.smoke || s.smoke) ++selected;
  }
  std::printf("chaos: %zu scenarios, mix %s, seed=%llu%s\n", selected,
              a.mix_text.c_str(),
              static_cast<unsigned long long>(a.fault_seed),
              a.smoke ? " (smoke)" : "");

  sim::StatRegistry all_stats;  // tracker arms merged, for --stats-out
  JsonOut bench("rtrsim-chaos-bench-v1");
  bench.integer("seed", static_cast<std::int64_t>(a.fault_seed))
      .flag("smoke", a.smoke)
      .open("scenarios", '[');
  bool all_ok = true;
  double wall_total = 0;
  for (const ChaosScenario& s : matrix) {
    if (a.smoke && !s.smoke) continue;

    const auto healthy = run_chaos_arm(s, a, false, false, nullptr);
    const auto tracked = run_chaos_arm(s, a, true, true, &tracer);
    const auto naive = run_chaos_arm(s, a, true, false, nullptr);
    wall_total += healthy.wall_ms + tracked.wall_ms + naive.wall_ms;
    const serve::fleet::FleetReport& t = tracked.value;

    const std::int64_t base = chaos_completed(healthy.value);
    const std::int64_t done_t = chaos_completed(t);
    const std::int64_t done_n = chaos_completed(naive.value);
    const int pct_t = chaos_pct(done_t, base);
    const int pct_n = chaos_pct(done_n, base);

    std::string fault_list;
    for (const char* text : s.faults) {
      if (!fault_list.empty()) fault_list += ",";
      fault_list += text;
    }
    std::printf("scenario %s: %d devices, %d requests, zipf=%d, "
                "faults=[%s], repair-epoch=%d\n",
                s.name, s.devices, s.requests, s.zipf_skew,
                fault_list.c_str(), s.repair_at_epoch);
    std::printf("  %s\n", s.intent);
    std::printf("  healthy:    completed=%lld/%d\n",
                static_cast<long long>(base), s.requests);
    std::printf("  tracker:    completed=%lld goodput=%d%% failed=%lld "
                "redispatched=%lld exhausted=%lld no-healthy=%lld\n",
                static_cast<long long>(done_t), pct_t,
                static_cast<long long>(t.failed),
                static_cast<long long>(t.redispatched),
                static_cast<long long>(t.retry_exhausted),
                static_cast<long long>(t.no_healthy_device));
    std::printf("  no-tracker: completed=%lld goodput=%d%% failed=%lld\n",
                static_cast<long long>(done_n), pct_n,
                static_cast<long long>(naive.value.failed));

    // Health transitions, in decision order: the observable trail of the
    // quarantine -> drain -> probation -> readmit machinery.
    std::int64_t quarantines = 0;
    std::int64_t readmits = 0;
    std::string evline;
    for (const serve::fleet::HealthEvent& e : t.health_events) {
      if (e.to == serve::fleet::DeviceState::kQuarantined) ++quarantines;
      if (e.from == serve::fleet::DeviceState::kProbation &&
          e.to == serve::fleet::DeviceState::kHealthy) {
        ++readmits;
      }
      evline += " dev" + std::to_string(e.device) + ":" +
                serve::fleet::device_state_name(e.from) + "->" +
                serve::fleet::device_state_name(e.to) + "@e" +
                std::to_string(e.epoch);
    }
    std::printf("  health:%s\n", evline.empty() ? " (none)" : evline.c_str());

    bool ok = true;
    std::string verdicts;
    if (s.min_tracker_pct >= 0) {
      const bool p = pct_t >= s.min_tracker_pct;
      verdicts += " tracker>=" + std::to_string(s.min_tracker_pct) +
                  "%:" + (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    if (s.expect_separation) {
      const bool p = pct_n < s.min_tracker_pct;
      verdicts += std::string(" no-tracker<") +
                  std::to_string(s.min_tracker_pct) + "%:" +
                  (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    if (s.expect_readmit) {
      const bool p = readmits > 0;
      verdicts += std::string(" readmit:") + (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    if (s.expect_no_healthy) {
      const bool p = t.no_healthy_device > 0;
      verdicts += std::string(" no-healthy-typed:") + (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    std::printf("  expect:%s\n", verdicts.empty() ? " (none)"
                                                  : verdicts.c_str());
    all_ok = all_ok && ok;

    all_stats.merge(t.stats);

    bench.open()
        .text("name", s.name)
        .integer("devices", s.devices)
        .integer("requests", s.requests)
        .integer("healthy_completed", base)
        .open("tracker")
        .integer("completed", done_t)
        .integer("goodput_pct", pct_t)
        .integer("failed", t.failed)
        .integer("redispatched", t.redispatched)
        .integer("retry_exhausted", t.retry_exhausted)
        .integer("no_healthy_device", t.no_healthy_device)
        .integer("quarantines", quarantines)
        .integer("readmits", readmits)
        .real("wall_ms", tracked.wall_ms, 1)
        .close()
        .open("no_tracker")
        .integer("completed", done_n)
        .integer("goodput_pct", pct_n)
        .integer("failed", naive.value.failed)
        .real("wall_ms", naive.wall_ms, 1)
        .close()
        .flag("pass", ok)
        .close();
  }
  bench.close();

  std::printf("chaos: %s\n", all_ok ? "all scenarios matched expectations"
                                    : "EXPECTATION FAILURES (see above)");
  std::fprintf(stderr, "chaos: %zu scenarios x 3 arms, %.1f ms wall\n",
               selected, wall_total);

  if (dump_observability(all_stats, &tracer, a) != 0) return 1;
  if (!a.bench_out.empty() && !bench.save(a.bench_out)) return 1;
  return all_ok ? 0 : 1;
}

template <typename Platform>
int resources() {
  Platform p;
  report::Table t{"Resource usage", {"Module", "Slices", "BRAMs"}};
  for (const auto& row : p.resource_table()) {
    t.row({row.module, report::fmt_int(row.res.slices),
           report::fmt_int(row.res.bram_blocks)});
  }
  t.print();
  std::printf("%s", p.topology().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();

  if (a.command == "topology") {
    if (!areas_fit_system(a)) return 2;
    if (a.system == 32) {
      std::printf("%s", Platform32{}.topology().c_str());
    } else {
      PlatformOptions opts;
      opts.dynamic_areas = a.areas;
      std::printf("%s", Platform64{opts}.topology().c_str());
    }
    return 0;
  }
  if (a.command == "resources") {
    return a.system == 32 ? resources<Platform32>() : resources<Platform64>();
  }
  if (a.command == "reconfig") {
    trace::Tracer tracer;
    tracer.enable(!a.trace_out.empty());
    PlatformOptions opts;
    opts.tracer = &tracer;
    if (!build_fault_plan(a, &opts.fault_plan)) return 2;
    if (a.system == 32) {
      Platform32 p{opts};
      apply_log_level(p.sim(), a);
      const auto s = p.load_module(behavior_of(a.task));
      std::printf("%s: %s (%lld words)\n", a.task.c_str(),
                  s.ok ? s.duration().to_string().c_str() : s.error.c_str(),
                  static_cast<long long>(s.stream_words));
      if (!a.fault_specs.empty()) print_fault_summary(p.faults());
      const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
      return s.ok ? dump_rc : 1;
    }
    Platform64 p{opts};
    apply_log_level(p.sim(), a);
    const auto s = a.dma ? p.load_module_dma(behavior_of(a.task))
                         : p.load_module(behavior_of(a.task));
    std::printf("%s%s: %s (%lld words)\n", a.task.c_str(),
                a.dma ? " [dma]" : "",
                s.ok ? s.duration().to_string().c_str() : s.error.c_str(),
                static_cast<long long>(s.stream_words));
    if (!a.fault_specs.empty()) print_fault_summary(p.faults());
    const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
    return s.ok ? dump_rc : 1;
  }
  if (a.command == "run") {
    return a.system == 32 ? run_task<Platform32>(a) : run_task<Platform64>(a);
  }
  if (a.command == "sweep") {
    return sweep(a);
  }
  if (a.command == "faults") {
    return faults_cmd(a);
  }
  if (a.command == "serve") {
    return serve_cmd(a);
  }
  if (a.command == "fleet") {
    return fleet_cmd(a);
  }
  if (a.command == "chaos") {
    return chaos_cmd(a);
  }
  std::fprintf(stderr, "rtrsim_cli: unknown command '%s'\n",
               a.command.c_str());
  return usage();
}
