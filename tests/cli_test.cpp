// End-to-end tests of the rtrsim_cli binary: spawn the real executable and
// check exit codes and key output. The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "json_reader.hpp"

namespace {

using rtr::test::Json;
using rtr::test::parse_json;

#ifndef RTRSIM_CLI_PATH
#error "RTRSIM_CLI_PATH must be defined by the build"
#endif

using RunResult = rtr::test::CommandResult;

RunResult run_cli(const std::string& args) {
  return rtr::test::run_command(std::string(RTRSIM_CLI_PATH) + " " + args +
                                " 2>&1");
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, TopologyListsTheSystem) {
  const auto r32 = run_cli("topology --system 32");
  EXPECT_EQ(r32.exit_code, 0);
  EXPECT_NE(r32.output.find("XC2VP7"), std::string::npos);
  const auto rd = run_cli("topology --system 64 --areas 2");
  EXPECT_EQ(rd.exit_code, 0);
  EXPECT_NE(rd.output.find("dynamic area (dyn64)"), std::string::npos);
  EXPECT_NE(rd.output.find("dynamic area (dyn64b)"), std::string::npos);
}

TEST(Cli, ResourcesTablePrints) {
  const auto r = run_cli("resources --system 64");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("PLB Dock"), std::string::npos);
  EXPECT_NE(r.output.find("DDR controller"), std::string::npos);
}

TEST(Cli, RunJenkinsCrossChecks) {
  const auto r = run_cli("run --system 32 --task jenkins --bytes 256");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sw == hw == golden"), std::string::npos);
  EXPECT_NE(r.output.find("speedup"), std::string::npos);
}

TEST(Cli, RunFadeWithDma) {
  const auto r = run_cli("run --system 64 --task fade --image 64x32 --dma");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(DMA)"), std::string::npos);
  EXPECT_NE(r.output.find("sw == hw == golden"), std::string::npos);
}

TEST(Cli, RunDmaRejects32BitSystem) {
  // The 32-bit system has no DMA engine: --dma is a usage error, not a
  // silent PIO run labelled (DMA).
  const auto r = run_cli("run --system 32 --task fade --dma");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--dma requires --system 64"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("(DMA)"), std::string::npos) << r.output;
}

TEST(Cli, ReconfigAndServeDmaReject32BitSystem) {
  for (const char* args : {"reconfig --system 32 --task jenkins --dma",
                           "serve --workload steady --system 32 --dma"}) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("--dma requires --system 64"), std::string::npos)
        << args;
  }
}

TEST(Cli, RunDmaLabelsOnlyDmaDataMovement) {
  // SHA-1's data moves by programmed I/O even with --dma (only the image
  // tasks stream by DMA), so its hardware line says (PIO).
  const auto r = run_cli("run --system 64 --task sha1 --bytes 512 --dma");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(" (PIO)"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("(DMA)"), std::string::npos) << r.output;
}

TEST(Cli, ReconfigReportsFitFailure) {
  const auto r = run_cli("reconfig --system 32 --task sha1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("does not fit"), std::string::npos);
}

TEST(Cli, BadFlagsRejected) {
  EXPECT_EQ(run_cli("run --system 99").exit_code, 2);
  EXPECT_EQ(run_cli("frobnicate").exit_code, 2);
  const auto dual = run_cli("topology --system dual");
  EXPECT_EQ(dual.exit_code, 2);
  EXPECT_NE(dual.output.find("invalid value 'dual' for '--system'"),
            std::string::npos)
      << dual.output;
}

TEST(Cli, GarbageNumericArgsRejected) {
  // atoi-style parsing silently turned these into 0; all must now fail
  // with the usage exit code instead of running a degenerate simulation.
  EXPECT_EQ(run_cli("run --system 32x --task jenkins").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 32 --task jenkins --bytes 4k").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 32 --task jenkins --bytes banana").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 32 --task jenkins --bytes -1").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --task fade --image 64x32x7").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --task fade --image 0x32").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --task fade --image 64x").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --task fade --image x32").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --task fade --image 64by32").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --task fade --image -4x32").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --stats-format yaml").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --log-level loud").exit_code, 2);
  EXPECT_EQ(run_cli("run --system 64 --trace-format xml").exit_code, 2);
}

// Temp-file helper for the observability flags. The file name starts with
// the running test's name: ctest runs every test as its own process, in
// parallel, so two tests must never share a path.
struct TempPath {
  std::string path;
  explicit TempPath(const char* stem) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path = std::string(::testing::TempDir()) + "/" +
           test->test_suite_name() + "." + test->name() + "." + stem;
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
  [[nodiscard]] std::string slurp() const {
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path << " was not written";
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
  }
};

/// Check that dotted `path` ("a.b", "a[].b" for every element of array a,
/// optionally "=value") resolves in `doc`.
void expect_bench_path(const Json& doc, const std::string& path) {
  std::string keys = path;
  std::string want;
  if (const std::size_t eq = path.find('='); eq != std::string::npos) {
    keys = path.substr(0, eq);
    want = path.substr(eq + 1);
  }
  std::vector<const Json*> nodes = {&doc};
  std::size_t pos = 0;
  while (pos <= keys.size() && !nodes.empty()) {
    std::size_t end = keys.find('.', pos);
    if (end == std::string::npos) end = keys.size();
    std::string key = keys.substr(pos, end - pos);
    const bool each = key.size() > 2 && key.ends_with("[]");
    if (each) key.resize(key.size() - 2);
    std::vector<const Json*> next;
    for (const Json* n : nodes) {
      if (!n->has(key)) {
        ADD_FAILURE() << "missing " << path << " (at '" << key << "')";
        return;
      }
      const Json& v = n->obj.at(key);
      if (!each) {
        next.push_back(&v);
        continue;
      }
      EXPECT_FALSE(v.arr.empty()) << path << ": empty array";
      for (const Json& e : v.arr) next.push_back(&e);
    }
    nodes = next;
    pos = end + 1;
  }
  if (want.empty()) return;
  for (const Json* n : nodes) {
    switch (n->kind) {
      case Json::Kind::kBool:
        EXPECT_EQ(n->b ? "true" : "false", want) << path;
        break;
      case Json::Kind::kNumber:
        EXPECT_EQ(n->num, std::stod(want)) << path;
        break;
      default:
        EXPECT_EQ(n->str, want) << path;
    }
  }
}

/// No key anywhere in `v` names a microbenchmark.
void expect_no_bm_keys(const Json& v) {
  for (const auto& [key, child] : v.obj) {
    EXPECT_FALSE(key.starts_with("BM_")) << "per-op key " << key;
    expect_no_bm_keys(child);
  }
  for (const Json& e : v.arr) expect_no_bm_keys(e);
}

TEST(Cli, TraceOutWritesChromeJsonWithHardwareSpans) {
  TempPath trace{"cli_trace.json"};
  const auto r = run_cli("run --system 64 --task sha1 --bytes 512 --dma "
                         "--trace-out " + trace.path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string json = trace.slurp();
  // Structural spot checks; trace_test.cpp validates the format itself
  // against a real JSON parser.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ICAP\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"DMA\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"PLB\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"frame\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"burst\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Valid array termination (export closes the bracket).
  EXPECT_NE(json.rfind("]"), std::string::npos);
}

TEST(Cli, TraceFormatTextWritesTimeline) {
  TempPath trace{"cli_trace.txt"};
  const auto r = run_cli("reconfig --system 64 --task jenkins --dma "
                         "--trace-out " + trace.path + " --trace-format text");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string text = trace.slurp();
  EXPECT_NE(text.find("[ICAP]"), std::string::npos);
  EXPECT_NE(text.find("frame"), std::string::npos);
}

TEST(Cli, StatsOutJsonAndCsv) {
  TempPath js{"cli_stats.json"};
  const auto r = run_cli("run --system 32 --task jenkins --bytes 256 "
                         "--stats-out " + js.path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string json = js.slurp();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("OPB.latency_ps"), std::string::npos);
  EXPECT_NE(json.find("reconfig.complete_bytes"), std::string::npos);

  TempPath csv{"cli_stats.csv"};
  const auto rc = run_cli("run --system 32 --task jenkins --bytes 256 "
                          "--stats-out " + csv.path + " --stats-format csv");
  EXPECT_EQ(rc.exit_code, 0) << rc.output;
  const std::string table = csv.slurp();
  EXPECT_EQ(table.rfind("kind,name,value", 0), 0u) << table.substr(0, 80);
  EXPECT_NE(table.find("histogram,"), std::string::npos);
}

TEST(Cli, LogLevelControlsComponentLog) {
  // run_cli folds stderr into stdout; the buses log each transfer at
  // trace level, tagged with the bus name.
  const auto rt = run_cli("reconfig --system 64 --task jenkins "
                          "--log-level trace");
  EXPECT_EQ(rt.exit_code, 0);
  EXPECT_NE(rt.output.find("PLB"), std::string::npos);

  const auto re = run_cli("reconfig --system 64 --task jenkins "
                          "--log-level err");
  EXPECT_EQ(re.exit_code, 0);
  EXPECT_EQ(re.output.find("OPB: wr"), std::string::npos) << re.output;
}

// Like run_cli but drops stderr: the sweep prints host wall-clock timing
// there, which must not leak into determinism comparisons.
RunResult run_cli_stdout(const std::string& args) {
  return rtr::test::run_command(std::string(RTRSIM_CLI_PATH) + " " + args +
                                " 2>/dev/null");
}

TEST(Cli, SweepSmokeReportsAllScenariosOk) {
  const auto r = run_cli_stdout("sweep --smoke -j 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("aggregate:"), std::string::npos);
  EXPECT_NE(r.output.find("sweep.mismatches"), std::string::npos);
  EXPECT_EQ(r.output.find("MISMATCH"), std::string::npos) << r.output;
}

TEST(Cli, SweepStdoutIsByteIdenticalAcrossJobCounts) {
  const auto r1 = run_cli_stdout("sweep --smoke -j 1");
  const auto r2 = run_cli_stdout("sweep --smoke -j 2");
  EXPECT_EQ(r1.exit_code, 0);
  EXPECT_EQ(r2.exit_code, 0);
  EXPECT_EQ(r1.output, r2.output);
}

TEST(Cli, FaultsSmokeIsDeterministicAndPasses) {
  const auto r1 = run_cli_stdout("faults --smoke --seed 1");
  const auto r2 = run_cli_stdout("faults --smoke --seed 1");
  EXPECT_EQ(r1.exit_code, 0) << r1.output;
  EXPECT_EQ(r2.exit_code, 0);
  EXPECT_EQ(r1.output, r2.output);  // identical seed: byte-identical report
  EXPECT_NE(r1.output.find("fault matrix:"), std::string::npos);
  EXPECT_NE(r1.output.find("all scenarios matched expectations"),
            std::string::npos);
  EXPECT_EQ(r1.output.find("MISMATCH"), std::string::npos) << r1.output;
}

TEST(Cli, FaultSpecFlagInjectsAndRejectsGarbage) {
  const auto bad =
      run_cli("reconfig --system 32 --task jenkins --fault-spec bogus");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("bad --fault-spec"), std::string::npos);

  // A seeded ICAP upset makes the raw (manager-less) reconfig fail with a
  // CRC error and a per-site injection summary.
  const auto r = run_cli("reconfig --system 32 --task jenkins "
                         "--fault-spec icap:once@20000:1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("faults: injected=1"), std::string::npos);
}

TEST(Cli, UnknownOptionAndCommandAreNamed) {
  // Rejections must say WHAT was wrong, not just dump the usage text.
  const auto opt = run_cli("run --frobnicate");
  EXPECT_EQ(opt.exit_code, 2);
  EXPECT_NE(opt.output.find("unknown option '--frobnicate'"),
            std::string::npos);
  EXPECT_NE(opt.output.find("usage:"), std::string::npos);

  const auto cmd = run_cli("explode");
  EXPECT_EQ(cmd.exit_code, 2);
  EXPECT_NE(cmd.output.find("unknown command 'explode'"), std::string::npos);
  EXPECT_NE(cmd.output.find("usage:"), std::string::npos);

  const auto val = run_cli("run --bytes 4k");
  EXPECT_EQ(val.exit_code, 2);
  EXPECT_NE(val.output.find("invalid value '4k' for '--bytes'"),
            std::string::npos);

  const auto missing = run_cli("run --bytes");
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("missing value for '--bytes'"),
            std::string::npos);

  // Overflow is a parse failure, not a silent wrap.
  EXPECT_EQ(run_cli("run --bytes 99999999999999999999").exit_code, 2);
}

TEST(Cli, ServeSmokeMatchesExpectations) {
  const auto r = run_cli_stdout("serve --smoke -j 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("serve matrix:"), std::string::npos);
  EXPECT_NE(r.output.find("p32-icap-stuck"), std::string::npos);
  EXPECT_NE(r.output.find("serve.watchdog_aborts"), std::string::npos);
  EXPECT_NE(r.output.find("serve.breaker_closes"), std::string::npos);
  EXPECT_NE(r.output.find("all scenarios matched expectations"),
            std::string::npos);
  EXPECT_EQ(r.output.find("MISMATCH"), std::string::npos) << r.output;
}

TEST(Cli, ServeStdoutIsByteIdenticalAcrossJobsAndRuns) {
  const auto r1 = run_cli_stdout("serve --smoke -j 1 --seed 3");
  const auto r2 = run_cli_stdout("serve --smoke -j 4 --seed 3");
  EXPECT_EQ(r1.exit_code, 0) << r1.output;
  EXPECT_EQ(r2.exit_code, 0);
  EXPECT_EQ(r1.output, r2.output);
}

TEST(Cli, ServeSingleWorkloadWithFaultRecovers) {
  const auto r = run_cli_stdout(
      "serve --workload steady --system 32 --seed 5 "
      "--fault-spec icap:stuck@15000:5 --repair-at 6");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("workload steady"), std::string::npos);
  EXPECT_NE(r.output.find("serve.degraded"), std::string::npos);
  EXPECT_NE(r.output.find("digests: ok"), std::string::npos);
}

TEST(Cli, ServeRejectsUnknownWorkload) {
  const auto r = run_cli("serve --workload nope");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("invalid value 'nope' for '--workload'"),
            std::string::npos);
}

TEST(Cli, ServeMaxBatchCoalescesAndStaysDeterministic) {
  const std::string cmd =
      "serve --workload heavy --system 64 --areas 2 --seed 1 "
      "--max-batch 8 --batch-slack 20000";
  const auto r1 = run_cli_stdout(cmd);
  EXPECT_EQ(r1.exit_code, 0) << r1.output;
  EXPECT_NE(r1.output.find("serve.batch.count"), std::string::npos)
      << r1.output;
  EXPECT_NE(r1.output.find("serve.batch.coalesced"), std::string::npos);
  EXPECT_NE(r1.output.find("digests: ok"), std::string::npos);
  const auto r2 = run_cli_stdout(cmd);
  EXPECT_EQ(r1.output, r2.output);
}

TEST(Cli, ServeOpenLoopWorkloadRuns) {
  const auto r = run_cli_stdout(
      "serve --workload open-bursty --system 64 --areas 2 --seed 2 "
      "--max-batch 8");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("workload open-bursty"), std::string::npos);
  EXPECT_NE(r.output.find("digests: ok"), std::string::npos);
}

TEST(Cli, ServeRejectsBadBatchFlags) {
  EXPECT_EQ(run_cli("serve --workload heavy --max-batch 0").exit_code, 2);
  EXPECT_EQ(run_cli("serve --workload heavy --max-batch 65").exit_code, 2);
  EXPECT_EQ(run_cli("serve --workload heavy --batch-slack -1").exit_code, 2);
}

TEST(Cli, ServePlanCacheFlagKeepsStdoutByteIdentical) {
  // The plan cache is host-side only: the serve matrix must print exactly
  // the same simulated results with it disabled. Only the prefetcher's own
  // scorecard (serve.prefetch.*) and the cache counters may differ -- they
  // report on the optimization itself, not on served requests.
  const auto strip = [](const std::string& s) {
    std::istringstream in(s);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.find("serve.prefetch.") != std::string::npos) continue;
      out += line + "\n";
    }
    return out;
  };
  const auto on = run_cli_stdout("serve --smoke -j 2 --seed 3");
  const auto off = run_cli_stdout("serve --smoke -j 2 --seed 3 --no-plan-cache");
  EXPECT_EQ(on.exit_code, 0) << on.output;
  EXPECT_EQ(off.exit_code, 0) << off.output;
  EXPECT_EQ(strip(on.output), strip(off.output));
}

TEST(Cli, FleetStdoutIsByteIdenticalAcrossJobCounts) {
  const std::string args = "fleet --devices 4 --requests 150 --seed 3";
  const auto j1 = run_cli_stdout(args + " -j 1");
  const auto j4 = run_cli_stdout(args + " -j 4");
  EXPECT_EQ(j1.exit_code, 0) << j1.output;
  EXPECT_EQ(j1.output, j4.output);
  EXPECT_NE(j1.output.find("digests=ok"), std::string::npos);
  // A different seed must produce a different (still successful) run.
  const auto s4 = run_cli_stdout("fleet --devices 4 --requests 150 --seed 4");
  EXPECT_EQ(s4.exit_code, 0) << s4.output;
  EXPECT_NE(j1.output, s4.output);
}

TEST(Cli, FleetMultiAreaIsByteIdenticalAcrossJobCounts) {
  const std::string args =
      "fleet --devices 4 --requests 150 --seed 3 --areas 2";
  const auto j1 = run_cli_stdout(args + " -j 1");
  const auto j4 = run_cli_stdout(args + " -j 4");
  EXPECT_EQ(j1.exit_code, 0) << j1.output;
  EXPECT_EQ(j1.output, j4.output);
  EXPECT_NE(j1.output.find("areas=2"), std::string::npos);
  EXPECT_NE(j1.output.find("digests=ok"), std::string::npos);
}

TEST(Cli, ServeAreasRejects32BitSystem) {
  for (const char* args : {"serve --workload mixed --system 32 --areas 2",
                           "topology --system 32 --areas 2"}) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("--system 64"), std::string::npos) << args;
  }
}

TEST(Cli, ChaosSmokeIsByteIdenticalAcrossJobCounts) {
  const std::string args = "chaos --smoke --seed 3";
  const auto j1 = run_cli_stdout(args + " -j 1");
  const auto j4 = run_cli_stdout(args + " -j 4");
  EXPECT_EQ(j1.exit_code, 0) << j1.output;
  EXPECT_EQ(j1.output, j4.output);
  EXPECT_NE(j1.output.find("chaos: all scenarios matched expectations"),
            std::string::npos);
  EXPECT_NE(j1.output.find("fail-stop-mid"), std::string::npos);
  EXPECT_NE(j1.output.find("quarantine-recover"), std::string::npos);
  EXPECT_NE(j1.output.find("quarantined"), std::string::npos);
  // A different seed still passes but is a different run.
  const auto s4 = run_cli_stdout("chaos --smoke --seed 4 -j 2");
  EXPECT_EQ(s4.exit_code, 0) << s4.output;
  EXPECT_NE(j1.output, s4.output);
}

TEST(Cli, ServeSloSummaryAndBreachCountArePrinted) {
  const auto r = run_cli_stdout(
      "serve --workload steady --system 32 --seed 5 "
      "--fault-spec icap:stuck@15000:5 --repair-at 6 "
      "--slo deadline:0.99@5ms/20ms --slo hw:0.5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("slo: deadline:0.99@5ms/20ms:burn=1"),
            std::string::npos);
  EXPECT_NE(r.output.find("slo: hw:0.5@10ms/50ms:burn=1"), std::string::npos);
  EXPECT_NE(r.output.find("slo breaches:"), std::string::npos);
  EXPECT_NE(r.output.find("serve.slo.samples"), std::string::npos);
}

TEST(Cli, ServeRejectsMalformedSlo) {
  const auto r = run_cli("serve --smoke --slo deadline:2.0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("invalid value 'deadline:2.0' for '--slo'"),
            std::string::npos);
}

TEST(Cli, ServeIncidentDirRequiresWorkload) {
  const auto r = run_cli("serve --smoke --incident-dir ignored");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--incident-dir requires --workload"),
            std::string::npos);
}

TEST(Cli, ServeStuckFaultDumpsExactlyOneDeterministicIncident) {
  // Acceptance: the stuck-ICAP run must dump exactly one snapshot (the
  // recovery give-up; the watchdog/breaker cascade is suppressed by the
  // cooldown), byte-identical across runs for a fixed seed.
  auto run_once = [](const std::string& dir) {
    const auto r = run_cli_stdout(
        "serve --workload steady --system 32 --seed 42 "
        "--fault-spec icap:stuck@15000:42 --repair-at 6 "
        "--incident-dir " + dir);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("incidents: 1"), std::string::npos) << r.output;
    std::ifstream in(dir + "/incident-0001-rtr_giveup.json");
    EXPECT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string a = run_once("cli_inc_a");
  const std::string b = run_once("cli_inc_b");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"rtrsim-incident-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"rtr_giveup\""), std::string::npos);
  EXPECT_NE(a.find("\"stats\""), std::string::npos);
  EXPECT_NE(a.find("\"serve\""), std::string::npos);
  std::remove("cli_inc_a/incident-0001-rtr_giveup.json");
  std::remove("cli_inc_b/incident-0001-rtr_giveup.json");
}

TEST(Cli, ServeTraceOutCarriesRequestFlowEvents) {
  const std::string path = "cli_serve_trace.json";
  const auto r = run_cli_stdout(
      "serve --workload mixed --system 32 --seed 7 --trace-out " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  // Flow start at admission, steps through reconfig/exec, end at
  // completion -- the clickable request chain in Perfetto.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"req\""), std::string::npos);
  EXPECT_NE(json.find("admit:"), std::string::npos);
  EXPECT_NE(json.find("exec:hw"), std::string::npos);
  std::remove(path.c_str());
}

// Every --bench-out key path that ci.yml's gates read (plus each A/B
// block's headline fields), per command, with the values the gates
// assume. "[]" walks every element of an array; "=v" also checks the
// value. Per-op timings belong to BENCH_microbench.json alone, so no CLI
// bench file may carry a BM_* key.
void expect_bench_json(const std::string& args, const char* schema,
                       const std::vector<std::string>& paths) {
  TempPath bench{"cli_bench.json"};
  const auto r = run_cli_stdout(args + " --bench-out " + bench.path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const Json doc = parse_json(bench.slurp());
  EXPECT_EQ(doc.at("schema").str, schema);
  for (const std::string& p : paths) {
    expect_bench_path(doc, p);
  }
  expect_no_bm_keys(doc);
}

TEST(Cli, SweepWritesBenchJson) {
  expect_bench_json("sweep --smoke -j 1", "rtrsim-substrate-bench-v2",
                    {"sweep.scenarios=3", "sweep.jobs=1", "sweep.wall_ms",
                     "sweep.scenarios_per_sec"});
}

TEST(Cli, ServeWritesBenchJson) {
  expect_bench_json(
      "serve --smoke -j 1", "rtrsim-serve-bench-v6",
      {"serve.plan_cache=true", "serve.scenarios_per_sec",
       "serve.latency_workload=heavy", "serve.latency_ps.p50",
       "serve.latency_ps.p90", "serve.latency_ps.p99",
       "serve.latency_ps.p999", "serve.multi_area.one_area.swaps",
       "serve.multi_area.two_areas.swaps", "serve.multi_area.swap_drop",
       "serve.batching.max_batch=8", "serve.batching.unbatched.swaps",
       "serve.batching.unbatched.deadline_miss",
       "serve.batching.batched.swaps", "serve.batching.batched.deadline_miss",
       "serve.batching.batched.coalesced",
       "serve.batching.batched.chain_descriptors",
       "serve.batching.swap_drop"});
}

TEST(Cli, FleetWritesBenchJsonWithAffinityAb) {
  expect_bench_json(
      "fleet --devices 4 --requests 150 --seed 1", "rtrsim-fleet-bench-v4",
      {"fleet.areas=1", "fleet.plan_cache=true", "fleet.scenarios_per_sec",
       "fleet.route.affinity_hits", "fleet.swaps", "fleet.served_hw",
       "fleet.no_affinity.swaps", "fleet.single_area.swaps",
       "fleet.single_area.served_hw", "fleet.single_area.swap_drop",
       "fleet.batched.max_batch=8", "fleet.batched.swaps",
       "fleet.batched.served_hw", "fleet.batched.deadline_miss"});
}

TEST(Cli, ChaosWritesBenchJson) {
  expect_bench_json(
      "chaos --smoke --seed 3 -j 1", "rtrsim-chaos-bench-v1",
      {"scenarios[].name", "scenarios[].pass=true",
       "scenarios[].tracker.goodput_pct", "scenarios[].tracker.redispatched",
       "scenarios[].tracker.quarantines",
       "scenarios[].no_tracker.goodput_pct"});
}

// Golden-output check: the simulated stdout of each command below is a pure
// function of its flags, so it is pinned byte for byte. A refactor of the
// serving or fleet layers that changes any simulated number fails here.
// To re-baseline after an intended behaviour change, rerun the command with
// stderr discarded and overwrite tests/golden/<name>.txt.
TEST(Cli, OutputMatchesGoldens) {
  struct Golden {
    const char* name;
    const char* args;
  };
  const Golden kGoldens[] = {
      {"serve_smoke", "serve --smoke --seed 1"},
      {"serve_heavy64_a2",
       "serve --workload heavy --system 64 --areas 2 --seed 1"},
      {"serve_heavy64_a2_b8",
       "serve --workload heavy --system 64 --areas 2 --max-batch 8 --seed 1"},
      {"serve_heavy32", "serve --workload heavy --system 32 --seed 3"},
      {"fleet_8", "fleet --devices 8 --requests 600 --seed 1"},
      {"fleet_3x64_a2",
       "fleet --devices 3 --mix 64 --areas 2 --requests 2000 --seed 1"},
      {"chaos_smoke", "chaos --smoke --seed 1"},
  };
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.args);
    const auto r = run_cli_stdout(g.args);
    EXPECT_EQ(r.exit_code, 0);
    rtr::test::expect_matches_golden(RTRSIM_GOLDEN_DIR, g.name, r.output);
  }
}

}  // namespace
