// The differential suite: rtrsim's promise that every number it prints is a
// pure function of its inputs, as one row per pair of real rtrsim_cli runs.
// Both runs agree on stdout and on every file their arguments name, or with
// kDiffer print different stdout; a {bench} meets the row's bounds and the
// simulated fields of a committed BENCH_*.json. Every run exits 0 and keeps
// its books: serve counters conserve requests, fleet shards add up.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "json_reader.hpp"

namespace {

namespace fs = std::filesystem;
using rtr::test::Json;
using rtr::test::parse_json;
using rtr::test::read_file;

enum Expect { kSame, kDiffer };

// A row: its name; the arguments of its first run; strings each run's
// stdout or stats holds; the arguments of its second run (by default the
// first's again; none: one run); stdout lines left uncompared (with kDiffer,
// the one naming the knob); bounds "[k *] x op y" over {bench}; and the
// committed BENCH file {bench} must match. {j} is 1 in the first run and 4
// in the second; {stats}, {trace}, {bench} and {dir} name the run's files.
struct Row {
  const char* name;
  const char* a;
  std::vector<const char*> has = {};
  const char* b = "";
  const char* ignore = nullptr;
  Expect expect = kSame;
  std::vector<const char*> bounds = {};
  const char* committed = nullptr;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.a; }

constexpr const char* kMatched = "all scenarios matched expectations";

#define HEAVY "serve --workload heavy --system 64 --areas 2 "
#define OPEN " --system 64 --areas 2 --seed 1 --max-batch 8"
#define STUCK                                                   \
  "serve --workload steady --system 32 --seed 42 --fault-spec " \
  "icap:stuck@15000:42 --repair-at 6 "
#define FLEET8 "fleet --devices 8 --requests 600 "
#define FLEET3 "fleet --devices 3 --mix 64 --requests 600 --arrival-us 4000 "

const Row kRows[] = {
    // A second run at -j 4 is also a repeat of the first.
    {"ServeMatrixAcrossJobs", "serve --seed 1 -j {j}", {kMatched}},
    {"ServeMatrixSeed2AcrossJobs", "serve --seed 2 -j {j}", {kMatched}},
    {"ServeMatrixSeedsDiffer", "serve --seed 1", {}, "serve --seed 2", "seed",
     kDiffer},
    {"ServeSmokeAcrossJobs", "serve --smoke --seed 3 -j {j}", {kMatched}},
    {"ServeSloAcrossJobs",
     "serve --seed 1 -j {j} --slo deadline:0.99@10ms/50ms --slo hw:0.9",
     {kMatched}},
    // The prefetcher's scorecard reports on the cache, not on requests.
    {"ServePlanCacheOff", "serve --smoke --seed 3 -j 2", {},
     "serve --smoke --seed 3 -j 2 --no-plan-cache", "serve.prefetch."},
    {"ServeHeavyRepeats", HEAVY "--seed 1 --stats-out {stats}",
     {"digests: ok"}},
    {"ServeHeavySeed2Repeats", HEAVY "--seed 2 --stats-out {stats}",
     {"digests: ok"}},
    {"ServeBatchedRepeats",
     HEAVY "--seed 1 --max-batch 8 --batch-slack 20000 --stats-out {stats}",
     {"digests: ok", "serve.batch.count", "serve.batch.coalesced",
      "dma.chains"}},
    {"ServeBatchedSeed2Repeats",
     HEAVY "--seed 2 --max-batch 8 --stats-out {stats}", {"digests: ok"}},
    {"ServeBatchedSeedsDiffer", HEAVY "--seed 1 --max-batch 8", {},
     HEAVY "--seed 2 --max-batch 8", "seed", kDiffer},
    {"ServeOpenSteadyRepeats", "serve --workload open-steady" OPEN,
     {"digests: ok"}},
    {"ServeOpenBurstyRepeats", "serve --workload open-bursty" OPEN,
     {"digests: ok", "serve.batch.coalesced"}},
    {"ServeOpenDiurnalRepeats", "serve --workload open-diurnal" OPEN,
     {"digests: ok"}},
    {"ServeIncidentRepeats", STUCK "--incident-dir {dir}",
     {"incidents: 1", "incident 1: rtr_giveup"}},
    {"ServeSloIncidentRepeats",
     STUCK "--slo hw:0.9@5ms/20ms --incident-dir {dir}", {"incidents: 1"}},
    // Two areas at least halve the heavy workload's swaps, and batching
    // halves them again with no extra deadline miss.
    {"ServeBench", "serve --seed 1 -j 4 --bench-out {bench}", {kMatched},
     nullptr, nullptr, kSame,
     {"2 * serve.multi_area.two_areas.swaps <= "
      "serve.multi_area.one_area.swaps",
      "2 * serve.batching.batched.swaps <= serve.batching.unbatched.swaps",
      "serve.batching.batched.deadline_miss <= "
      "serve.batching.unbatched.deadline_miss"},
     "BENCH_serve.json"},
    {"FaultsSmokeRepeats", "faults --smoke --seed 1",
     {"fault matrix:", kMatched}},
    {"FaultsSmokeSeed2Repeats", "faults --smoke --seed 2", {kMatched}},
    {"SweepSmokeAcrossJobs", "sweep --smoke -j {j}",
     {"aggregate:", "sweep.mismatches"}},
    {"SweepBench", "sweep -j 4 --bench-out {bench}", {}, nullptr, nullptr,
     kSame, {"sweep.jobs == 4"}, "BENCH_substrate.json"},
    {"FleetAcrossJobs", FLEET8 "--seed 1 -j {j} --stats-out {stats}",
     {"digests=ok"}},
    {"FleetSeed2AcrossJobs", FLEET8 "--seed 2 -j {j} --stats-out {stats}",
     {"digests=ok"}},
    {"FleetSeedsDiffer", FLEET8 "--seed 1", {}, FLEET8 "--seed 2", "seed",
     kDiffer},
    {"FleetMultiAreaAcrossJobs", FLEET3 "--seed 1 --areas 2 -j {j}",
     {"digests=ok", "areas=2"}},
    {"FleetMultiAreaSeed2AcrossJobs", FLEET3 "--seed 2 --areas 2 -j {j}",
     {"digests=ok", "areas=2"}},
    {"FleetMixedMultiAreaAcrossJobs",
     "fleet --devices 4 --requests 150 --seed 3 --areas 2 -j {j}",
     {"digests=ok", "areas=2"}},
    {"FleetBatchedAcrossJobs",
     FLEET3 "--seed 1 --areas 2 --max-batch 8 -j {j} --stats-out {stats}",
     {"digests=ok", "max-batch=8"}},
    {"FleetBatchedSeed2AcrossJobs",
     FLEET3 "--seed 2 --areas 2 --max-batch 8 -j {j} --stats-out {stats}",
     {"digests=ok", "max-batch=8"}},
    {"FleetAffinityArmsDiffer", FLEET8 "--seed 1", {"digests=ok"},
     FLEET8 "--seed 1 --no-affinity", "affinity=", kDiffer},
    // Affinity routing swaps less than random routing; two areas cut swaps
    // 3x with hardware serves held; batching adds no swap, drops no serve.
    {"FleetAffinityBench", FLEET8 "--seed 1 -j 4 --bench-out {bench}",
     {"digests=ok"}, nullptr, nullptr, kSame,
     {"fleet.swaps < fleet.no_affinity.swaps", "fleet.areas == 1"}},
    {"FleetBench",
     "fleet --devices 3 --mix 64 --requests 2000 --arrival-us 4000 --seed 1 "
     "--areas 2 -j 4 --bench-out {bench}",
     {"digests=ok"}, nullptr, nullptr, kSame,
     {"fleet.swaps < fleet.no_affinity.swaps",
      "3 * fleet.swaps <= fleet.single_area.swaps",
      "fleet.served_hw >= fleet.single_area.served_hw",
      "fleet.batched.swaps <= fleet.swaps",
      "fleet.batched.served_hw >= fleet.served_hw"},
     "BENCH_fleet.json"},
    {"ChaosSmokeAcrossJobs",
     "chaos --smoke --seed 1 -j {j} --stats-out {stats}",
     {"chaos: all scenarios matched expectations", "fail-stop-mid",
      "quarantine-recover", "quarantined"}},
    {"ChaosSmokeSeed7AcrossJobs",
     "chaos --smoke --seed 7 -j {j} --stats-out {stats}", {kMatched}},
    {"ChaosSmokeSeedsDiffer", "chaos --smoke --seed 1", {},
     "chaos --smoke --seed 7", "seed", kDiffer},
    {"ChaosBatchedAcrossJobs", "chaos --smoke --seed 1 --max-batch 8 -j {j}",
     {kMatched}},
    // With the health tracker a fail-stop keeps 90% goodput; without it the
    // same stream falls below.
    {"ChaosBench", "chaos --seed 1 -j 4 --bench-out {bench}", {kMatched},
     nullptr, nullptr, kSame,
     {"scenarios[].pass == 1",
      "scenarios[fail-stop-mid].tracker.goodput_pct >= 90",
      "scenarios[fail-stop-mid].no_tracker.goodput_pct < 90"},
     "BENCH_chaos.json"},
    {"RunTraceAndStatsRepeat",
     "run --system 64 --task sha1 --dma --trace-out {trace} "
     "--stats-out {stats}"},
};

/// What one run printed, and what it wrote in each slot ("{stats}", or
/// "{dir}/<name>" for each file of the dir).
struct Output {
  int exit_code = -1;
  std::string out;
  std::map<std::string, std::string> files;
  [[nodiscard]] std::string file(const std::string& slot) const {
    return files.count(slot) != 0 ? files.at(slot) : "";
  }
};

std::vector<std::string> lines_of(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `text` without the lines that hold `drop` (all of it when null).
std::string without(const std::string& text, const char* drop) {
  std::string kept;
  for (const std::string& line : lines_of(text)) {
    if (drop == nullptr || line.find(drop) == std::string::npos) {
      kept += line + "\n";
    }
  }
  return kept;
}

/// The integers a line reports: its `key=value` words, or the whole line
/// when it is "name value" (a serve counter).
std::map<std::string, double> numbers(const std::string& line) {
  std::istringstream in(line);
  const std::vector<std::string> w{std::istream_iterator<std::string>(in),
                                   {}};
  const auto integer = [](const std::string& s) {
    return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
  };
  std::map<std::string, double> n;
  if (w.size() == 2 && integer(w[1])) n[w[0]] = std::stod(w[1]);
  for (const std::string& word : w) {
    const std::size_t eq = word.find('=');
    if (eq != std::string::npos && integer(word.substr(eq + 1))) {
      n[word.substr(0, eq)] = std::stod(word.substr(eq + 1));
    }
  }
  return n;
}

/// Every submitted request is admitted, shed or unservable, and every
/// admitted one is served in hardware, degraded, failed or expired. A
/// counter the run did not report counts as 0.
void expect_conserved(std::map<std::string, double> c) {
  EXPECT_EQ(c["serve.submitted"],
            c["serve.admitted"] + c["serve.shed"] + c["serve.unservable"]);
  EXPECT_EQ(c["serve.admitted"], c["serve.hw"] + c["serve.degraded"] +
                                     c["serve.failed"] + c["serve.expired"]);
}

/// A fleet's shard lines add up to its fleet and route lines.
void expect_shards_add_up(const std::string& out) {
  std::map<std::string, double> shards, totals;
  int n = 0;
  for (const std::string& line : lines_of(out)) {
    if (line.starts_with("shard ")) {
      ++n;
      for (const auto& [k, v] : numbers(line)) shards[k] += v;
    } else if (line.starts_with("fleet: hw=") || line.starts_with("route: ")) {
      totals.merge(numbers(line));
    }
  }
  EXPECT_GT(n, 0) << "no shard lines";
  static constexpr std::pair<const char*, const char*> kSums[] = {
      {"routed", "decisions"}, {"hw", "hw"},       {"sw", "sw"},
      {"shed", "shed"},        {"exp", "expired"}, {"miss", "miss"},
      {"swaps", "swaps"}};
  for (const auto& [shard, total] : kSums) {
    EXPECT_TRUE(totals.count(total)) << "no fleet " << total;
    EXPECT_EQ(shards[shard], totals[total]) << "shard " << shard << " sum";
  }
}

/// An incident dir holds one dump per incident the run counted, named for
/// its kind, in the incident schema, with serve and stats state.
void expect_incidents(const Output& o) {
  int dumps = 0;
  for (const auto& [slot, text] : o.files) {
    if (!slot.starts_with("{dir}/")) continue;
    ++dumps;
    const Json doc = parse_json(text);
    EXPECT_TRUE(slot.ends_with("-" + doc.at("incident").at("kind").str +
                               ".json"));
    EXPECT_EQ(doc.at("schema").str, "rtrsim-incident-v1");
    EXPECT_TRUE(doc.at("state").has("serve") && doc.at("state").has("stats"));
  }
  const std::size_t at = o.out.find("incidents: ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(dumps, std::stoi(o.out.substr(at + 11)));
}

/// The values `path` names in `doc`: "a.b", "a[].b" (b of every element of
/// array a), "a[x].b" (of the element named x), or a number (true is 1).
std::vector<double> values(const Json& doc, const std::string& path) {
  if (path.find_first_not_of("0123456789.") == std::string::npos) {
    return {std::stod(path)};
  }
  std::vector<const Json*> nodes = {&doc};
  std::istringstream keys(path);
  for (std::string key; std::getline(keys, key, '.');) {
    const std::size_t open = key.find('[');
    std::vector<const Json*> next;
    for (const Json* n : nodes) {
      const Json& v = n->at(key.substr(0, open));
      if (open == std::string::npos) {
        next.push_back(&v);
        continue;
      }
      const std::string pick = key.substr(open + 1, key.size() - open - 2);
      for (const Json& e : v.arr) {
        if (pick.empty() || (e.has("name") && e.obj.at("name").str == pick)) {
          next.push_back(&e);
        }
      }
    }
    nodes = next;
  }
  std::vector<double> out;
  for (const Json* n : nodes) {
    out.push_back(n->kind == Json::Kind::kBool ? n->b : n->num);
  }
  return out;
}

/// "[k *] x op y": k times each value x names stands in `op` to each y.
void expect_bound(const Json& doc, const std::string& bound) {
  std::istringstream in(bound);
  std::vector<std::string> w{std::istream_iterator<std::string>(in), {}};
  ASSERT_TRUE(w.size() == 3 || (w.size() == 5 && w[1] == "*")) << bound;
  const double k = w.size() == 5 ? std::stod(w[0]) : 1;
  w.erase(w.begin(), w.end() - 3);
  const std::string op = w[1];
  const std::vector<double> xs = values(doc, w[0]), ys = values(doc, w[2]);
  EXPECT_FALSE(xs.empty() || ys.empty()) << bound << " names nothing";
  for (const double x : xs) {
    for (const double y : ys) {
      EXPECT_TRUE(op == "<"    ? k * x < y
                  : op == "<=" ? k * x <= y
                  : op == ">=" ? k * x >= y
                               : op == "==" && k * x == y)
          << bound << ": " << k * x << " " << op << " " << y;
    }
  }
}

/// `got` has `want`'s keys, and its values wherever they are simulated:
/// all but host time (wall_ms, jobs and the *_per_sec rates). Per-op
/// timings (BM_* keys) belong to BENCH_microbench.json alone.
void expect_same_fields(const Json& want, const Json& got,
                        const std::string& path) {
  ASSERT_EQ(got.kind, want.kind) << path;
  EXPECT_TRUE(got.num == want.num && got.b == want.b && got.str == want.str)
      << path << " differs from the committed value";
  ASSERT_EQ(got.arr.size(), want.arr.size()) << path;
  for (std::size_t i = 0; i < want.arr.size(); ++i) {
    expect_same_fields(want.arr[i], got.arr[i],
                       path + "[" + std::to_string(i) + "]");
  }
  for (const auto& [key, w] : want.obj) {
    if (!got.has(key)) {
      ADD_FAILURE() << path << "." << key << " is missing";
    } else if (key != "wall_ms" && key != "jobs" &&
               !key.ends_with("_per_sec")) {
      expect_same_fields(w, got.obj.at(key), path + "." + key);
    }
  }
  for (const auto& [key, g] : got.obj) {
    EXPECT_TRUE(want.has(key)) << path << "." << key << " is not committed";
    EXPECT_FALSE(key.starts_with("BM_")) << path << "." << key;
  }
}

class Differential : public ::testing::TestWithParam<Row> {
 protected:
  /// Run rtrsim_cli with `args`, {j} as `jobs` and each slot a path in the
  /// working directory named for the row and `tag`.
  Output run(std::string args, const char* tag, const char* jobs) {
    if (const std::size_t at = args.find("{j}"); at != std::string::npos) {
      args.replace(at, 3, jobs);
    }
    std::vector<std::pair<std::string, fs::path>> slots;
    for (const std::string slot : {"{stats}", "{trace}", "{bench}", "{dir}"}) {
      const std::size_t at = args.find(slot);
      if (at == std::string::npos) continue;
      const fs::path p = std::string("Differential.") + GetParam().name + "." +
                         tag + "." + slot.substr(1, slot.size() - 2);
      fs::remove_all(p);
      made_.push_back(p);
      args.replace(at, slot.size(), p.string());
      slots.emplace_back(slot, p);
    }
    const auto r = rtr::test::run_command(std::string(RTRSIM_CLI_PATH) + " " +
                                          args + " 2>/dev/null");
    Output o{r.exit_code, r.output, {}};
    for (const auto& [slot, p] : slots) {
      if (!fs::is_directory(p)) {
        o.files[slot] = read_file(p);
        continue;
      }
      for (const auto& e : fs::directory_iterator(p)) {
        o.files[slot + "/" + e.path().filename().string()] = read_file(e.path());
      }
    }
    return o;
  }

  // A failed row leaves its files for CI to upload.
  void TearDown() override {
    if (HasFailure()) return;
    for (const fs::path& p : made_) fs::remove_all(p);
  }

 private:
  std::vector<fs::path> made_;
};

TEST_P(Differential, Row) {
  const Row& row = GetParam();
  const std::string command = row.a;
  std::vector<Output> runs = {run(row.a, "a", "1")};
  if (row.b != nullptr) runs.push_back(run(*row.b ? row.b : row.a, "b", "4"));

  for (const Output& o : runs) {
    ASSERT_EQ(o.exit_code, 0) << o.out;
    EXPECT_EQ(o.out.find("MISMATCH"), std::string::npos) << o.out;
    for (const char* has : row.has) {
      EXPECT_NE((o.out + o.file("{stats}")).find(has), std::string::npos)
          << "no \"" << has << "\"";
    }
    if (command.starts_with("serve ")) {
      std::map<std::string, double> counters;
      for (const std::string& line : lines_of(o.out)) {
        if (line.starts_with("  serve.")) counters.merge(numbers(line));
      }
      EXPECT_TRUE(counters.count("serve.submitted")) << o.out;
      expect_conserved(counters);
    }
    if (command.starts_with("fleet ")) expect_shards_add_up(o.out);
    if (command.find("{dir}") != std::string::npos) expect_incidents(o);
  }

  // The first run's files are parsed; the second run's are compared below.
  if (runs[0].files.count("{stats}") != 0) {
    EXPECT_EQ(parse_json(runs[0].file("{stats}")).kind, Json::Kind::kObject);
  }
  if (runs[0].files.count("{trace}") != 0) {
    const Json events = parse_json(runs[0].file("{trace}"));
    EXPECT_FALSE(events.arr.empty());
    for (const Json& e : events.arr) {
      ASSERT_TRUE(e.has("ph") && e.has("pid") && e.has("tid"));
    }
  }
  if (runs.size() == 2 && row.expect == kDiffer) {
    EXPECT_NE(without(runs[0].out, row.ignore),
              without(runs[1].out, row.ignore));
  } else if (runs.size() == 2) {
    rtr::test::expect_same_text("stdout", without(runs[0].out, row.ignore),
                                without(runs[1].out, row.ignore));
    EXPECT_EQ(runs[0].files.size(), runs[1].files.size());
    for (const auto& [slot, text] : runs[0].files) {
      rtr::test::expect_same_text(slot, text, runs[1].file(slot));
    }
  }

  if (!row.bounds.empty() || row.committed != nullptr) {
    const Json bench = parse_json(runs[0].file("{bench}"));
    for (const char* bound : row.bounds) expect_bound(bench, bound);
    if (row.committed != nullptr) {
      expect_same_fields(
          parse_json(read_file(fs::path(RTRSIM_SOURCE_DIR) / row.committed)),
          bench, row.committed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(, Differential, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
