// Tests for the trace subsystem (src/trace) and the stat-export layer:
// span bookkeeping, the disabled-tracer zero-event guarantee, golden Chrome
// and timeline output, histogram percentiles, Welford stddev, and a JSON
// round-trip of a whole StatRegistry through a small parser.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "json_reader.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "trace/tracer.hpp"

namespace {

using rtr::sim::Accumulator;
using rtr::sim::Histogram;
using rtr::sim::SimTime;
using rtr::sim::StatRegistry;
using rtr::test::Json;
using rtr::test::parse_json;
using rtr::trace::Phase;
using rtr::trace::Tracer;

SimTime us(std::int64_t n) { return SimTime{n * 1'000'000}; }

// ---------------------------------------------------------------------------

TEST(Tracer, SpansNestAndKeepOrder) {
  Tracer tr;
  tr.enable();
  const int t = tr.track("unit");
  tr.begin(t, "outer", us(1));
  EXPECT_EQ(tr.open_spans(), 1);
  tr.begin(t, "inner", us(2));
  EXPECT_EQ(tr.open_spans(), 2);
  tr.instant(t, "tick", us(3));
  tr.end(t, us(4));
  tr.end(t, us(5));
  EXPECT_EQ(tr.open_spans(), 0);

  const auto& evs = tr.events();
  ASSERT_EQ(evs.size(), 5u);
  EXPECT_EQ(evs[0].ph, Phase::kBegin);
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[1].name, "inner");
  EXPECT_EQ(evs[2].ph, Phase::kInstant);
  EXPECT_EQ(evs[3].ph, Phase::kEnd);
  EXPECT_EQ(evs[4].ph, Phase::kEnd);
  // Timestamps are monotone as recorded.
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GE(evs[i].ts_ps, evs[i - 1].ts_ps);
  }
}

TEST(Tracer, TrackIdsAreStable) {
  Tracer tr;
  const int a = tr.track("PLB");
  const int b = tr.track("OPB");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.track("PLB"), a);
  EXPECT_EQ(tr.track("OPB"), b);
  ASSERT_EQ(tr.tracks().size(), 2u);
  EXPECT_EQ(tr.tracks()[static_cast<std::size_t>(a)], "PLB");
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tr;
  ASSERT_FALSE(tr.enabled());
  const int t = tr.track("unit");
  tr.begin(t, "span", us(1));
  tr.instant(t, "i", us(2));
  tr.complete(t, "x", us(2), us(3));
  tr.complete(t, "x", us(2), us(3), "bytes", 64);
  tr.counter("c", 7, us(4));
  tr.end(t, us(5));
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.open_spans(), 0);

  // Re-enabling later starts from a clean slate.
  tr.enable();
  tr.complete(t, "x", us(2), us(3));
  EXPECT_EQ(tr.size(), 1u);
}

TEST(Tracer, ChromeJsonGolden) {
  Tracer tr;
  tr.enable();
  const int t = tr.track("ICAP");
  tr.begin(t, "load", us(1));
  tr.complete(t, "frame", us(1), SimTime{1'500'000}, "far", 42);
  tr.counter("fifo", 3, us(2));
  tr.end(t, us(2));

  std::ostringstream os;
  tr.export_chrome(os);
  EXPECT_EQ(os.str(),
            "[\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"ICAP\"}},\n"
            "{\"name\":\"load\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":0},\n"
            "{\"name\":\"frame\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":0,"
            "\"dur\":0.5,\"args\":{\"far\":42}},\n"
            "{\"name\":\"fifo\",\"ph\":\"C\",\"ts\":2,\"pid\":1,\"tid\":1,"
            "\"args\":{\"value\":3}},\n"
            "{\"name\":\"\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":0}\n"
            "]\n");

  // And the same output must survive a JSON parser.
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kArray);
  ASSERT_EQ(doc.arr.size(), 5u);
  for (const Json& e : doc.arr) {
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("ph"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
  }
  EXPECT_EQ(doc.arr[2].at("ph").str, "X");
  EXPECT_DOUBLE_EQ(doc.arr[2].at("dur").num, 0.5);
  EXPECT_DOUBLE_EQ(doc.arr[3].at("args").at("value").num, 3.0);
}

TEST(Tracer, TimelineGolden) {
  Tracer tr;
  tr.enable();
  const int t = tr.track("DMA");
  tr.begin(t, "descriptor", us(1));
  tr.complete(t, "burst", us(1), us(2), "bytes", 128);
  tr.end(t, us(2));

  std::ostringstream os;
  tr.export_timeline(os);
  EXPECT_EQ(os.str(),
            "1.000 us [DMA] + descriptor\n"
            "1.000 us [DMA]   burst (1.000 us) bytes=128\n"
            "2.000 us [DMA] -\n");
}

TEST(Tracer, InstantWithArgAppearsInBothExports) {
  // The serving layer tags its instants with the request id; the timeline
  // and the Chrome export must both carry the argument through.
  Tracer tr;
  tr.enable();
  const int t = tr.track("SERVE");
  tr.instant(t, "breaker:open", us(3), "req", 42);

  std::ostringstream timeline;
  tr.export_timeline(timeline);
  EXPECT_EQ(timeline.str(), "3.000 us [SERVE] ! breaker:open req=42\n");

  std::ostringstream chrome;
  tr.export_chrome(chrome);
  EXPECT_NE(chrome.str().find("\"req\":42"), std::string::npos);
  EXPECT_NE(chrome.str().find("breaker:open"), std::string::npos);
}

TEST(Tracer, ClearResetsEventsButKeepsTracks) {
  Tracer tr;
  tr.enable();
  const int t = tr.track("unit");
  tr.begin(t, "span", us(1));
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.open_spans(), 0);
  EXPECT_EQ(tr.track("unit"), t);
}

// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(-5), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::int64_t>::max()),
            Histogram::kBuckets - 1);
}

TEST(Histogram, SingleValueCollapsesAllPercentiles) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.sample(700);
  EXPECT_EQ(h.count(), 10);
  EXPECT_EQ(h.min(), 700);
  EXPECT_EQ(h.max(), 700);
  EXPECT_DOUBLE_EQ(h.mean(), 700.0);
  // Clamping to observed min/max pins every percentile to the value.
  EXPECT_DOUBLE_EQ(h.p50(), 700.0);
  EXPECT_DOUBLE_EQ(h.p90(), 700.0);
  EXPECT_DOUBLE_EQ(h.p99(), 700.0);
}

TEST(Histogram, UniformSamplesGiveSanePercentiles) {
  Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.sample(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  // Log buckets bound the relative error by 2x; for this distribution the
  // in-bucket interpolation lands much closer.
  EXPECT_NEAR(h.p50(), 500.0, 50.0);
  EXPECT_GE(h.p90(), 800.0);
  EXPECT_LE(h.p90(), 1000.0);
  EXPECT_GE(h.p99(), h.p90());
  EXPECT_LE(h.p99(), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
}

TEST(Histogram, EmptyIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Accumulator, WelfordVarianceAndStddev) {
  Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.sample(v);
  EXPECT_EQ(a.count(), 8);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 4.0, 1e-12);
  EXPECT_NEAR(a.stddev(), 2.0, 1e-12);

  Accumulator empty;
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
}

TEST(Accumulator, VarianceIsStableUnderLargeOffsets) {
  // The classic sum-of-squares formula loses everything here; Welford
  // must not.
  Accumulator a;
  const double base = 1e9;
  for (double v : {base + 4.0, base + 7.0, base + 13.0, base + 16.0}) {
    a.sample(v);
  }
  EXPECT_NEAR(a.mean(), base + 10.0, 1e-6);
  EXPECT_NEAR(a.variance(), 22.5, 1e-6);
}

// ---------------------------------------------------------------------------

TEST(StatRegistry, JsonExportRoundTrips) {
  StatRegistry reg;
  reg.counter("bus.reads").add(3);
  reg.counter("bus.writes").add(5);
  auto& acc = reg.accumulator("fifo.occupancy");
  acc.sample(1.0);
  acc.sample(3.0);
  reg.busy("PLB.busy").add(us(1), us(4));
  auto& h = reg.histogram("lat");
  for (std::int64_t v = 1; v <= 100; ++v) h.sample(v);

  std::ostringstream os;
  reg.export_json(os);
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kObject);

  EXPECT_DOUBLE_EQ(doc.at("counters").at("bus.reads").num, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("bus.writes").num, 5.0);

  const Json& a = doc.at("accumulators").at("fifo.occupancy");
  EXPECT_DOUBLE_EQ(a.at("count").num, 2.0);
  EXPECT_DOUBLE_EQ(a.at("mean").num, 2.0);
  EXPECT_DOUBLE_EQ(a.at("stddev").num, 1.0);

  EXPECT_DOUBLE_EQ(doc.at("busy").at("PLB.busy").at("busy_ps").num, 3e6);

  const Json& hj = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(hj.at("count").num, 100.0);
  EXPECT_DOUBLE_EQ(hj.at("min").num, 1.0);
  EXPECT_DOUBLE_EQ(hj.at("max").num, 100.0);
  EXPECT_TRUE(hj.has("p50"));
  EXPECT_TRUE(hj.has("p90"));
  EXPECT_TRUE(hj.has("p99"));
}

TEST(StatRegistry, EmptyJsonExportParses) {
  StatRegistry reg;
  std::ostringstream os;
  reg.export_json(os);
  const Json doc = parse_json(os.str());
  EXPECT_EQ(doc.at("counters").obj.size(), 0u);
  EXPECT_EQ(doc.at("histograms").obj.size(), 0u);
}

TEST(StatRegistry, CsvExportHasUniformColumns) {
  StatRegistry reg;
  reg.counter("c").add(1);
  reg.accumulator("a").sample(2.0);
  reg.busy("b").add(us(0), us(1));
  reg.histogram("h").sample(8);

  std::ostringstream os;
  reg.export_csv(os);
  std::istringstream is{os.str()};
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "kind,name,value,count,min,max,mean,stddev,p50,p90,p99,p999");
  const auto columns = static_cast<long>(std::count(line.begin(), line.end(), ','));
  int rows = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), columns) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 4);  // one per registered stat
}

TEST(StatRegistry, PrintIncludesStddevAndPercentiles) {
  StatRegistry reg;
  auto& acc = reg.accumulator("a");
  acc.sample(1.0);
  acc.sample(3.0);
  reg.histogram("h").sample(100);
  std::ostringstream os;
  reg.print(os);
  EXPECT_NE(os.str().find("stddev"), std::string::npos);
  EXPECT_NE(os.str().find("p999"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flow events, exporter edge cases, escaping, and the observer hook.

TEST(Tracer, FlowEventsExportWithCategoryAndId) {
  Tracer tr;
  tr.enable();
  const int t = tr.track("SERVE");
  tr.begin(t, "request", us(1));
  tr.flow(Phase::kFlowStart, t, "req", 7, us(1));
  tr.flow(Phase::kFlowStep, t, "req", 7, us(2));
  tr.flow(Phase::kFlowEnd, t, "req", 7, us(3));
  tr.end(t, us(3));

  std::ostringstream os;
  tr.export_chrome(os);
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kArray);
  int flows = 0;
  for (const Json& e : doc.arr) {
    const std::string& ph = e.at("ph").str;
    if (ph == "s" || ph == "t" || ph == "f") {
      ++flows;
      EXPECT_EQ(e.at("cat").str, "req");
      EXPECT_DOUBLE_EQ(e.at("id").num, 7.0);
      // Binding point "e" attaches the flow to the enclosing slice, which
      // is what makes the arrows clickable end-to-end in Perfetto.
      EXPECT_EQ(e.at("bp").str, "e");
    }
  }
  EXPECT_EQ(flows, 3);

  std::ostringstream timeline;
  tr.export_timeline(timeline);
  EXPECT_NE(timeline.str().find("~> req flow=7"), std::string::npos);
  EXPECT_NE(timeline.str().find("~ req flow=7"), std::string::npos);
  EXPECT_NE(timeline.str().find("~| req flow=7"), std::string::npos);
}

TEST(Tracer, EmptyEnabledExportIsValidJson) {
  Tracer tr;
  tr.enable();
  std::ostringstream os;
  tr.export_chrome(os);
  const Json doc = parse_json(os.str());
  EXPECT_EQ(doc.kind, Json::Kind::kArray);
  EXPECT_EQ(doc.arr.size(), 0u);
}

TEST(Tracer, UnbalancedBeginStillExportsValidJson) {
  Tracer tr;
  tr.enable();
  const int t = tr.track("unit");
  tr.begin(t, "never-ended", us(1));
  std::ostringstream os;
  tr.export_chrome(os);
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kArray);
  // Track meta + the dangling B event; a viewer can still open this.
  ASSERT_EQ(doc.arr.size(), 2u);
  EXPECT_EQ(doc.arr[1].at("ph").str, "B");
  EXPECT_EQ(tr.open_spans(), 1);
}

TEST(Tracer, CounterOnlyTraceExports) {
  // Counters get synthetic tids after the named tracks; with no named
  // track at all the export must still be self-consistent.
  Tracer tr;
  tr.enable();
  tr.counter("queue.depth", 3, us(1));
  tr.counter("queue.depth", 2, us(2));
  std::ostringstream os;
  tr.export_chrome(os);
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.arr.size(), 2u);
  for (const Json& e : doc.arr) {
    EXPECT_EQ(e.at("ph").str, "C");
    EXPECT_DOUBLE_EQ(e.at("tid").num, 0.0);
  }
}

TEST(Tracer, HostileNamesSurviveChromeExport) {
  // Fuzz the JSON string escaper with every byte class that can break an
  // exporter: quotes, backslashes, control characters, DEL, high bytes.
  Tracer tr;
  tr.enable();
  const int t = tr.track("we\"ird\\track\x01");
  std::string name;
  for (int c = 1; c < 0x21; ++c) name += static_cast<char>(c);
  name += "\"\\\x7f";
  name += static_cast<char>(0xc3);  // lone UTF-8 lead byte
  tr.begin(t, name, us(1));
  tr.instant(t, "quote\"back\\slash\nnewline\ttab", us(2));
  tr.end(t, us(3));

  std::ostringstream os;
  tr.export_chrome(os);
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kArray);
  ASSERT_EQ(doc.arr.size(), 4u);
  // No raw control bytes may survive into the serialized form.
  for (const char c : os.str()) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte in export: " << static_cast<int>(c);
  }
}

TEST(StatRegistry, HostileStatNamesSurviveJsonExport) {
  StatRegistry reg;
  reg.counter("evil\"name\\with\ncontrol\x02chars").add(1);
  reg.histogram("h\"ist").sample(5);
  std::ostringstream os;
  reg.export_json(os);
  const Json doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  EXPECT_EQ(doc.at("counters").obj.size(), 1u);
  for (const char c : os.str()) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte in export: " << static_cast<int>(c);
  }
}

TEST(Tracer, ObserverSeesEventsWithoutStorage) {
  Tracer tr;
  tr.enable();
  tr.set_store_events(false);
  int seen = 0;
  std::int64_t last_flow = -1;
  tr.set_observer([&](const rtr::trace::TraceEvent& ev) {
    ++seen;
    if (ev.flow_id >= 0) last_flow = ev.flow_id;
  });
  const int t = tr.track("unit");
  tr.begin(t, "span", us(1));
  tr.flow(Phase::kFlowStart, t, "req", 9, us(1));
  tr.end(t, us(2));
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(last_flow, 9);
  EXPECT_EQ(tr.size(), 0u);  // nothing retained

  tr.set_observer(nullptr);
  tr.set_store_events(true);
  tr.begin(t, "span2", us(3));
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(tr.size(), 1u);
}

TEST(Histogram, P999TracksTail) {
  Histogram h;
  for (int i = 0; i < 999; ++i) h.sample(10);
  h.sample(1'000'000);
  // Log buckets bound the relative error by 2x: p50 lands in [8, 16).
  EXPECT_GE(h.percentile(50.0), 8.0);
  EXPECT_LT(h.percentile(50.0), 16.0);
  EXPECT_GE(h.p999(), h.p99());
  // The single outlier lives in the top bucket; p999 must reach into it.
  EXPECT_GT(h.p999(), 10.0);

  Histogram one;
  one.sample(700);
  EXPECT_DOUBLE_EQ(one.p999(), 700.0);
}

TEST(StatRegistry, MergeDisjointBucketHistograms) {
  // Two registries whose histograms populate disjoint bucket ranges: the
  // merge must preserve total count, global min/max, and place the median
  // between the clusters.
  StatRegistry a;
  StatRegistry b;
  for (int i = 0; i < 100; ++i) a.histogram("lat").sample(8);
  for (int i = 0; i < 100; ++i) b.histogram("lat").sample(1 << 20);
  a.merge(b);
  const Histogram& h = a.histogram("lat");
  EXPECT_EQ(h.count(), 200);
  EXPECT_EQ(h.min(), 8);
  EXPECT_EQ(h.max(), 1 << 20);
  EXPECT_GE(h.p50(), 8.0);
  EXPECT_LE(h.p50(), static_cast<double>(1 << 20));
  EXPECT_GT(h.p999(), h.p50());
  // Merging into a registry that never saw the name copies it wholesale.
  StatRegistry c;
  c.merge(a);
  EXPECT_EQ(c.histogram("lat").count(), 200);
}

}  // namespace
