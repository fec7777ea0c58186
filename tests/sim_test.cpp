// Unit tests for the simulation kernel: time, clocks, stats, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/clock.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rtr::sim {
namespace {

TEST(SimTime, UnitsConvert) {
  EXPECT_EQ(SimTime::from_ns(1).ps(), 1000);
  EXPECT_EQ(SimTime::from_us(1).ps(), 1'000'000);
  EXPECT_EQ(SimTime::from_ms(2).ps(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::from_ns(1500).us(), 1.5);
}

TEST(SimTime, Arithmetic) {
  SimTime t = SimTime::from_ns(10);
  t += SimTime::from_ns(5);
  EXPECT_EQ(t, SimTime::from_ns(15));
  EXPECT_EQ(t - SimTime::from_ns(5), SimTime::from_ns(10));
  EXPECT_EQ(3 * SimTime::from_ns(4), SimTime::from_ns(12));
  EXPECT_LT(SimTime::from_ns(1), SimTime::from_ns(2));
  EXPECT_LT(SimTime::from_ms(100), SimTime::infinity());
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::from_ps(500).to_string(), "500 ps");
  EXPECT_EQ(SimTime::from_ns(2).to_string(), "2.000 ns");
  EXPECT_EQ(SimTime::from_us(3).to_string(), "3.000 us");
  EXPECT_EQ(SimTime::infinity().to_string(), "inf");
}

TEST(Frequency, PeriodsOfModelledClocks) {
  // All clock rates used by the two systems divide 1 THz exactly.
  EXPECT_EQ(Frequency::from_mhz(50).period().ps(), 20'000);
  EXPECT_EQ(Frequency::from_mhz(100).period().ps(), 10'000);
  EXPECT_EQ(Frequency::from_mhz(200).period().ps(), 5'000);
  EXPECT_EQ(Frequency::from_mhz(300).period().ps(), 3'333);  // floor
}

TEST(Clock, CyclesAndEdges) {
  Clock opb{"opb", Frequency::from_mhz(50)};
  EXPECT_EQ(opb.cycles(3), SimTime::from_ns(60));
  EXPECT_EQ(opb.cycles_at(SimTime::from_ns(59)), 2);
  EXPECT_EQ(opb.cycles_at(SimTime::from_ns(60)), 3);
  // next_edge aligns up; already-aligned times are fixed points.
  EXPECT_EQ(opb.next_edge(SimTime::from_ns(60)), SimTime::from_ns(60));
  EXPECT_EQ(opb.next_edge(SimTime::from_ns(61)), SimTime::from_ns(80));
  EXPECT_EQ(opb.edge_after(SimTime::from_ns(60)), SimTime::from_ns(80));
  EXPECT_EQ(opb.after_cycles(SimTime::from_ns(61), 2), SimTime::from_ns(120));
}

TEST(Clock, CrossDomainAlignment) {
  Clock cpu{"cpu", Frequency::from_mhz(200)};
  Clock bus{"bus", Frequency::from_mhz(50)};
  // A CPU operation ending mid-bus-cycle must wait for the next bus edge.
  const SimTime t = cpu.cycles(3);  // 15 ns
  EXPECT_EQ(bus.next_edge(t), SimTime::from_ns(20));
}

TEST(Stats, CounterAndAccumulator) {
  StatRegistry reg;
  reg.counter("bus.beats").add(5);
  reg.counter("bus.beats").add();
  EXPECT_EQ(reg.counter("bus.beats").value(), 6);

  auto& acc = reg.accumulator("xfer.us");
  acc.sample(1.0);
  acc.sample(3.0);
  EXPECT_EQ(acc.count(), 2);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);

  reg.reset_all();
  EXPECT_EQ(reg.counter("bus.beats").value(), 0);
  EXPECT_EQ(reg.accumulator("xfer.us").count(), 0);
}

TEST(Stats, AccumulatorMergeMatchesOneCombinedStream) {
  // Chan parallel-Welford: merging two partial accumulators must equal one
  // accumulator that saw every sample (up to floating-point rounding).
  Accumulator a, b, all;
  for (int i = 0; i < 40; ++i) {
    const double v = static_cast<double>((i * 37) % 11) + 0.25;
    (i % 2 ? a : b).sample(v);
    all.sample(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);

  // Merging into/from an empty accumulator is the identity.
  Accumulator empty;
  empty.merge(a);
  EXPECT_EQ(empty.count(), a.count());
  a.merge(Accumulator{});
  EXPECT_EQ(empty.count(), a.count());
}

TEST(Stats, HistogramMergeIsExact) {
  Histogram a, b, all;
  for (std::int64_t v : {1, 5, 900, 12, 7, 100000, 3}) {
    a.sample(v);
    all.sample(v);
  }
  for (std::int64_t v : {2, 64, 4096}) {
    b.sample(v);
    all.sample(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.p50(), all.p50());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

TEST(Stats, HistogramAddRepeatEqualsRepeatedSamples) {
  // m repeats of the samples added since a snapshot are exactly m more
  // rounds of those samples: buckets, count, sum, extremes, percentiles.
  for (const std::int64_t m : {0, 1, 7, 25000}) {
    Histogram bulk, replay;
    for (std::int64_t v : {3, 800, 120000}) {
      bulk.sample(v);
      replay.sample(v);
    }
    const Histogram since = bulk;
    for (std::int64_t v : {40000, 30000, 95}) bulk.sample(v);
    bulk.add_repeat(since, m);
    for (std::int64_t round = 0; round <= m; ++round) {
      for (std::int64_t v : {40000, 30000, 95}) replay.sample(v);
    }
    EXPECT_EQ(bulk.count(), replay.count()) << m;
    EXPECT_EQ(bulk.sum(), replay.sum()) << m;
    EXPECT_EQ(bulk.min(), replay.min()) << m;
    EXPECT_EQ(bulk.max(), replay.max()) << m;
    for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
      EXPECT_EQ(bulk.percentile(p), replay.percentile(p)) << m << " p" << p;
    }
  }
}

TEST(Stats, RegistryMergeFoldsByName) {
  // The aggregation primitive of the multi-scenario CLI runners: counters
  // and busy times add, histograms/accumulators merge, and stats that only
  // exist in the source registry are created.
  StatRegistry a, b;
  a.counter("serve.hw").add(3);
  b.counter("serve.hw").add(4);
  b.counter("serve.shed").add(1);  // absent in `a`
  a.histogram("serve.latency_ps").sample(100);
  b.histogram("serve.latency_ps").sample(300);
  a.busy("ICAP").add(SimTime::from_ns(0), SimTime::from_ns(10));
  b.busy("ICAP").add(SimTime::from_ns(0), SimTime::from_ns(5));
  b.accumulator("x").sample(2.0);

  a.merge(b);
  EXPECT_EQ(a.counter("serve.hw").value(), 7);
  EXPECT_EQ(a.counter("serve.shed").value(), 1);
  EXPECT_EQ(a.histogram("serve.latency_ps").count(), 2);
  EXPECT_EQ(a.histogram("serve.latency_ps").sum(), 400);
  EXPECT_EQ(a.busy("ICAP").total(), SimTime::from_ns(15));
  EXPECT_EQ(a.accumulator("x").count(), 1);
}

TEST(Stats, BusyTimeSumsIntervals) {
  BusyTime b;
  b.add(SimTime::from_ns(0), SimTime::from_ns(30));
  b.add(SimTime::from_ns(50), SimTime::from_ns(70));
  b.add(SimTime::from_ns(90), SimTime::from_ns(90));  // zero-length ignored
  EXPECT_EQ(b.total(), SimTime::from_ns(50));
}

TEST(Simulation, ClockRegistry) {
  Simulation s;
  Clock& c1 = s.add_clock("opb", Frequency::from_mhz(50));
  Clock& c2 = s.add_clock("opb", Frequency::from_mhz(50));  // idempotent
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c1.period(), SimTime::from_ns(20));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundsRespected) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng r{99};
  int buckets[8] = {};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++buckets[r.below(8)];
  for (int b : buckets) {
    EXPECT_GT(b, n / 8 - n / 80);
    EXPECT_LT(b, n / 8 + n / 80);
  }
}

TEST(ParallelFor, RunsEveryIndexOnceAtAnyJobCount) {
  for (const int jobs : {0, 1, 3, 64}) {
    std::vector<int> hits(100, 0);
    parallel_for(hits.size(), jobs, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 100) << jobs;
  }
  parallel_for(0, 4, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ParallelFor, RethrowsAfterEveryThreadJoined) {
  EXPECT_THROW(parallel_for(1000, 4,
                            [](std::size_t i) {
                              if (i == 10) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(WorkerPool, EveryRoundRunsEveryIndexOnce) {
  for (const int jobs : {1, 3, 8}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{13}}) {
      SCOPED_TRACE(testing::Message() << "jobs " << jobs << ", n " << n);
      WorkerPool pool(jobs, n);
      EXPECT_EQ(pool.threads(),
                std::min(n, static_cast<std::size_t>(jobs)));
      // Reversed order on odd rounds: any order hands out every index.
      std::vector<std::size_t> reversed(n);
      for (std::size_t i = 0; i < n; ++i) reversed[i] = n - 1 - i;
      std::vector<int> hits(n, 0);
      for (int round = 1; round <= 1000; ++round) {
        const auto hit = [&](std::size_t i) { ++hits[i]; };
        if (round % 2 == 0) {
          pool.run(n, hit);
        } else {
          pool.run(reversed, hit);
        }
        ASSERT_EQ(std::count(hits.begin(), hits.end(), round),
                  static_cast<std::ptrdiff_t>(n))
            << "round " << round;
      }
    }
  }
}

TEST(WorkerPool, OneJobCallsInTheGivenOrder) {
  WorkerPool pool(1, 5);
  const std::vector<std::size_t> order = {3, 1, 4, 0, 2};
  std::vector<std::size_t> calls;
  pool.run(order, [&](std::size_t i) { calls.push_back(i); });
  EXPECT_EQ(calls, order);
}

TEST(WorkerPool, ThrowingRoundRethrowsAndTheNextRoundRunsEveryIndex) {
  WorkerPool pool(4, 100);
  EXPECT_THROW(pool.run(100,
                        [](std::size_t i) {
                          if (i == 10) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  std::vector<int> hits(100, 0);
  pool.run(100, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 100);
}

TEST(WorkerPool, NeverRunPoolIsDestroyedCleanly) {
  for (const int jobs : {0, 1, 8}) {
    const WorkerPool pool(jobs, 8);
    EXPECT_EQ(pool.threads(), static_cast<std::size_t>(std::max(jobs, 1)));
  }
  const WorkerPool empty(4, 0);
  EXPECT_EQ(empty.threads(), 1u);
}

}  // namespace
}  // namespace rtr::sim
