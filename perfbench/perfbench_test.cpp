// Tests of the benchmark's own arithmetic: the open-loop arrival
// schedule is a pure function of the seed, and span self time is the
// duration minus the union of the children's intervals.
#include <gtest/gtest.h>

#include "bench.hpp"
#include "spans.hpp"

namespace pb {
namespace {

TEST(PoissonSchedule, SameSeedGivesIdenticalSchedule) {
  const auto a = poisson_schedule(42, 200'000.0, 10'000);
  const auto b = poisson_schedule(42, 200'000.0, 10'000);
  EXPECT_EQ(a, b);
}

TEST(PoissonSchedule, OtherSeedGivesOtherSchedule) {
  EXPECT_NE(poisson_schedule(42, 200'000.0, 10'000),
            poisson_schedule(43, 200'000.0, 10'000));
  EXPECT_NE(poisson_schedule(derive_seed(7, 0), 200'000.0, 1000),
            poisson_schedule(derive_seed(7, 1), 200'000.0, 1000));
}

TEST(PoissonSchedule, NondecreasingAtTheRequestedRate) {
  const auto at = poisson_schedule(5, 200'000.0, 200'000);
  for (std::size_t i = 1; i < at.size(); ++i) ASSERT_LE(at[i - 1], at[i]);
  // 200k arrivals at 200k/s span about one second (Poisson: +-1%).
  EXPECT_NEAR(static_cast<double>(at.back()), 1e9, 2e7);
}

TEST(SelfTime, HandBuiltTree) {
  // root [0,100): children a [10,30) and b [20,50) overlap on [20,30),
  // so they cover [10,50) = 40 and root self = 60. a has a child c
  // [15,25) (self of a = 20 - 10 = 10). b has a child d [45,70) that
  // leaves b's interval: only [45,50) counts against b (self of b =
  // 30 - 5 = 25), and d's own self is 25.
  SpanRecorder r;
  const auto root = r.add("root", kNoSpan, 0, 0, 100);
  const auto a = r.add("a", root, 0, 10, 30);
  const auto b = r.add("b", root, 0, 20, 50);
  r.add("c", a, 0, 15, 25);
  r.add("d", b, 0, 45, 70);
  const auto self = self_times(r.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[root], 60u);
  EXPECT_EQ(self[a], 10u);
  EXPECT_EQ(self[b], 25u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 25u);

  const auto by_name = totals_by_name(r.spans());
  EXPECT_EQ(by_name.at("root").total_ns, 100u);
  EXPECT_EQ(by_name.at("root").self_ns, 60u);
}

TEST(SelfTime, AbsorbRebasesParents) {
  SpanRecorder main_thread, worker;
  main_thread.add("x", kNoSpan, 0, 0, 10);
  const auto root = worker.add("root", kNoSpan, 1, 0, 50);
  worker.add("leaf", root, 1, 0, 50);
  main_thread.absorb(worker);
  ASSERT_EQ(main_thread.spans().size(), 3u);
  EXPECT_EQ(main_thread.spans()[2].parent, 1u);
  EXPECT_EQ(self_times(main_thread.spans())[1], 0u);
}

TEST(SpanRecorder, AbsorbRespectsTheCap) {
  SpanRecorder main_thread(2), worker;
  const auto root = worker.add("root", kNoSpan, 0, 0, 10);
  const auto a = worker.add("a", root, 0, 1, 5);
  worker.add("a.child", a, 0, 2, 3);
  worker.add("b", root, 0, 6, 9);
  main_thread.absorb(worker);
  // root and a fit; a.child and b are dropped.
  ASSERT_EQ(main_thread.spans().size(), 2u);
  EXPECT_EQ(main_thread.dropped(), 2u);
  EXPECT_EQ(main_thread.spans()[1].parent, 0u);
}

TEST(SpanRecorder, CapDropsChildrenButKeepsRoots) {
  SpanRecorder r(2);
  const auto root = r.add("root", kNoSpan, 0, 0, 10);
  r.add("a", root, 0, 1, 2);
  EXPECT_EQ(r.add("b", root, 0, 3, 4), kNoSpan);
  EXPECT_NE(r.add("root2", kNoSpan, 1, 0, 10), kNoSpan);
  EXPECT_EQ(r.dropped(), 1u);
}

TEST(LatencyStats, WindowedP99IsTheLowerDecileOfWindows) {
  LatencyStats s(100);
  // Ten windows of 100 samples 1..100 us. Windows 1..9 end in a burst
  // of 10 at (1 + w) ms, so their p99s are (1 + w) ms; window 0 is
  // quiet, with p99 99 us. The lower decile of the ten is window 0's.
  for (int w = 0; w < 10; ++w) {
    for (int i = 1; i <= 100; ++i) {
      s.add(static_cast<std::uint64_t>(
          (w > 0 && i > 90) ? (1 + w) * 1'000'000 : i * 1000));
    }
  }
  EXPECT_DOUBLE_EQ(s.p99_us(), 99.0);
  EXPECT_DOUBLE_EQ(s.p50_us(), 50.0);  // Over all 1000 samples.
  EXPECT_DOUBLE_EQ(s.median_window_p99_us(), 5000.0);
  EXPECT_EQ(s.windows(), 10u);
  EXPECT_DOUBLE_EQ(s.max_us(), 10000.0);
}

TEST(QuietLevel, TimesTakeTheLowerAndRatesTheUpperDecile) {
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);  // Order must not matter.
  EXPECT_DOUBLE_EQ(quiet_time(v), 2.0);
  EXPECT_DOUBLE_EQ(quiet_rate(v), 18.0);
  EXPECT_DOUBLE_EQ(quiet_time({}), 0.0);
}

TEST(LatencyStats, QuantilesAreExactBelow65usAndWithinATenthOfAPercentAbove) {
  LatencyStats s(1000);
  // 1..100 ns and 100 values from 1 ms up: p50 is the 100th sample.
  for (std::uint64_t v = 1; v <= 100; ++v) s.add(v);
  for (std::uint64_t v = 1; v <= 100; ++v) s.add(1'000'000 + v * 1000);
  EXPECT_DOUBLE_EQ(s.quantile_us(0.50), 0.100);
  EXPECT_NEAR(s.quantile_us(0.504), 1001.0, 1.001);
  EXPECT_NEAR(s.quantile_us(0.75), 1050.0, 1.050);
  EXPECT_LE(s.quantile_us(0.75), 1050.0);
  EXPECT_DOUBLE_EQ(s.quantile_us(1.0), 1100.0);  // The last rank: the max.
  EXPECT_EQ(s.count(), 200u);
}

TEST(LatencyStats, BucketEdgesAboveTheExactRange) {
  LatencyStats s(1000);
  s.add(65'535);         // Last exact nanosecond.
  s.add(65'536);         // First bucket: exact at its floor.
  s.add(3'000'000'000);  // 3 s: 1/1024-octave bucket.
  EXPECT_DOUBLE_EQ(s.quantile_us(0.3), 65.535);
  EXPECT_DOUBLE_EQ(s.quantile_us(0.6), 65.536);
  EXPECT_LE(s.quantile_us(1.0), 3'000'000.0);
  EXPECT_GE(s.quantile_us(1.0), 3'000'000.0 * (1.0 - 1.0 / 1024));
}

}  // namespace
}  // namespace pb
