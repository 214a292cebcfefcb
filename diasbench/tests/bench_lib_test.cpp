// Tests for the benchmark harness's own helpers. Build and run with
//   python3 diasbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bench_lib.hpp"
#include "harness.hpp"

namespace diasbench {
namespace {

TEST(SupportedPercentileTest, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(1000), 99.0);  // 10 beyond p99
  EXPECT_EQ(supported_percentile(999), 95.0);   // 9.99 beyond p99
  EXPECT_EQ(supported_percentile(200), 95.0);   // exactly 10 beyond p95
  EXPECT_EQ(supported_percentile(199), 90.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
  EXPECT_EQ(supported_percentile(99), 75.0);
  EXPECT_EQ(supported_percentile(40), 75.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(19), 0.0);
  EXPECT_EQ(supported_percentile(0), 0.0);
  EXPECT_EQ(supported_percentile(100, 5), 95.0);
}

TEST(PercentileTest, LinearInterpolationOnUnsortedInput) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({3.0}, 95), 3.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2, 5}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 95), 9.5);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 100), 10.0);
}

TEST(ProcStatTest, ParsesAggregateCpuLineWithSteal) {
  const char* text =
      "cpu  163365 10 20805 430894 3957 1 2516 8597 0 0\n"
      "cpu0 35119 0 4732 113246 1553 0 1437 2546 0 0\n"
      "intr 12345\n";
  const auto t = parse_proc_stat(text);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->user, 163365u);
  EXPECT_EQ(t->nice, 10u);
  EXPECT_EQ(t->idle, 430894u);
  EXPECT_EQ(t->steal, 8597u);
  EXPECT_EQ(t->total(), 163365u + 10 + 20805 + 430894 + 3957 + 1 + 2516 + 8597);
}

TEST(ProcStatTest, OldKernelsWithoutStealAndMalformedInput) {
  const auto old = parse_proc_stat("cpu  10 0 5 100\n");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->steal, 0u);
  EXPECT_EQ(old->total(), 115u);
  EXPECT_FALSE(parse_proc_stat("cpu0 1 2 3 4\n").has_value());  // no aggregate line
  EXPECT_FALSE(parse_proc_stat("cpu  1 2\n").has_value());
  EXPECT_FALSE(parse_proc_stat("").has_value());
}

TEST(ProcStatTest, StealShareOfElapsedTicks) {
  CpuTimes a;
  a.user = 100;
  a.idle = 800;
  a.steal = 100;
  CpuTimes b = a;
  b.user += 300;
  b.idle += 600;
  b.steal += 100;
  EXPECT_DOUBLE_EQ(steal_pct(a, b), 10.0);
  EXPECT_EQ(steal_pct(a, a), 0.0);  // no time elapsed
  EXPECT_EQ(steal_pct(b, a), 0.0);  // counters went backwards
}

TEST(DueTimeTest, ResponseCountsFromDueAndLatenessNeverNegative) {
  DueStamp late{1.0, 1.25, 2.0};
  EXPECT_DOUBLE_EQ(response_from_due(late), 1.0);  // includes the 0.25 s the generator lost
  EXPECT_DOUBLE_EQ(generator_lateness(late), 0.25);
  DueStamp early{1.0, 0.999, 1.5};
  EXPECT_EQ(generator_lateness(early), 0.0);
  EXPECT_DOUBLE_EQ(response_from_due(early), 0.5);
}

TEST(DueTimeTest, ClockOffsetIntersectsBrackets) {
  // B clock = A clock - 10. Events in B at 1 and 2 were seen inside A
  // intervals [10.9, 11.1] and [11.95, 12.2].
  double half = 0.0;
  const auto off = clock_offset({{10.9, 11.1, 1.0}, {11.95, 12.2, 2.0}}, &half);
  ASSERT_TRUE(off.has_value());
  EXPECT_NEAR(*off, 10.025, 1e-12);  // feasible [9.95, 10.1]
  EXPECT_NEAR(half, 0.075, 1e-12);
  EXPECT_FALSE(clock_offset({{0.0, 1.0, 0.0}, {5.0, 6.0, 0.0}}).has_value());
  EXPECT_FALSE(clock_offset({}).has_value());
}

TEST(SpanTest, UnionCountsOverlapOnceAndClips) {
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}}, 1.5, 5.5), 2.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 1}, {1, 2}}, 0, 10), 2.0);  // touching
  EXPECT_DOUBLE_EQ(union_length({{3, 2}}, 0, 10), 0.0);          // inverted
  EXPECT_DOUBLE_EQ(union_length({}, 0, 10), 0.0);
}

TEST(SpanTest, SelfTimesOfNestedAndConcurrentChildren) {
  // job [0,10]: queue [0,2], body [2,9]; body has two concurrent storage
  // children [3,5] and [4,6] and one stage [6,8].
  std::vector<Span> spans{{1, 0, 1, "job", 0, 10},     {2, 1, 1, "queue", 0, 2},
                          {3, 1, 1, "body", 2, 9},     {4, 3, 1, "storage", 3, 5},
                          {5, 3, 1, "storage", 4, 6},  {6, 3, 1, "stage", 6, 8}};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 1.0);  // [9,10] uncovered
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);  // 7 - union(3..6, 6..8) = 7 - 5
  EXPECT_DOUBLE_EQ(self[3], 2.0);
  EXPECT_DOUBLE_EQ(self[5], 2.0);
}

TEST(SpanTest, ChildOutsideParentIsClipped) {
  std::vector<Span> spans{{1, 0, 1, "a", 0, 4}, {2, 1, 1, "b", 3, 6}};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
}

TEST(ScheduleTest, StratifiedBlocksKeepMixAndRate) {
  ScheduleSpec spec;
  spec.rate_per_s = 20.0;
  spec.seconds = 30.0;
  spec.block_classes = {1, 1, 0, 0, 0};
  spec.tenants = 32;
  const auto a = stratified_schedule(spec, 7);
  ASSERT_EQ(a.size(), 600u);
  std::size_t high = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) EXPECT_GT(a[i].due_s, a[i - 1].due_s);
    if (a[i].cls == 1) ++high;
    EXPECT_EQ(a[i].tenant, 1 + i % 32);
  }
  EXPECT_EQ(high, 240u);
  // Every block of five spans exactly 5 / rate, so the rate is exact.
  EXPECT_NEAR(a[4].due_s, 0.25, 1e-12);
  EXPECT_NEAR(a[9].due_s, 0.5, 1e-12);
  EXPECT_NEAR(a.back().due_s, 30.0, 1e-9);
  // Within a block the gaps are the scaled quantile gaps, in seeded order.
  std::vector<double> gaps;
  for (int i = 0; i < 5; ++i) gaps.push_back(a[i].due_s - (i == 0 ? 0.0 : a[i - 1].due_s));
  std::sort(gaps.begin(), gaps.end());
  double sum = 0.0;
  for (int i = 0; i < 5; ++i) sum += -std::log(1.0 - (i + 0.5) / 5.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(gaps[i], -std::log(1.0 - (i + 0.5) / 5.0) * 0.25 / sum, 1e-12);
  }
}

TEST(ScheduleTest, SameSeedSameScheduleOtherSeedDiffers) {
  ScheduleSpec spec;
  spec.rate_per_s = 10.0;
  spec.seconds = 5.0;
  spec.block_classes = {1, 0, 0};
  const auto a = stratified_schedule(spec, 3);
  const auto b = stratified_schedule(spec, 3);
  const auto c = stratified_schedule(spec, 4);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].cls, b[i].cls);
    differs = differs || a[i].due_s != c[i].due_s || a[i].cls != c[i].cls;
  }
  EXPECT_TRUE(differs);
}

TEST(ScheduleTest, ThinkTimesArePureFunctionsOfSeedClientRound) {
  const double t = think_time(9, 1, 4, 0.002, 0.006);
  EXPECT_EQ(t, think_time(9, 1, 4, 0.002, 0.006));
  EXPECT_GE(t, 0.002);
  EXPECT_LT(t, 0.006);
  EXPECT_NE(t, think_time(9, 2, 4, 0.002, 0.006));
  EXPECT_NE(t, think_time(9, 1, 5, 0.002, 0.006));
  EXPECT_NE(t, think_time(10, 1, 4, 0.002, 0.006));
}

TEST(WorkloadPlanTest, SameSeedSameArrivalsThetaAndTk) {
  for (const char* name : {"wc_priority_open", "wc_tenants_ft_obs", "pagerank_spill_closed"}) {
    Options opt;
    opt.workload = name;
    opt.seconds = 20;
    opt.seed = 11;
    const Plan a = plan_workload(opt);
    const Plan b = plan_workload(opt);
    ASSERT_EQ(a.theta.size(), 2u) << name;
    EXPECT_EQ(a.theta, b.theta) << name;
    EXPECT_EQ(a.sprint_timeout, b.sprint_timeout) << name;
    EXPECT_EQ(a.theta[kHigh], 0.0) << name;
    EXPECT_GT(a.theta[kLow], 0.0) << name;
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size()) << name;
    for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
      EXPECT_EQ(a.arrivals[i].due_s, b.arrivals[i].due_s);
      EXPECT_EQ(a.arrivals[i].cls, b.arrivals[i].cls);
      EXPECT_EQ(a.arrivals[i].tenant, b.arrivals[i].tenant);
    }
    EXPECT_EQ(a.closed_loop, a.arrivals.empty()) << name;
  }
  Options opt;
  opt.workload = "wc_priority_open";
  opt.seconds = 20;
  opt.seed = 11;
  const Plan a = plan_workload(opt);
  EXPECT_TRUE(std::isfinite(a.sprint_timeout[kHigh]));  // only the high class sprints
  EXPECT_FALSE(std::isfinite(a.sprint_timeout[kLow]));
  opt.seed = 12;
  const Plan c = plan_workload(opt);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.arrivals.size(), c.arrivals.size()); ++i) {
    differs = differs || a.arrivals[i].due_s != c.arrivals[i].due_s;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace diasbench
