#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/error.hpp"

namespace dias::engine {
namespace {

Engine::Options opts(double drop = 0.0) {
  Engine::Options o;
  o.workers = 4;
  o.seed = 42;
  o.drop_ratio = drop;
  return o;
}

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(FindMissingPartitionsTest, KeepsCeilFraction) {
  Rng rng(1);
  EXPECT_EQ(find_missing_partitions(50, 0.0, rng).size(), 50u);
  EXPECT_EQ(find_missing_partitions(50, 0.1, rng).size(), 45u);
  EXPECT_EQ(find_missing_partitions(50, 0.2, rng).size(), 40u);
  EXPECT_EQ(find_missing_partitions(10, 0.15, rng).size(), 9u);  // ceil(8.5)
  EXPECT_EQ(find_missing_partitions(10, 1.0, rng).size(), 0u);
  EXPECT_EQ(find_missing_partitions(1, 0.9, rng).size(), 1u);    // ceil(0.1)
}

TEST(FindMissingPartitionsTest, ReturnsSortedUniqueValidIndices) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto sel = find_missing_partitions(30, 0.4, rng);
    std::set<std::size_t> unique(sel.begin(), sel.end());
    EXPECT_EQ(unique.size(), sel.size());
    EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
    for (auto i : sel) EXPECT_LT(i, 30u);
  }
}

// Property sweep: for every (n, theta) the selection has exactly
// ceil(n (1 - theta)) elements, sorted, unique, in range — and is a pure
// function of the generator state (same seed, same answer).
TEST(FindMissingPartitionsTest, PropertySweepSizeSortedUniqueInRange) {
  const std::size_t sizes[] = {1, 2, 3, 7, 10, 64, 101};
  const double thetas[] = {0.0, 0.01, 0.25, 0.5, 0.77, 0.99};
  for (const std::size_t n : sizes) {
    for (const double theta : thetas) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " theta=" << theta);
      Rng rng(1234);
      const auto sel = find_missing_partitions(n, theta, rng);
      const auto expected = static_cast<std::size_t>(
          std::ceil(static_cast<double>(n) * (1.0 - theta) - 1e-12));
      EXPECT_EQ(sel.size(), expected);
      EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
      EXPECT_EQ(std::set<std::size_t>(sel.begin(), sel.end()).size(), sel.size());
      for (const auto i : sel) EXPECT_LT(i, n);
    }
  }
}

TEST(FindMissingPartitionsTest, EdgeCases) {
  Rng rng(5);
  // A single partition survives any theta < 1: ceil(1 * (1 - theta)) = 1.
  EXPECT_EQ(find_missing_partitions(1, 0.0, rng), std::vector<std::size_t>{0});
  EXPECT_EQ(find_missing_partitions(1, 0.9999, rng), std::vector<std::size_t>{0});
  // theta -> 1^-: one task always remains, only theta == 1 drops them all.
  EXPECT_EQ(find_missing_partitions(10, 0.9999, rng).size(), 1u);
  EXPECT_EQ(find_missing_partitions(10, 1.0, rng).size(), 0u);
  // theta = 0 is the identity selection.
  std::vector<std::size_t> all(25);
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_EQ(find_missing_partitions(25, 0.0, rng), all);
}

TEST(FindMissingPartitionsTest, DeterministicPerSeed) {
  for (const std::uint64_t seed : {1ULL, 99ULL, 12345ULL}) {
    Rng a(seed), b(seed);
    EXPECT_EQ(find_missing_partitions(60, 0.35, a), find_missing_partitions(60, 0.35, b));
  }
  Rng a(1), b(2);
  EXPECT_NE(find_missing_partitions(100, 0.5, a), find_missing_partitions(100, 0.5, b));
}

TEST(FindMissingPartitionsTest, SelectionIsRandomized) {
  Rng rng(11);
  const auto a = find_missing_partitions(100, 0.5, rng);
  const auto b = find_missing_partitions(100, 0.5, rng);
  EXPECT_NE(a, b);  // overwhelmingly likely
}

TEST(EngineTest, ParallelizeSplitsEvenly) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(10), 3);
  EXPECT_EQ(ds.partitions(), 3u);
  EXPECT_EQ(ds.total_size(), 10u);
  // Balanced split: partition sizes 3/3/4 or similar (within 1).
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_GE(ds.partition(p).size(), 3u);
    EXPECT_LE(ds.partition(p).size(), 4u);
  }
  EXPECT_EQ(ds.collect(), iota_vec(10));
}

TEST(EngineTest, MapPreservesPartitioning) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(20), 5);
  const auto doubled = eng.map(ds, [](const int& x) { return x * 2; });
  EXPECT_EQ(doubled.partitions(), 5u);
  const auto all = doubled.collect();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], 2 * i);
}

TEST(EngineTest, FlatMapExpands) {
  Engine eng(opts());
  const auto ds = eng.parallelize(std::vector<int>{1, 2, 3}, 2);
  const auto out = eng.flat_map(ds, [](const int& x) {
    return std::vector<int>(static_cast<std::size_t>(x), x);
  });
  EXPECT_EQ(out.total_size(), 6u);  // 1 + 2 + 3
}

TEST(EngineTest, FilterKeepsMatching) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(100), 4);
  const auto evens = eng.filter(ds, [](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.total_size(), 50u);
}

TEST(EngineTest, ReduceByKeyAggregates) {
  Engine eng(opts());
  std::vector<std::pair<std::string, int>> data;
  for (int i = 0; i < 30; ++i) data.emplace_back(i % 3 == 0 ? "a" : "b", 1);
  const auto ds = eng.parallelize(std::move(data), 4);
  const auto reduced = eng.reduce_by_key(ds, [](int a, int b) { return a + b; }, 3);
  int a_count = 0, b_count = 0;
  for (const auto& [k, v] : reduced.collect()) {
    if (k == "a") a_count = v;
    if (k == "b") b_count = v;
  }
  EXPECT_EQ(a_count, 10);
  EXPECT_EQ(b_count, 20);
}

TEST(EngineTest, AggregateSums) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(101), 7);
  const int total = eng.aggregate(ds, 0, [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 5050);
  EXPECT_EQ(eng.count(ds), 101u);
}

TEST(EngineTest, DropLeavesEmptyPartitions) {
  Engine eng(opts(0.5));
  const auto ds = eng.parallelize(iota_vec(100), 10);
  StageOptions so;
  so.name = "droppable";
  so.droppable = true;
  const auto out = eng.map(ds, [](const int& x) { return x; }, so);
  EXPECT_EQ(out.partitions(), 10u);  // partition count stable
  std::size_t non_empty = 0;
  for (std::size_t p = 0; p < out.partitions(); ++p) {
    if (!out.partition(p).empty()) ++non_empty;
  }
  EXPECT_EQ(non_empty, 5u);
  EXPECT_EQ(out.total_size(), 50u);
}

TEST(EngineTest, NonDroppableStageIgnoresDropRatio) {
  Engine eng(opts(0.9));
  const auto ds = eng.parallelize(iota_vec(100), 10);
  StageOptions so;
  so.droppable = false;
  const auto out = eng.map(ds, [](const int& x) { return x; }, so);
  EXPECT_EQ(out.total_size(), 100u);
}

TEST(EngineTest, DropOverridePerStage) {
  Engine eng(opts(0.0));
  const auto ds = eng.parallelize(iota_vec(100), 10);
  StageOptions so;
  so.droppable = true;
  so.drop_ratio_override = 0.3;
  const auto out = eng.map(ds, [](const int& x) { return x; }, so);
  EXPECT_EQ(out.total_size(), 70u);
}

TEST(EngineTest, StageLogRecordsExecution) {
  Engine eng(opts(0.2));
  const auto ds = eng.parallelize(iota_vec(100), 10);
  eng.clear_stage_log();
  StageOptions so;
  so.name = "logged-map";
  so.droppable = true;
  eng.map(ds, [](const int& x) { return x; }, so);
  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.name, "logged-map");
  EXPECT_EQ(info.total_partitions, 10u);
  EXPECT_EQ(info.executed_partitions, 8u);
  EXPECT_DOUBLE_EQ(info.applied_drop_ratio, 0.2);
  EXPECT_EQ(info.task_times_s.size(), 8u);
  EXPECT_GE(info.duration_s, 0.0);
  EXPECT_GE(eng.logged_duration(), info.duration_s);
}

TEST(EngineTest, ReduceByKeyLogsShuffleAndReduceStages) {
  Engine eng(opts());
  std::vector<std::pair<int, int>> data{{1, 1}, {2, 1}, {1, 1}};
  const auto ds = eng.parallelize(std::move(data), 2);
  eng.clear_stage_log();
  eng.reduce_by_key(ds, [](int a, int b) { return a + b; }, 2);
  ASSERT_EQ(eng.stage_log().size(), 2u);
  EXPECT_EQ(eng.stage_log()[0].kind, EngineStageKind::kShuffleWrite);
  EXPECT_EQ(eng.stage_log()[1].kind, EngineStageKind::kReduce);
}

TEST(EngineTest, SetDropRatioValidation) {
  Engine eng(opts());
  EXPECT_THROW(eng.set_drop_ratio(1.1), dias::precondition_error);
  EXPECT_THROW(eng.set_drop_ratio(-0.1), dias::precondition_error);
  eng.set_drop_ratio(0.5);
  EXPECT_DOUBLE_EQ(eng.options().drop_ratio, 0.5);
  // theta == 1.0 is a valid (degenerate) drop ratio: every droppable task
  // is skipped, matching find_missing_partitions' [0,1] contract.
  eng.set_drop_ratio(1.0);
  EXPECT_DOUBLE_EQ(eng.options().drop_ratio, 1.0);
}

// Regression: Engine::Options / set_drop_ratio used to reject theta == 1.0
// while find_missing_partitions accepted the full [0,1] range. The whole
// pipeline now agrees on [0,1]: a theta == 1 droppable stage executes
// nothing and reports effective_drop_ratio == 1.
TEST(EngineTest, ThetaOneDropsEveryDroppableTask) {
  Engine eng(opts(1.0));
  const auto ds = eng.parallelize(iota_vec(1000), 10);
  StageOptions so;
  so.name = "all-dropped";
  so.droppable = true;
  const auto out = eng.map_partitions(
      ds, [](const std::vector<int>& part) { return std::vector<int>(part); }, so);
  EXPECT_EQ(out.total_size(), 0u);  // every partition dropped -> empty
  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.total_partitions, 10u);
  EXPECT_EQ(info.executed_partitions, 0u);
  EXPECT_DOUBLE_EQ(info.applied_drop_ratio, 1.0);
  EXPECT_DOUBLE_EQ(info.effective_drop_ratio, 1.0);

  // Non-droppable stages ignore the engine theta entirely.
  eng.clear_stage_log();
  StageOptions exact_so;
  exact_so.droppable = false;
  const auto exact = eng.map_partitions(
      ds, [](const std::vector<int>& part) { return std::vector<int>(part); }, exact_so);
  EXPECT_EQ(exact.total_size(), 1000u);
  EXPECT_DOUBLE_EQ(eng.stage_log().front().effective_drop_ratio, 0.0);

  // The per-stage override accepts the same degenerate value.
  eng.clear_stage_log();
  eng.set_drop_ratio(0.0);
  StageOptions ov;
  ov.droppable = true;
  ov.drop_ratio_override = 1.0;
  eng.map_partitions(
      ds, [](const std::vector<int>& part) { return std::vector<int>(part); }, ov);
  EXPECT_EQ(eng.stage_log().front().executed_partitions, 0u);
}

TEST(FindMissingPartitionsTest, KeepZeroAndEmptyInputBoundaries) {
  Rng rng(5);
  // keep == 0 only at exactly theta == 1 (ceil keeps one task otherwise).
  EXPECT_EQ(find_missing_partitions(1, 1.0, rng).size(), 0u);
  EXPECT_EQ(find_missing_partitions(64, 1.0, rng).size(), 0u);
  EXPECT_EQ(find_missing_partitions(64, 0.999, rng).size(), 1u);
  // n == 0 is empty for any theta, including the extremes.
  EXPECT_TRUE(find_missing_partitions(0, 0.0, rng).empty());
  EXPECT_TRUE(find_missing_partitions(0, 0.5, rng).empty());
  EXPECT_TRUE(find_missing_partitions(0, 1.0, rng).empty());
}

// An empty stage (a zero-partition dataset) must log a consistent
// StageInfo: nothing executed, nothing dropped, and effective_drop_ratio
// pinned to 0 (vacuously exact) regardless of the configured theta.
TEST(EngineTest, EmptyStageInfoIsConsistent) {
  Engine eng(opts(0.8));
  const Dataset<int> empty;  // zero partitions
  StageOptions so;
  so.name = "empty";
  so.droppable = true;
  const auto out = eng.map_partitions(
      empty, [](const std::vector<int>& part) { return std::vector<int>(part); }, so);
  EXPECT_EQ(out.partitions(), 0u);
  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.total_partitions, 0u);
  EXPECT_EQ(info.executed_partitions, 0u);
  EXPECT_DOUBLE_EQ(info.applied_drop_ratio, 0.8);
  EXPECT_DOUBLE_EQ(info.effective_drop_ratio, 0.0);
  EXPECT_TRUE(info.failed_partition_ids.empty());
}

TEST(EngineTest, SampleKeepsApproximateFraction) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(20000), 20);
  const auto sampled = eng.sample(ds, 0.3);
  EXPECT_EQ(sampled.partitions(), 20u);
  EXPECT_NEAR(static_cast<double>(sampled.total_size()), 6000.0, 300.0);
  // Degenerate fractions.
  EXPECT_EQ(eng.sample(ds, 0.0).total_size(), 0u);
  EXPECT_EQ(eng.sample(ds, 1.0).total_size(), 20000u);
  EXPECT_THROW(eng.sample(ds, 1.5), dias::precondition_error);
}

TEST(EngineTest, TwoStageSamplingComposes) {
  // ApproxHadoop-style: drop 20% of tasks AND sample 50% of records.
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(10000), 10);
  StageOptions drop_opts;
  drop_opts.droppable = true;
  drop_opts.drop_ratio_override = 0.2;
  const auto task_dropped = eng.map(ds, [](const int& x) { return x; }, drop_opts);
  const auto both = eng.sample(task_dropped, 0.5);
  EXPECT_NEAR(static_cast<double>(both.total_size()), 10000.0 * 0.8 * 0.5, 400.0);
}

TEST(EngineTest, DistinctRemovesDuplicatesAcrossPartitions) {
  Engine eng(opts());
  std::vector<int> data;
  for (int i = 0; i < 300; ++i) data.push_back(i % 17);
  const auto ds = eng.parallelize(std::move(data), 6);
  const auto unique = eng.distinct(ds, 4);
  EXPECT_EQ(unique.total_size(), 17u);
  std::set<int> seen;
  for (int x : unique.collect()) seen.insert(x);
  EXPECT_EQ(seen.size(), 17u);
}

TEST(EngineTest, UnionConcatenatesPartitions) {
  Engine eng(opts());
  const auto a = eng.parallelize(iota_vec(10), 2);
  const auto b = eng.parallelize(iota_vec(6), 3);
  const auto u = eng.union_datasets(a, b);
  EXPECT_EQ(u.partitions(), 5u);
  EXPECT_EQ(u.total_size(), 16u);
}

TEST(EngineTest, GroupByKeyGathersValues) {
  Engine eng(opts());
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 12; ++i) data.emplace_back(i % 3, i);
  const auto ds = eng.parallelize(std::move(data), 3);
  const auto grouped = eng.group_by_key(ds, 2);
  std::size_t total_values = 0;
  for (const auto& [k, vs] : grouped.collect()) {
    EXPECT_EQ(vs.size(), 4u) << "key " << k;
    total_values += vs.size();
  }
  EXPECT_EQ(total_values, 12u);
}

class DropSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DropSweepTest, ExecutedFractionMatchesTheta) {
  const double theta = GetParam();
  Engine eng(opts(theta));
  const auto ds = eng.parallelize(iota_vec(1000), 50);
  eng.clear_stage_log();
  StageOptions so;
  so.droppable = true;
  eng.map(ds, [](const int& x) { return x; }, so);
  const auto& info = eng.stage_log().front();
  const auto expected = static_cast<std::size_t>(
      std::ceil(50.0 * (1.0 - theta) - 1e-12));
  EXPECT_EQ(info.executed_partitions, expected);
}

INSTANTIATE_TEST_SUITE_P(Thetas, DropSweepTest,
                         ::testing::Values(0.0, 0.1, 0.2, 0.33, 0.4, 0.5, 0.66, 0.8, 0.9));

// --- cooperative cancellation (ISSUE 5) ------------------------------------

TEST(EngineCancelTest, PreCancelledTokenStopsStageAtEntry) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(100), 10);
  CancellationToken token;
  token.request_cancel();
  eng.set_cancellation(token);
  eng.clear_stage_log();
  std::atomic<int> ran{0};
  EXPECT_THROW(eng.map(ds, [&](const int& x) { ++ran; return x; }),
               JobCancelledError);
  EXPECT_EQ(ran.load(), 0) << "no task body may run after entry cancellation";
  EXPECT_TRUE(eng.stage_log().empty()) << "entry cancellation logs no stage";
}

TEST(EngineCancelTest, MidStageCancelAbandonsRemainingPartitions) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(400), 200);
  CancellationToken token;
  eng.set_cancellation(token);
  eng.clear_stage_log();
  std::atomic<int> ran{0};
  EXPECT_THROW(eng.map(ds,
                       [&](const int& x) {
                         if (++ran == 8) token.request_cancel();
                         std::this_thread::sleep_for(std::chrono::milliseconds(1));
                         return x;
                       }),
               JobCancelledError);
  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_TRUE(info.cancelled);
  EXPECT_GT(info.cancelled_partitions, 0u);
  EXPECT_LT(info.executed_partitions, info.total_partitions);
  EXPECT_EQ(info.executed_partitions + info.cancelled_partitions,
            info.total_partitions);
  // The engine is reusable after cancellation once the token is cleared.
  eng.clear_cancellation();
  const auto out = eng.map(ds, [](const int& x) { return x + 1; });
  EXPECT_EQ(out.partitions(), 200u);
}

TEST(EngineCancelTest, DetachedTokenIsZeroCost) {
  Engine eng(opts());
  const auto ds = eng.parallelize(iota_vec(100), 10);
  CancellationToken token;
  eng.set_cancellation(token);
  eng.clear_cancellation();
  const auto out = eng.map(ds, [](const int& x) { return 2 * x; });
  EXPECT_EQ(out.total_size(), 100u);
  EXPECT_FALSE(eng.stage_log().back().cancelled);
}

TEST(EngineCancelTest, FaultPathHonoursCancellationInBackoff) {
  // Every attempt fails and backoff is long: without cancellation this
  // stage would spend ~seconds retrying. The token must cut the sleeps
  // short and classify the unfinished partitions as cancelled.
  chaos::ScopedChaos faults(chaos::ChaosSchedule::uniform(
      7, {1.0, chaos::Shape::kThrow}, chaos::points::kEngineTask));
  Engine::Options o = opts();
  o.fault.max_attempts = 50;
  o.fault.retry_backoff_ms = 50.0;
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(64), 32);
  CancellationToken token;
  eng.set_cancellation(token);
  eng.clear_stage_log();
  StageOptions so;
  so.droppable = false;  // retries matter: no degradation escape hatch
  const auto t0 = std::chrono::steady_clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request_cancel();
  });
  EXPECT_THROW(eng.map(ds, [](const int& x) { return x; }, so), JobCancelledError);
  canceller.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 5.0) << "cancellation must pre-empt the retry backoff";
  ASSERT_EQ(eng.stage_log().size(), 1u);
  EXPECT_TRUE(eng.stage_log().front().cancelled);
  EXPECT_GT(eng.stage_log().front().cancelled_partitions, 0u);
}

TEST(EngineCancelTest, CancellationOutranksTaskFailure) {
  // A non-droppable stage with both dead tasks and a fired token reports
  // the cancellation, not TaskFailedError: the job is being torn down, so
  // task failure is no longer actionable.
  // Some tasks die for good: one attempt each at a 0.5 throw rate.
  chaos::ScopedChaos faults(chaos::ChaosSchedule::uniform(
      3, {0.5, chaos::Shape::kThrow}, chaos::points::kEngineTask));
  Engine::Options o = opts();
  o.fault.max_attempts = 1;
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(64), 32);
  CancellationToken token;
  std::atomic<int> calls{0};
  eng.set_cancellation(token);
  StageOptions so;
  so.droppable = false;
  try {
    eng.map(ds,
            [&](const int& x) {
              if (++calls >= 1) token.request_cancel();
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              return x;
            },
            so);
    FAIL() << "expected JobCancelledError";
  } catch (const JobCancelledError&) {
  } catch (const TaskFailedError&) {
    FAIL() << "cancellation must outrank task failure";
  }
  EXPECT_TRUE(eng.stage_log().back().cancelled);
}

}  // namespace
}  // namespace dias::engine
