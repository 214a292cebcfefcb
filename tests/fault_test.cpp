// Fault-tolerant execution: retry, speculation, approximation-aware
// degradation, and the engine-level reproducibility guarantees they must
// preserve. Faults are armed on the chaos plane's engine.task point, the
// engine's one source of task faults.
#include "engine/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analytics/triangle_count.hpp"
#include "analytics/word_count.hpp"
#include "chaos/chaos.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "workload/graph_gen.hpp"
#include "workload/text_corpus.hpp"

namespace dias::engine {
namespace {

Engine::Options eng_opts(double drop = 0.0, std::uint64_t seed = 42) {
  Engine::Options o;
  o.workers = 4;
  o.seed = seed;
  o.drop_ratio = drop;
  return o;
}

// A schedule arming only engine.task with `shape` at `rate`.
chaos::ChaosSchedule task_faults(std::uint64_t seed, chaos::Shape shape, double rate,
                                 double stall_ms = 5.0) {
  return chaos::ChaosSchedule::uniform(seed, {rate, shape, stall_ms},
                                       chaos::points::kEngineTask);
}

// Whether the installed schedule fires on attempt `attempt` of `partition`
// in the stage with sequence number `stage_seq`: the engine's own key.
bool task_fires(std::uint64_t stage_seq, std::size_t partition, int attempt) {
  return chaos::ChaosPlane::instance()
      .point(chaos::points::kEngineTask)
      .decide(stage_seq, partition, static_cast<std::uint64_t>(attempt))
      .fire;
}

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// Log equality modulo wall-clock fields.
void expect_same_log(const std::vector<StageInfo>& a, const std::vector<StageInfo>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("stage " + a[i].name);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].total_partitions, b[i].total_partitions);
    EXPECT_EQ(a[i].executed_partitions, b[i].executed_partitions);
    EXPECT_EQ(a[i].executed_partition_ids, b[i].executed_partition_ids);
    EXPECT_EQ(a[i].failed_partition_ids, b[i].failed_partition_ids);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].retries, b[i].retries);
    EXPECT_DOUBLE_EQ(a[i].applied_drop_ratio, b[i].applied_drop_ratio);
    EXPECT_DOUBLE_EQ(a[i].effective_drop_ratio, b[i].effective_drop_ratio);
  }
}

TEST(FaultOptionsTest, ActiveDetection) {
  FaultToleranceOptions ft;
  EXPECT_FALSE(ft.active());
  ft.max_attempts = 3;
  EXPECT_TRUE(ft.active());
  ft.max_attempts = 1;
  ft.speculation = true;
  EXPECT_TRUE(ft.active());
  ft.speculation = false;
  EXPECT_FALSE(ft.active());
}

TEST(FaultOptionsTest, StallWatchdogActivatesFaultPath) {
  FaultToleranceOptions ft;
  ft.stall_watchdog = true;
  EXPECT_TRUE(ft.active());
}

// --- retry backoff curves (ISSUE 10 satellite a) ---------------------------

TEST(BackoffTest, DecorrelatedJitterDeterministicCappedAndDesynchronized) {
  FaultToleranceOptions ft;
  ft.retry_backoff_ms = 10.0;
  ft.retry_backoff_cap_ms = 80.0;
  constexpr std::uint64_t kSeed = 42;

  // Deterministic: the whole curve is a pure function of the coordinates.
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double d = backoff_delay_ms(ft, kSeed, 1, 2, attempt);
    EXPECT_DOUBLE_EQ(d, backoff_delay_ms(ft, kSeed, 1, 2, attempt));
    EXPECT_GE(d, 10.0);  // never below base
    EXPECT_LE(d, 80.0);  // never above cap
  }
  EXPECT_DOUBLE_EQ(backoff_delay_ms(ft, kSeed, 1, 2, 1), 10.0);  // first retry = base

  // Desynchronized: distinct tasks draw distinct delays at the same
  // attempt, so a retry storm never stampedes one instant.
  std::set<double> delays;
  for (std::size_t part = 0; part < 16; ++part) {
    delays.insert(backoff_delay_ms(ft, kSeed, 1, part, 4));
  }
  EXPECT_GT(delays.size(), 8u);

  // A different seed reshuffles the jitter.
  bool any_difference = false;
  for (int attempt = 2; attempt <= 8; ++attempt) {
    any_difference = any_difference || backoff_delay_ms(ft, kSeed + 1, 1, 2, attempt) !=
                                           backoff_delay_ms(ft, kSeed, 1, 2, attempt);
  }
  EXPECT_TRUE(any_difference);
}

TEST(BackoffTest, ZeroBaseMeansNoDelayUnderEitherPolicy) {
  FaultToleranceOptions ft;
  ft.retry_backoff_ms = 0.0;
  EXPECT_DOUBLE_EQ(backoff_delay_ms(ft, 1, 0, 0, 3), 0.0);
  ft.retry_backoff_ms = 5.0;
  EXPECT_DOUBLE_EQ(backoff_delay_ms(ft, 1, 0, 0, 0), 0.0);  // no attempt yet
}

// --- stall watchdog --------------------------------------------------------

TEST(FaultStallWatchdogTest, StalledTaskIsSpeculatedBeforeQuantile) {
  // Every primary stalls for far longer than the stall threshold;
  // quantile speculation is OFF, so only the watchdog can launch copies.
  // Speculative copies skip the injected stall, win exactly once per
  // partition, end the primaries' stalls, and the content stays exact.
  chaos::ScopedChaos stalls(task_faults(1, chaos::Shape::kStall, 1.0, 400.0));
  Engine::Options o = eng_opts();
  o.workers = 4;
  o.fault.speculation = false;
  o.fault.stall_watchdog = true;
  o.fault.stall_threshold_ms = 25.0;
  o.fault.stall_p95_multiplier = 0.0;  // absolute floor only: no registry attached
  Engine eng(o);

  constexpr std::size_t kTasks = 3;
  const auto ds = eng.parallelize(iota_vec(30), kTasks);
  std::array<std::atomic<int>, kTasks> executions{};
  eng.clear_stage_log();
  StageOptions so;
  so.name = "watchdog";
  const auto out = eng.map_partitions_indexed(
      ds,
      [&](std::size_t p, const std::vector<int>& part) {
        executions[p].fetch_add(1);
        return part;
      },
      so);
  EXPECT_EQ(out.total_size(), 30u);

  const StageInfo& info = eng.stage_log().back();
  EXPECT_EQ(info.executed_partitions, kTasks);
  EXPECT_GE(info.speculative_launched, 1u);
  EXPECT_GE(info.speculative_wins, 1u);
  for (const auto& count : executions) EXPECT_EQ(count.load(), 1);
  // A won partition's primary stops stalling: no lane sleeps out the 400 ms.
  EXPECT_LT(info.duration_s, 0.400);
}

TEST(FaultOptionsTest, EngineValidatesPolicy) {
  Engine::Options o = eng_opts();
  o.fault.max_attempts = 0;
  EXPECT_THROW(Engine{o}, dias::precondition_error);
  Engine eng(eng_opts());
  FaultToleranceOptions ft;
  ft.speculation_quantile = 0.0;
  EXPECT_THROW(eng.set_fault_options(ft), dias::precondition_error);
  ft.speculation_quantile = 0.75;
  ft.retry_backoff_ms = -1.0;
  EXPECT_THROW(eng.set_fault_options(ft), dias::precondition_error);
}

// --- retry -----------------------------------------------------------------

TEST(FaultRetryTest, RetriesUntilSuccessAndLogsAttempts) {
  chaos::ScopedChaos faults(task_faults(5, chaos::Shape::kThrow, 0.3));
  Engine::Options o = eng_opts();
  o.fault.max_attempts = 25;  // deep enough that every task recovers
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(300), 30);
  eng.clear_stage_log();
  StageOptions so;
  so.name = "retry-map";
  const auto out = eng.map(ds, [](const int& x) { return x + 1; }, so);
  EXPECT_EQ(out.total_size(), 300u);

  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.executed_partitions, 30u);
  EXPECT_TRUE(info.failed_partition_ids.empty());
  EXPECT_DOUBLE_EQ(info.effective_drop_ratio, 0.0);
  EXPECT_GT(info.retries, 0u);
  EXPECT_EQ(info.attempts, 30u + info.retries);

  // Cross-check the retry count against the schedule's deterministic plan:
  // task p needs as many attempts as leading fired decisions + 1.
  std::size_t expected_retries = 0;
  for (std::size_t p = 0; p < 30; ++p) {
    int attempt = 1;
    while (task_fires(0, p, attempt)) ++attempt;
    expected_retries += static_cast<std::size_t>(attempt - 1);
  }
  EXPECT_EQ(info.retries, expected_retries);
}

TEST(FaultRetryTest, UserCodeExceptionsAreRetried) {
  Engine::Options o = eng_opts();
  o.fault.max_attempts = 3;  // no chaos; retries driven by the body itself
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(80), 8);
  std::array<std::atomic<int>, 8> calls{};
  eng.clear_stage_log();
  const auto out = eng.map_partitions_indexed(
      ds,
      [&](std::size_t p, const std::vector<int>& part) {
        // Every partition's first attempt dies; the retry succeeds.
        if (calls[p].fetch_add(1) == 0) throw std::runtime_error("flaky");
        return part;
      },
      StageOptions{});
  EXPECT_EQ(out.total_size(), 80u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.executed_partitions, 8u);
  EXPECT_EQ(info.retries, 8u);
  for (const auto& c : calls) EXPECT_EQ(c.load(), 2);
}

TEST(FaultRetryTest, ZeroFaultRateMatchesLegacyPathExactly) {
  // The retry machinery at failure probability 0 must not change which
  // partitions run or what the job computes.
  Engine::Options plain = eng_opts(0.3, 7);
  Engine::Options ft = plain;
  ft.fault.max_attempts = 3;
  ft.fault.retry_backoff_ms = 1.0;
  Engine a(plain), b(ft);
  const auto da = a.parallelize(iota_vec(500), 40);
  const auto db = b.parallelize(iota_vec(500), 40);
  StageOptions so;
  so.name = "zero-fault";
  const auto ra = a.map(da, [](const int& x) { return 3 * x; }, so);
  const auto rb = b.map(db, [](const int& x) { return 3 * x; }, so);
  EXPECT_EQ(ra.collect(), rb.collect());
  expect_same_log(a.stage_log(), b.stage_log());
}

// --- one stage-execution loop -----------------------------------------------

// What one small job leaves behind: its output, its stage log, and how
// many pool waves it took.
struct WaveJob {
  std::vector<std::pair<int, int>> sums;
  std::vector<StageInfo> log;
  std::uint64_t waves = 0;
};

WaveJob run_wave_job(const Engine::Options& o) {
  obs::Registry registry;
  Engine eng(o);
  eng.attach_observability(&registry, nullptr);
  const auto ds = eng.parallelize(iota_vec(600), 12);
  eng.clear_stage_log();
  const std::uint64_t before = registry.counter("engine.pool.waves").value();
  StageOptions so;
  so.name = "one-wave";
  const auto pairs = eng.map(ds, [](const int& x) { return std::pair<int, int>(x % 17, x); }, so);
  const auto reduced =
      eng.reduce_by_key(pairs, [](int a, int b) { return a + b; }, 5, so);
  WaveJob job;
  job.waves = registry.counter("engine.pool.waves").value() - before;
  job.sums = reduced.collect();
  std::sort(job.sums.begin(), job.sums.end());
  job.log = eng.stage_log();
  eng.attach_observability(nullptr, nullptr);
  return job;
}

// Retries and speculation ride inside the stage's single wave: the
// per-index body is the attempt loop and the monitor runs on the waiting
// thread, so a fault-tolerant stage costs one wave like an inert one.
// Quantile 1.0 fires only once every task succeeded, so no copy launches
// and the counters must match the inert engine's exactly.
TEST(FaultSingleLoopTest, FaultTolerantStagesRunAsOneWaveEach) {
  const Engine::Options inert = eng_opts(0.25, 9);
  Engine::Options tolerant = inert;
  tolerant.fault.max_attempts = 3;
  tolerant.fault.speculation = true;
  tolerant.fault.speculation_quantile = 1.0;

  const WaveJob a = run_wave_job(inert);
  const WaveJob b = run_wave_job(tolerant);
  ASSERT_EQ(b.log.size(), 3u);  // map, shuffle write, reduce
  EXPECT_EQ(a.waves, a.log.size());
  EXPECT_EQ(b.waves, b.log.size());
  EXPECT_EQ(a.sums, b.sums);
  expect_same_log(a.log, b.log);
  for (std::size_t i = 0; i < b.log.size(); ++i) {
    EXPECT_EQ(b.log[i].speculative_launched, a.log[i].speculative_launched);
    EXPECT_EQ(b.log[i].speculative_wins, a.log[i].speculative_wins);
    EXPECT_EQ(b.log[i].cancelled_partitions, 0u);
  }
}

// Under the inert policy a body's exception is the stage's: even on a
// droppable stage it propagates with its own type and message instead of
// being absorbed as a failed attempt and degraded into a drop.
TEST(FaultSingleLoopTest, InertPolicyPropagatesBodyExceptionOnDroppableStage) {
  Engine eng(eng_opts());
  const auto ds = eng.parallelize(iota_vec(40), 4);
  StageOptions so;
  so.droppable = true;
  try {
    eng.map_partitions_indexed(
        ds,
        [](std::size_t p, const std::vector<int>& part) {
          if (p == 2) throw std::runtime_error("boom");
          return part;
        },
        so);
    FAIL() << "the body's exception was swallowed";
  } catch (const dias::error& e) {
    FAIL() << "wrapped into a dias::error: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

// --- approximation-aware degradation ---------------------------------------

TEST(FaultDegradationTest, FailedTasksBecomeDropsOnDroppableStage) {
  chaos::ScopedChaos faults(task_faults(17, chaos::Shape::kThrow, 0.5));
  Engine::Options o = eng_opts(0.2);
  o.fault.max_attempts = 2;
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(400), 40);
  eng.clear_stage_log();
  StageOptions so;
  so.name = "degrade-map";
  so.droppable = true;
  const auto out = eng.map(ds, [](const int& x) { return x; }, so);

  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.total_partitions, 40u);
  // theta = 0.2 drops 8 up front; injected deaths must then degrade more.
  const std::size_t selected = 32;
  EXPECT_EQ(info.executed_partitions + info.failed_partition_ids.size(), selected);
  EXPECT_FALSE(info.failed_partition_ids.empty());
  EXPECT_DOUBLE_EQ(info.applied_drop_ratio, 0.2);
  EXPECT_DOUBLE_EQ(info.effective_drop_ratio,
                   1.0 - static_cast<double>(info.executed_partitions) / 40.0);
  EXPECT_GT(info.effective_drop_ratio, 0.2);

  // A degraded task contributes no data, exactly like a dropped one.
  std::set<std::size_t> executed(info.executed_partition_ids.begin(),
                                 info.executed_partition_ids.end());
  for (std::size_t p = 0; p < out.partitions(); ++p) {
    EXPECT_EQ(out.partition(p).empty(), executed.count(p) == 0) << "partition " << p;
  }

  // The dead set is exactly the schedule's plan: the selected partitions
  // whose both attempts fire.
  const std::set<std::size_t> dead(info.failed_partition_ids.begin(),
                                   info.failed_partition_ids.end());
  for (std::size_t p = 0; p < 40; ++p) {
    if (executed.count(p) == 0 && dead.count(p) == 0) continue;  // dropped up front
    EXPECT_EQ(dead.count(p) == 1, task_fires(0, p, 1) && task_fires(0, p, 2))
        << "partition " << p;
  }
}

TEST(FaultDegradationTest, NonDroppableStageRaisesTypedError) {
  // Every attempt dies.
  chaos::ScopedChaos faults(task_faults(1, chaos::Shape::kThrow, 1.0));
  Engine::Options o = eng_opts();
  o.fault.max_attempts = 3;
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(50), 5);
  eng.clear_stage_log();
  StageOptions so;
  so.name = "critical-map";
  so.droppable = false;
  try {
    eng.map(ds, [](const int& x) { return x; }, so);
    FAIL() << "expected TaskFailedError";
  } catch (const TaskFailedError& e) {
    EXPECT_EQ(e.stage(), "critical-map");
    EXPECT_EQ(e.partition(), 0u);  // first failed partition
    EXPECT_EQ(e.attempts(), 3);
    EXPECT_NE(std::string(e.what()).find("critical-map"), std::string::npos);
  }
  // The stage was still logged for post-mortem before the throw.
  ASSERT_EQ(eng.stage_log().size(), 1u);
  EXPECT_EQ(eng.stage_log().front().failed_partition_ids.size(), 5u);
  EXPECT_EQ(eng.stage_log().front().executed_partitions, 0u);
}

TEST(FaultDegradationTest, TaskFailedErrorIsADiasError) {
  const TaskFailedError e("s", 3, 2);
  const dias::error& base = e;
  EXPECT_NE(std::string(base.what()).find("partition 3"), std::string::npos);
}

// --- speculation ------------------------------------------------------------

TEST(FaultSpeculationTest, SpeculativeCopyBeatsStragglerExactlyOnce) {
  chaos::ScopedChaos stalls(task_faults(23, chaos::Shape::kStall, 0.25, 400.0));
  Engine::Options o = eng_opts();
  o.fault.speculation = true;
  o.fault.speculation_quantile = 0.5;
  Engine eng(o);

  // The stall plan is deterministic: require a non-trivial straggler set
  // so speculation actually has work (seed chosen accordingly).
  std::size_t planned_stragglers = 0;
  for (std::size_t p = 0; p < 12; ++p) {
    if (task_fires(0, p, 1)) ++planned_stragglers;
  }
  ASSERT_GE(planned_stragglers, 1u);
  ASSERT_LE(planned_stragglers, 5u);  // quantile of fast tasks is reachable

  const auto ds = eng.parallelize(iota_vec(120), 12);
  std::array<std::atomic<int>, 12> completions{};
  eng.clear_stage_log();
  const auto out = eng.map_partitions_indexed(
      ds,
      [&](std::size_t p, const std::vector<int>& part) {
        ++completions[p];
        return part;
      },
      StageOptions{});
  EXPECT_EQ(out.total_size(), 120u);

  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.executed_partitions, 12u);
  EXPECT_TRUE(info.failed_partition_ids.empty());
  EXPECT_GE(info.speculative_launched, 1u);
  EXPECT_GE(info.speculative_wins, 1u);
  EXPECT_LE(info.speculative_wins, info.speculative_launched);
  // Exactly one copy completed each partition: the loser was discarded
  // before running the body, not after.
  for (const auto& c : completions) EXPECT_EQ(c.load(), 1);
  // The stage should not have waited out the full stall: a speculative win
  // ends the primary's injected sleep.
  EXPECT_LT(info.duration_s, 0.400);
}

TEST(FaultSpeculationTest, NoSpeculationWithoutStragglers) {
  Engine::Options o = eng_opts();
  o.fault.speculation = true;
  o.fault.speculation_quantile = 0.75;
  Engine eng(o);
  const auto ds = eng.parallelize(iota_vec(100), 10);
  eng.clear_stage_log();
  eng.map(ds, [](const int& x) { return x; }, StageOptions{});
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(info.executed_partitions, 10u);
  EXPECT_EQ(info.speculative_wins, 0u);
}

// --- determinism regressions ------------------------------------------------

TEST(FaultDeterminismTest, WordCountIdenticalAcrossEngineInstances) {
  workload::TextCorpusParams params;
  params.posts = 500;
  params.vocabulary = 300;
  params.seed = 19;
  const auto corpus = workload::generate_text_corpus("determinism", params);

  auto run = [&](Engine& eng) {
    const auto ds = eng.parallelize(corpus.rows, 20);
    return analytics::word_count(eng, ds, 8, 0.3);
  };
  Engine a(eng_opts(0.0, 77)), b(eng_opts(0.0, 77));
  const auto ra = run(a);
  const auto rb = run(b);
  EXPECT_EQ(ra.counts, rb.counts);
  EXPECT_EQ(ra.map_tasks_run, rb.map_tasks_run);
  expect_same_log(a.stage_log(), b.stage_log());
}

TEST(FaultDeterminismTest, TriangleCountIdenticalAcrossEngineInstances) {
  workload::GraphParams gparams;
  gparams.scale = 10;
  gparams.edges = 1u << 13;
  gparams.seed = 29;
  const auto edges = workload::generate_rmat_graph(gparams);

  auto run = [&](Engine& eng) {
    const auto ds = eng.parallelize(edges, 16);
    return analytics::triangle_count(eng, ds, 0.25);
  };
  Engine a(eng_opts(0.0, 31)), b(eng_opts(0.0, 31));
  const auto ra = run(a);
  const auto rb = run(b);
  EXPECT_EQ(ra.triangles, rb.triangles);
  EXPECT_EQ(ra.tasks_run, rb.tasks_run);
  expect_same_log(a.stage_log(), b.stage_log());
}

TEST(FaultDeterminismTest, SeededFaultyWordCountReproducesIdenticalLog) {
  // The paper-level acceptance scenario: a droppable word-count map with
  // theta = 0.2 and an injected per-attempt failure probability of 0.2
  // completes, reports an effective drop ratio >= theta, and is
  // bit-reproducible from the seed. Faults reach every stage; two attempts
  // let the non-droppable shuffle and reduce stages recover.
  workload::TextCorpusParams params;
  params.posts = 600;
  params.vocabulary = 400;
  params.seed = 37;
  const auto corpus = workload::generate_text_corpus("faulty", params);

  chaos::ScopedChaos faults(task_faults(74, chaos::Shape::kThrow, 0.2));
  // The seed's precondition: no shuffle task (stage 1, 30 tasks) and no
  // reduce task (stage 2, 8 reducers) fails both attempts, so only the
  // droppable map degrades.
  for (std::size_t p = 0; p < 30; ++p) {
    ASSERT_FALSE(task_fires(1, p, 1) && task_fires(1, p, 2)) << "shuffle task " << p;
  }
  for (std::size_t p = 0; p < 8; ++p) {
    ASSERT_FALSE(task_fires(2, p, 1) && task_fires(2, p, 2)) << "reduce task " << p;
  }

  Engine::Options o = eng_opts(0.0, 123);
  o.fault.max_attempts = 2;  // a map task failing both attempts degrades to a drop
  auto run = [&](Engine& eng) {
    const auto ds = eng.parallelize(corpus.rows, 30);
    return analytics::word_count(eng, ds, 8, 0.2);
  };

  Engine a(o), b(o);
  const auto ra = run(a);
  const auto rb = run(b);

  const auto& map_stage = a.stage_log().front();
  ASSERT_EQ(map_stage.kind, EngineStageKind::kMap);
  EXPECT_FALSE(map_stage.failed_partition_ids.empty());
  EXPECT_GE(map_stage.effective_drop_ratio, 0.2);
  EXPECT_DOUBLE_EQ(map_stage.applied_drop_ratio, 0.2);
  // word_count's executed-fraction accounting must see the degraded tasks,
  // so the rescaled estimator stays unbiased under failures.
  EXPECT_EQ(ra.map_tasks_run, map_stage.executed_partitions);
  EXPECT_LT(ra.map_tasks_run, 24u);  // 30 * (1 - 0.2) minus the degraded ones

  EXPECT_EQ(ra.counts, rb.counts);
  expect_same_log(a.stage_log(), b.stage_log());
}

}  // namespace
}  // namespace dias::engine
