#include "cluster/cluster_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dias::cluster {
namespace {

// A single-stage deterministic job: `tasks` tasks of `task_s` seconds.
JobSpec simple_job(std::size_t priority, int tasks, double task_s) {
  JobSpec spec;
  spec.priority = priority;
  spec.stages = {{StageKind::kMap, tasks, task_s, 0.0}};
  return spec;
}

ClusterSimulator::Config det_config(int slots) {
  ClusterSimulator::Config config;
  config.slots = slots;
  config.task_time_family = TaskTimeFamily::kDeterministic;
  config.warmup_jobs = 0;
  return config;
}

TEST(JobSpecTest, DroppabilityByStageKind) {
  EXPECT_FALSE(is_droppable(StageKind::kSetup));
  EXPECT_TRUE(is_droppable(StageKind::kMap));
  EXPECT_FALSE(is_droppable(StageKind::kShuffle));
  EXPECT_TRUE(is_droppable(StageKind::kShuffleMap));
  EXPECT_TRUE(is_droppable(StageKind::kReduce));
  EXPECT_FALSE(is_droppable(StageKind::kResult));
}

TEST(JobSpecTest, StageKindNames) {
  EXPECT_STREQ(to_string(StageKind::kSetup), "setup");
  EXPECT_STREQ(to_string(StageKind::kMap), "map");
  EXPECT_STREQ(to_string(StageKind::kShuffleMap), "shuffle-map");
  EXPECT_STREQ(to_string(StageKind::kResult), "result");
}

TEST(JobSpecTest, WorkAndTaskTotals) {
  JobSpec spec;
  spec.stages = {
      {StageKind::kSetup, 1, 8.0, 0.0},
      {StageKind::kMap, 50, 2.0, 0.1},
      {StageKind::kShuffle, 1, 3.0, 0.0},
      {StageKind::kReduce, 20, 0.5, 0.1},
  };
  EXPECT_NEAR(spec.total_work(), 8.0 + 100.0 + 3.0 + 10.0, 1e-12);
  EXPECT_EQ(spec.total_tasks(), 72);
}

TEST(ClusterSimulatorTest, SingleJobMakespan) {
  // 10 deterministic 2s tasks on 4 slots: waves of 4/4/2 -> 6 seconds.
  auto result = simulate(det_config(4), {{0.0, simple_job(0, 10, 2.0)}});
  ASSERT_EQ(result.per_class.size(), 1u);
  ASSERT_EQ(result.per_class[0].completed, 1u);
  EXPECT_NEAR(result.per_class[0].response.mean(), 6.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].execution.mean(), 6.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].queueing.mean(), 0.0, 1e-9);
  EXPECT_NEAR(result.busy_time, 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.resource_waste(), 0.0);
}

TEST(ClusterSimulatorTest, MultiStageJobRespectsBarriers) {
  JobSpec spec;
  spec.priority = 0;
  spec.stages = {
      {StageKind::kSetup, 1, 3.0, 0.0},
      {StageKind::kMap, 4, 2.0, 0.0},     // 2 slots -> 2 waves -> 4s
      {StageKind::kShuffle, 1, 1.0, 0.0},
      {StageKind::kReduce, 2, 5.0, 0.0},  // 1 wave -> 5s
  };
  auto result = simulate(det_config(2), {{0.0, spec}});
  EXPECT_NEAR(result.per_class[0].response.mean(), 3.0 + 4.0 + 1.0 + 5.0, 1e-9);
}

TEST(ClusterSimulatorTest, FcfsWithinClass) {
  // Two same-priority jobs: the second queues behind the first.
  auto result = simulate(det_config(1), {{0.0, simple_job(0, 1, 10.0)},
                                         {1.0, simple_job(0, 1, 10.0)}});
  EXPECT_EQ(result.per_class[0].completed, 2u);
  // First: response 10; second: arrives at 1, starts at 10, done at 20.
  EXPECT_NEAR(result.per_class[0].response.max(), 19.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].queueing.max(), 9.0, 1e-9);
}

TEST(ClusterSimulatorTest, HigherPriorityDispatchedFirst) {
  // Busy engine; low then high arrive. At completion the high job must go
  // first even though the low job arrived earlier.
  auto result = simulate(det_config(1), {{0.0, simple_job(0, 1, 10.0)},
                                         {1.0, simple_job(0, 1, 10.0)},
                                         {2.0, simple_job(1, 1, 10.0)}});
  // high: arrives 2, starts 10, ends 20 -> response 18.
  EXPECT_NEAR(result.per_class[1].response.mean(), 18.0, 1e-9);
  // low #2: arrives 1, starts 20, ends 30 -> response 29.
  EXPECT_NEAR(result.per_class[0].response.max(), 29.0, 1e-9);
}

TEST(ClusterSimulatorTest, NonPreemptiveNeverEvicts) {
  auto config = det_config(1);
  config.scheduler.preemptive = false;
  auto result = simulate(config, {{0.0, simple_job(0, 1, 100.0)},
                                  {1.0, simple_job(1, 1, 1.0)}});
  EXPECT_EQ(result.total_evictions, 0u);
  EXPECT_DOUBLE_EQ(result.wasted_time, 0.0);
  // High job waits for the low job: response = (100 - 1) + 1.
  EXPECT_NEAR(result.per_class[1].response.mean(), 100.0, 1e-9);
}

TEST(ClusterSimulatorTest, PreemptiveEvictsAndReExecutes) {
  auto config = det_config(1);
  config.scheduler.preemptive = true;
  auto result = simulate(config, {{0.0, simple_job(0, 1, 100.0)},
                                  {10.0, simple_job(1, 1, 5.0)}});
  EXPECT_EQ(result.total_evictions, 1u);
  // Low: runs 0-10 (wasted), re-runs 15-115 -> response 115.
  EXPECT_NEAR(result.per_class[0].response.mean(), 115.0, 1e-9);
  // High: arrives 10, runs immediately -> response 5.
  EXPECT_NEAR(result.per_class[1].response.mean(), 5.0, 1e-9);
  EXPECT_NEAR(result.wasted_time, 10.0, 1e-9);
  // Waste fraction: 10 wasted out of 115 busy.
  EXPECT_NEAR(result.resource_waste(), 10.0 / 115.0, 1e-9);
}

TEST(ClusterSimulatorTest, EvictedJobReturnsToHeadOfItsBuffer) {
  auto config = det_config(1);
  config.scheduler.preemptive = true;
  // Low A starts; low B queues; high evicts A. After high, A (head) must
  // run before B.
  auto result = simulate(config, {{0.0, simple_job(0, 1, 20.0)},
                                  {1.0, simple_job(0, 1, 20.0)},
                                  {2.0, simple_job(1, 1, 4.0)}});
  // A: wasted 0-2, high 2-6, A re-runs 6-26 (response 26), B 26-46
  // (response 45).
  EXPECT_NEAR(result.per_class[0].response.min(), 26.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].response.max(), 45.0, 1e-9);
}

TEST(ClusterSimulatorTest, EqualPriorityDoesNotPreempt) {
  auto config = det_config(1);
  config.scheduler.preemptive = true;
  auto result = simulate(config, {{0.0, simple_job(1, 1, 10.0)},
                                  {1.0, simple_job(1, 1, 1.0)}});
  EXPECT_EQ(result.total_evictions, 0u);
}

TEST(ClusterSimulatorTest, DropReducesExecutedTasks) {
  auto config = det_config(2);
  config.scheduler.theta = {0.5};  // 4 tasks -> 2 tasks -> 1 wave
  auto result = simulate(config, {{0.0, simple_job(0, 4, 3.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 3.0, 1e-9);
}

TEST(ClusterSimulatorTest, DropOnlyAppliesToDroppableStages) {
  JobSpec spec;
  spec.priority = 0;
  spec.stages = {
      {StageKind::kSetup, 1, 2.0, 0.0},
      {StageKind::kMap, 2, 4.0, 0.0},
  };
  auto config = det_config(2);
  config.scheduler.theta = {0.5};  // map 2 -> 1 task; setup untouched
  auto result = simulate(config, {{0.0, spec}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 2.0 + 4.0, 1e-9);
}

TEST(ClusterSimulatorTest, SprintAcceleratesAfterTimeout) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {4.0};
  // One 10s task: 4s at speed 1 (6s work left), then 6/2 = 3s sprinted.
  auto result = simulate(config, {{0.0, simple_job(0, 1, 10.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 7.0, 1e-9);
  EXPECT_NEAR(result.sprint_time, 3.0, 1e-9);
}

TEST(ClusterSimulatorTest, SprintFromDispatchWhenTimeoutZero) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.speedup = 2.5;
  config.sprint.timeout_s = {0.0};
  auto result = simulate(config, {{0.0, simple_job(0, 1, 10.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 4.0, 1e-9);
}

TEST(ClusterSimulatorTest, SprintStopsWhenBudgetDepletes) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {0.0};
  config.sprint.base_power_w = 100.0;
  config.sprint.sprint_power_w = 200.0;  // extra 100 W
  config.sprint.budget_joules = 400.0;   // 4 s of sprinting
  // 20s task: 4s sprinted (8s work done), 12s at base -> 16s total.
  auto result = simulate(config, {{0.0, simple_job(0, 1, 20.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 16.0, 1e-9);
  EXPECT_NEAR(result.sprint_time, 4.0, 1e-9);
}

TEST(ClusterSimulatorTest, OnlyConfiguredClassesSprint) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {std::numeric_limits<double>::infinity(), 0.0};
  auto result = simulate(config, {{0.0, simple_job(0, 1, 10.0)},
                                  {100.0, simple_job(1, 1, 10.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 10.0, 1e-9);  // low: no sprint
  EXPECT_NEAR(result.per_class[1].execution.mean(), 5.0, 1e-9);   // high: sprinted
}

TEST(ClusterSimulatorTest, EnergyAccounting) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {4.0};
  config.sprint.base_power_w = 180.0;
  config.sprint.sprint_power_w = 270.0;
  config.idle_power_w = 0.0;
  // Job: 4s base + 3s sprint (from SprintAcceleratesAfterTimeout).
  auto result = simulate(config, {{0.0, simple_job(0, 1, 10.0)}});
  EXPECT_NEAR(result.energy_joules, 180.0 * 4.0 + 270.0 * 3.0, 1e-6);
}

TEST(ClusterSimulatorTest, IdlePowerCharged) {
  auto config = det_config(1);
  config.idle_power_w = 50.0;
  config.sprint.base_power_w = 180.0;
  // Job of 5s arriving at t=3: horizon 8, idle 3, busy 5.
  auto result = simulate(config, {{3.0, simple_job(0, 1, 5.0)}});
  EXPECT_NEAR(result.horizon, 8.0, 1e-9);
  EXPECT_NEAR(result.energy_joules, 180.0 * 5.0 + 50.0 * 3.0, 1e-6);
}

TEST(ClusterSimulatorTest, WarmupJobsExcludedFromMetrics) {
  auto config = det_config(1);
  config.warmup_jobs = 1;
  auto result = simulate(config, {{0.0, simple_job(0, 1, 5.0)},
                                  {0.0, simple_job(0, 1, 5.0)}});
  EXPECT_EQ(result.per_class[0].completed, 1u);
}

TEST(ClusterSimulatorTest, ExponentialSingleClassMatchesMm1) {
  // Single slot, single-task exponential jobs: the cluster is an M/M/1
  // queue. Validate mean response against 1/(mu - lambda).
  const double mu = 1.0, lambda = 0.5;
  dias::Rng arrivals(99);
  std::vector<TraceEntry> trace;
  double t = 0.0;
  for (int i = 0; i < 30000; ++i) {
    t += arrivals.exponential(lambda);
    trace.push_back({t, simple_job(0, 1, 1.0 / mu)});
  }
  auto config = det_config(1);
  config.task_time_family = TaskTimeFamily::kExponential;
  config.warmup_jobs = 2000;
  config.seed = 5;
  auto result = simulate(config, std::move(trace));
  EXPECT_NEAR(result.per_class[0].response.mean(), 1.0 / (mu - lambda), 0.12);
  EXPECT_NEAR(result.utilization(), lambda / mu, 0.02);
}

TEST(ClusterSimulatorTest, SprintWithEvictionKeepsBudgetConsistent) {
  // A sprinting low-priority job gets evicted mid-sprint; the budget and
  // speed state must reset so the high job runs correctly.
  auto config = det_config(1);
  config.scheduler.preemptive = true;
  config.sprint.enabled = true;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {0.0, 0.0};
  config.sprint.budget_joules = std::numeric_limits<double>::infinity();
  auto result = simulate(config, {{0.0, simple_job(0, 1, 20.0)},
                                  {2.0, simple_job(1, 1, 8.0)}});
  // High: sprinted 8/2 = 4s -> response 4. Low: evicted at 2, re-runs
  // sprinted at 6 for 10s -> done 16, response 16.
  EXPECT_NEAR(result.per_class[1].response.mean(), 4.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].response.mean(), 16.0, 1e-9);
  EXPECT_EQ(result.total_evictions, 1u);
}

TEST(ClusterSimulatorTest, HeterogeneousSlotsRunAtTheirSpeed) {
  // 2 slots at speeds {2.0, 1.0}; two 10 s tasks: the fast slot is claimed
  // first (5 s), the slow one takes 10 s -> makespan 10 s.
  auto config = det_config(2);
  config.slot_speed_factors = {2.0, 1.0};
  auto result = simulate(config, {{0.0, simple_job(0, 2, 10.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 10.0, 1e-9);
}

TEST(ClusterSimulatorTest, FastSlotPipelinesMoreTasks) {
  // 3 tasks of 10 s on the same 2 slots: fast slot does tasks 1 (0-5) and
  // 3 (5-10); slow slot does task 2 (0-10) -> makespan 10 s, vs 20 s on a
  // homogeneous 1x pair.
  auto config = det_config(2);
  config.slot_speed_factors = {2.0, 1.0};
  auto result = simulate(config, {{0.0, simple_job(0, 3, 10.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 10.0, 1e-9);
  auto homogeneous = det_config(2);
  auto base = simulate(homogeneous, {{0.0, simple_job(0, 3, 10.0)}});
  EXPECT_NEAR(base.per_class[0].execution.mean(), 20.0, 1e-9);
}

TEST(ClusterSimulatorTest, SlotFactorsInteractWithSprinting) {
  // One task on a 0.5x slot with a 2x sprint from dispatch: speeds multiply.
  auto config = det_config(1);
  config.slot_speed_factors = {0.5};
  config.sprint.enabled = true;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {0.0};
  auto result = simulate(config, {{0.0, simple_job(0, 1, 10.0)}});
  EXPECT_NEAR(result.per_class[0].execution.mean(), 10.0, 1e-9);  // 0.5 * 2 = 1
}

TEST(ClusterSimulatorTest, SlotFactorValidation) {
  auto config = det_config(2);
  config.slot_speed_factors = {1.0};  // wrong size
  EXPECT_THROW(simulate(config, {{0.0, simple_job(0, 1, 1.0)}}),
               dias::precondition_error);
  config.slot_speed_factors = {1.0, 0.0};
  EXPECT_THROW(simulate(config, {{0.0, simple_job(0, 1, 1.0)}}),
               dias::precondition_error);
}

TEST(ClusterSimulatorTest, SprintSpeedupValidation) {
  // Power, replenish and budget bounds belong to runtime::EnergyBudget; the
  // speedup is simulator-only and checked with the rest of the config.
  auto config = det_config(2);
  config.sprint.speedup = 0.9;
  EXPECT_THROW(simulate(config, {{0.0, simple_job(0, 1, 1.0)}}),
               dias::precondition_error);
}

TEST(ClusterSimulatorTest, WeightedFairInterleavesClasses) {
  // Strict priority would run all queued high jobs before any low job;
  // 1:1 weights must alternate them.
  auto config = det_config(1);
  config.scheduler.queue_policy = QueuePolicy::kWeightedFair;
  config.scheduler.fair_weights = {1.0, 1.0};
  std::vector<TraceEntry> trace;
  for (int i = 0; i < 3; ++i) trace.push_back({0.0, simple_job(0, 1, 10.0)});
  for (int i = 0; i < 3; ++i) trace.push_back({0.1, simple_job(1, 1, 10.0)});
  auto result = simulate(config, std::move(trace));
  // Under strict priority the last low job would finish at 60 with mean low
  // completion ~ (10+50+60)/3; with fair 1:1 the classes alternate, so the
  // low class's mean response is well below the strict-priority value.
  const double low_mean = result.per_class[0].response.mean();
  const double high_mean = result.per_class[1].response.mean();
  EXPECT_LT(std::abs(low_mean - high_mean), 12.0)
      << "1:1 fair sharing should roughly equalize the classes";
}

TEST(ClusterSimulatorTest, FairWeightsSkewService) {
  // 9:1 weights: the high class gets ~9 of every 10 dispatches.
  auto config = det_config(1);
  config.scheduler.queue_policy = QueuePolicy::kWeightedFair;
  config.scheduler.fair_weights = {1.0, 9.0};
  std::vector<TraceEntry> trace;
  for (int i = 0; i < 20; ++i) trace.push_back({0.0, simple_job(0, 1, 5.0)});
  for (int i = 0; i < 20; ++i) trace.push_back({0.1, simple_job(1, 1, 5.0)});
  auto result = simulate(config, std::move(trace));
  EXPECT_LT(result.per_class[1].response.mean(), result.per_class[0].response.mean());
  // But unlike strict priority, low jobs do get served before the high
  // queue drains completely (no starvation): the first low completion is
  // well before the last high completion.
  EXPECT_LT(result.per_class[0].response.min(), result.per_class[1].response.max());
}

TEST(ClusterSimulatorTest, StragglerInjectionInflatesTasks) {
  auto config = det_config(4);
  config.stragglers.probability = 1.0;  // every task straggles
  config.stragglers.slowdown = 3.0;
  auto result = simulate(config, {{0.0, simple_job(0, 4, 2.0)}});
  EXPECT_EQ(result.straggler_tasks, 4u);
  EXPECT_NEAR(result.per_class[0].execution.mean(), 6.0, 1e-9);  // 2 s * 3
}

TEST(ClusterSimulatorTest, SpeculationCutsStragglerTail) {
  // Statistical invariant: with straggler injection, speculation launches
  // backup copies and shortens execution relative to no mitigation.
  auto base = det_config(4);
  base.stragglers.probability = 0.3;
  base.stragglers.slowdown = 8.0;
  base.stragglers.mitigation = StragglerConfig::Mitigation::kNone;
  base.seed = 9;
  auto spec_many = simple_job(0, 40, 2.0);
  const auto without = simulate(base, {{0.0, spec_many}});
  auto with_spec = base;
  with_spec.stragglers.mitigation = StragglerConfig::Mitigation::kSpeculate;
  const auto with = simulate(with_spec, {{0.0, spec_many}});
  EXPECT_GT(with.speculative_copies, 0u);
  EXPECT_LT(with.per_class[0].execution.mean(), without.per_class[0].execution.mean());
}

TEST(ClusterSimulatorTest, TailDropAbandonsStageTail) {
  // 10 deterministic tasks on 4 slots, tail_drop_ratio 0.2 -> once <= 2
  // tasks remain in flight with nothing pending, they are abandoned.
  auto config = det_config(4);
  config.stragglers.mitigation = StragglerConfig::Mitigation::kDropTail;
  config.stragglers.tail_drop_ratio = 0.2;
  auto result = simulate(config, {{0.0, simple_job(0, 10, 2.0)}});
  // Waves: 4 + 4 done at t=4; last wave of 2 starts, pending empty,
  // 2 <= ceil(0.2*10) -> dropped immediately at t=4.
  EXPECT_NEAR(result.per_class[0].execution.mean(), 4.0, 1e-9);
  EXPECT_EQ(result.tail_dropped_tasks, 2u);
}

TEST(ClusterSimulatorTest, TailDropSkipsNonDroppableStages) {
  auto config = det_config(4);
  config.stragglers.mitigation = StragglerConfig::Mitigation::kDropTail;
  config.stragglers.tail_drop_ratio = 0.5;
  JobSpec spec;
  spec.priority = 0;
  spec.stages = {{StageKind::kSetup, 1, 3.0, 0.0}};
  auto result = simulate(config, {{0.0, spec}});
  EXPECT_EQ(result.tail_dropped_tasks, 0u);
  EXPECT_NEAR(result.per_class[0].execution.mean(), 3.0, 1e-9);
}

TEST(ClusterSimulatorTest, ResumeEvictionKeepsCompletedTasks) {
  // Low job: 4 tasks x 10 s on 2 slots (2 waves, 20 s). High job (5 s)
  // arrives at t=12: wave 1 (2 tasks) completed at t=10; wave 2 in flight
  // for 2 s. Resume mode loses only those 2x2 s of partial work.
  auto config = det_config(2);
  config.scheduler.preemptive = true;
  config.scheduler.eviction = EvictionMode::kResumeTasks;
  auto result = simulate(config, {{0.0, simple_job(0, 4, 10.0)},
                                  {12.0, simple_job(1, 1, 5.0)}});
  // High: runs 12-17. Low resumes wave 2 at 17, finishes at 27.
  EXPECT_NEAR(result.per_class[1].response.mean(), 5.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].response.mean(), 27.0, 1e-9);
  EXPECT_NEAR(result.wasted_time, 2.0, 1e-9);  // longest in-flight progress
  EXPECT_NEAR(result.per_class[0].execution.mean(), 20.0, 1e-9);  // useful work
  EXPECT_EQ(result.total_evictions, 1u);
}

TEST(ClusterSimulatorTest, RestartEvictionLosesEverything) {
  auto config = det_config(2);
  config.scheduler.preemptive = true;
  config.scheduler.eviction = EvictionMode::kRestart;
  auto result = simulate(config, {{0.0, simple_job(0, 4, 10.0)},
                                  {12.0, simple_job(1, 1, 5.0)}});
  // Low restarts at 17 from scratch: finishes at 37; 12 s wasted.
  EXPECT_NEAR(result.per_class[0].response.mean(), 37.0, 1e-9);
  EXPECT_NEAR(result.wasted_time, 12.0, 1e-9);
  EXPECT_NEAR(result.per_class[0].execution.mean(), 20.0, 1e-9);
}

TEST(ClusterSimulatorTest, ResumeWastesLessThanRestartOnRandomTraces) {
  dias::Rng rng(77);
  std::vector<TraceEntry> trace;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    t += rng.exponential(0.05);
    const std::size_t cls = rng.bernoulli(0.3) ? 1 : 0;
    trace.push_back({t, simple_job(cls, 1 + static_cast<int>(rng.uniform_int(8)),
                                   rng.uniform(1.0, 4.0))});
  }
  auto config = det_config(4);
  config.scheduler.preemptive = true;
  config.task_time_family = TaskTimeFamily::kLogNormal;
  config.seed = 78;
  config.scheduler.eviction = EvictionMode::kRestart;
  const auto restart = simulate(config, trace);
  config.scheduler.eviction = EvictionMode::kResumeTasks;
  const auto resume = simulate(config, trace);
  EXPECT_GT(restart.wasted_time, resume.wasted_time);
  // Resume never hurts low-priority latency relative to restart.
  EXPECT_LE(resume.per_class[0].response.mean(),
            restart.per_class[0].response.mean() + 1e-9);
}

TEST(ClusterSimulatorTest, DrainPressureSprintsTheBlocker) {
  // Low job (20 s) is running; a high job arrives at t=5. Under the
  // drain-pressure policy the low job sprints (speedup 2): 15 s of work
  // finishes in 7.5 s, so the high job starts at 12.5 instead of 20.
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.policy = SprintPolicy::kDrainPressure;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {};  // no class sprints on its own
  auto result = simulate(config, {{0.0, simple_job(0, 1, 20.0)},
                                  {5.0, simple_job(1, 1, 4.0)}});
  EXPECT_NEAR(result.per_class[0].response.mean(), 12.5, 1e-9);
  EXPECT_NEAR(result.per_class[1].response.mean(), 12.5 - 5.0 + 4.0, 1e-9);
  EXPECT_NEAR(result.sprint_time, 7.5, 1e-9);
}

TEST(ClusterSimulatorTest, TimeoutPolicyIgnoresPressure) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.policy = SprintPolicy::kTimeout;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {};  // nothing sprints
  auto result = simulate(config, {{0.0, simple_job(0, 1, 20.0)},
                                  {5.0, simple_job(1, 1, 4.0)}});
  EXPECT_NEAR(result.per_class[0].response.mean(), 20.0, 1e-9);
  EXPECT_NEAR(result.per_class[1].response.mean(), 19.0, 1e-9);
}

TEST(ClusterSimulatorTest, DrainPressureRespectsBudget) {
  auto config = det_config(1);
  config.sprint.enabled = true;
  config.sprint.policy = SprintPolicy::kDrainPressure;
  config.sprint.speedup = 2.0;
  config.sprint.timeout_s = {};
  config.sprint.base_power_w = 100.0;
  config.sprint.sprint_power_w = 200.0;
  config.sprint.budget_joules = 0.0;  // empty budget: no sprint possible
  auto result = simulate(config, {{0.0, simple_job(0, 1, 20.0)},
                                  {5.0, simple_job(1, 1, 4.0)}});
  EXPECT_NEAR(result.per_class[0].response.mean(), 20.0, 1e-9);
  EXPECT_NEAR(result.sprint_time, 0.0, 1e-9);
}

class SeedSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweepTest, InvariantsHoldOnRandomTraces) {
  // Property sweep: random two-class traces; check conservation-style
  // invariants of the simulator output.
  dias::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<TraceEntry> trace;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.exponential(0.05);
    const std::size_t cls = rng.bernoulli(0.3) ? 1 : 0;
    trace.push_back({t, simple_job(cls, 1 + static_cast<int>(rng.uniform_int(10)),
                                   rng.uniform(0.5, 3.0))});
  }
  ClusterSimulator::Config config;
  config.slots = 4;
  config.scheduler.preemptive = GetParam() % 2 == 0;
  config.task_time_family = TaskTimeFamily::kLogNormal;
  config.warmup_jobs = 0;
  config.seed = static_cast<std::uint64_t>(GetParam());
  auto result = simulate(config, std::move(trace));

  std::size_t completed = 0;
  for (const auto& m : result.per_class) {
    completed += m.completed;
    for (double r : m.response.values()) EXPECT_GT(r, 0.0);
    if (m.completed > 0) {
      EXPECT_GE(m.response.mean(), m.execution.mean() - 1e-9);
      EXPECT_GE(m.queueing.min(), -1e-9);
    }
  }
  EXPECT_EQ(completed, 300u);  // every job eventually completes
  EXPECT_GE(result.busy_time, result.wasted_time - 1e-9);
  EXPECT_LE(result.busy_time, result.horizon + 1e-9);
  if (!config.scheduler.preemptive) {
    EXPECT_EQ(result.total_evictions, 0u);
    EXPECT_DOUBLE_EQ(result.wasted_time, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest, ::testing::Range(1, 13));

class EnergyAccountingSweep : public ::testing::TestWithParam<int> {};

TEST_P(EnergyAccountingSweep, EnergyIdentityHoldsAcrossConfigs) {
  // Property: for random configurations (sprinting, stragglers, eviction,
  // idle power), the reported energy always decomposes into
  //   base_power * (busy - sprint) + sprint_power * sprint + idle * idle
  // and sprint time never exceeds busy time.
  dias::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::vector<TraceEntry> trace;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.exponential(0.03);
    trace.push_back({t, simple_job(rng.bernoulli(0.3) ? 1 : 0,
                                   1 + static_cast<int>(rng.uniform_int(6)),
                                   rng.uniform(0.5, 4.0))});
  }
  ClusterSimulator::Config config;
  config.slots = 1 + static_cast<int>(rng.uniform_int(6));
  config.scheduler.preemptive = rng.bernoulli(0.5);
  config.scheduler.eviction =
      rng.bernoulli(0.5) ? EvictionMode::kRestart : EvictionMode::kResumeTasks;
  config.sprint.enabled = rng.bernoulli(0.7);
  config.sprint.speedup = rng.uniform(1.2, 3.0);
  config.sprint.base_power_w = 180.0;
  config.sprint.sprint_power_w = 270.0;
  config.sprint.budget_joules = rng.bernoulli(0.5)
                                    ? rng.uniform(500.0, 5000.0)
                                    : std::numeric_limits<double>::infinity();
  config.sprint.timeout_s = {rng.uniform(0.0, 5.0), 0.0};
  config.idle_power_w = rng.uniform(0.0, 60.0);
  config.stragglers.probability = rng.uniform(0.0, 0.2);
  config.stragglers.slowdown = 3.0;
  config.task_time_family = TaskTimeFamily::kLogNormal;
  config.warmup_jobs = 0;
  config.seed = static_cast<std::uint64_t>(GetParam());
  const auto result = simulate(config, std::move(trace));

  EXPECT_GE(result.sprint_time, 0.0);
  EXPECT_LE(result.sprint_time, result.busy_time + 1e-6);
  const double expected =
      config.sprint.base_power_w * (result.busy_time - result.sprint_time) +
      config.sprint.sprint_power_w * result.sprint_time +
      config.idle_power_w * (result.horizon - result.busy_time);
  EXPECT_NEAR(result.energy_joules, expected, 1e-6 * std::max(1.0, expected));
  EXPECT_LE(result.busy_time, result.horizon + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyAccountingSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace dias::cluster
