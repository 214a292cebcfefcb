// dias::chaos unit battery (ISSUE 10): schedule grammar, environment
// parsing, selector matching, decision determinism, ScopedChaos hygiene,
// bounded stalls, and the per-shape inject() contract.
#include "chaos/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "common/error.hpp"

namespace dias::chaos {
namespace {

PointSpec spec_of(Shape shape, double rate, double stall_ms = 5.0) {
  PointSpec s;
  s.shape = shape;
  s.rate = rate;
  s.stall_ms = stall_ms;
  return s;
}

// --- schedule grammar ------------------------------------------------------

TEST(ChaosScheduleTest, ParsesPointBindings) {
  const auto points =
      ChaosSchedule::parse_points("spill.write=throw:0.2,pool.wave=stall:0.05:20");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].first, "spill.write");
  EXPECT_EQ(points[0].second.shape, Shape::kThrow);
  EXPECT_DOUBLE_EQ(points[0].second.rate, 0.2);
  EXPECT_EQ(points[1].first, "pool.wave");
  EXPECT_EQ(points[1].second.shape, Shape::kStall);
  EXPECT_DOUBLE_EQ(points[1].second.rate, 0.05);
  EXPECT_DOUBLE_EQ(points[1].second.stall_ms, 20.0);

  const auto corrupt = ChaosSchedule::parse_points("spill.*=corrupt:1");
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(corrupt[0].second.shape, Shape::kCorrupt);
}

TEST(ChaosScheduleTest, RejectsMalformedBindings) {
  EXPECT_THROW(ChaosSchedule::parse_points("no-equals-sign"), config_error);
  EXPECT_THROW(ChaosSchedule::parse_points("=throw:0.1"), config_error);
  EXPECT_THROW(ChaosSchedule::parse_points("x=explode:0.1"), config_error);
  EXPECT_THROW(ChaosSchedule::parse_points("x=throw"), config_error);  // no rate
  EXPECT_THROW(ChaosSchedule::parse_points("x=throw:1.5"), config_error);
  EXPECT_THROW(ChaosSchedule::parse_points("x=throw:zebra"), config_error);
  EXPECT_THROW(ChaosSchedule::parse_points("x=stall:0.1:-4"), config_error);
}

TEST(ChaosScheduleTest, InstallRejectsOutOfRangeSpecs) {
  // The grammar's range checks guard programmatic schedules too, and a
  // rejected schedule leaves the plane as it was.
  ChaosPlane& plane = ChaosPlane::instance();
  ScopedChaos scoped(ChaosSchedule::uniform(3, spec_of(Shape::kThrow, 1.0), "test.range"));
  InjectionPoint& pt = plane.point("test.range");
  for (const PointSpec& bad : {spec_of(Shape::kThrow, 1.5), spec_of(Shape::kThrow, -0.1),
                               spec_of(Shape::kStall, 0.5, -4.0)}) {
    EXPECT_THROW(plane.install(ChaosSchedule::uniform(3, bad, "test.range")), config_error);
    EXPECT_TRUE(pt.decide(0).fire);
  }
}

TEST(ChaosScheduleTest, FromEnvReadsSeedAndPoints) {
  ::setenv("DIAS_CHAOS_SEED", "1234", 1);
  ::setenv("DIAS_CHAOS_POINTS", "engine.task=throw:0.25", 1);
  const auto s = ChaosSchedule::from_env();
  EXPECT_EQ(s.seed, 1234u);
  ASSERT_EQ(s.points.size(), 1u);
  EXPECT_EQ(s.points[0].first, "engine.task");

  ::setenv("DIAS_CHAOS_SEED", "not-a-number", 1);
  EXPECT_THROW(ChaosSchedule::from_env(), config_error);
  ::unsetenv("DIAS_CHAOS_SEED");
  ::unsetenv("DIAS_CHAOS_POINTS");
  EXPECT_TRUE(ChaosSchedule::from_env().empty());
}

// --- selector matching -----------------------------------------------------

TEST(ChaosPlaneTest, SelectorSpecificityExactBeatsPrefixBeatsWildcard) {
  auto& plane = ChaosPlane::instance();
  InjectionPoint& spill_write = plane.point(points::kSpillWrite);
  InjectionPoint& spill_read = plane.point(points::kSpillRead);
  InjectionPoint& task = plane.point(points::kEngineTask);

  ChaosSchedule schedule;
  schedule.seed = 3;
  schedule.points.push_back({"*", spec_of(Shape::kThrow, 1.0)});
  schedule.points.push_back({"spill.*", spec_of(Shape::kStall, 1.0, 7.0)});
  schedule.points.push_back({"spill.write", spec_of(Shape::kCorrupt, 1.0)});
  ScopedChaos scoped(schedule);

  EXPECT_TRUE(spill_write.armed());
  EXPECT_TRUE(spill_read.armed());
  EXPECT_TRUE(task.armed());
  EXPECT_EQ(spill_write.decide(0).shape, Shape::kCorrupt);  // exact wins
  EXPECT_EQ(spill_read.decide(0).shape, Shape::kStall);     // longest prefix
  EXPECT_EQ(task.decide(0).shape, Shape::kThrow);           // wildcard floor
}

TEST(ChaosPlaneTest, UnmatchedPointsStayDisarmed) {
  auto& plane = ChaosPlane::instance();
  InjectionPoint& admit = plane.point(points::kDispatcherAdmit);
  plane.point(points::kSpillWrite);  // ensure one matching point exists
  ScopedChaos scoped(ChaosSchedule::uniform(1, spec_of(Shape::kThrow, 1.0), "spill.*"));
  EXPECT_FALSE(admit.armed());
  EXPECT_FALSE(admit.decide(0).fire);
  EXPECT_TRUE(plane.armed());  // the spill points exist and matched
}

TEST(ChaosPlaneTest, PointRegisteredAfterInstallInheritsSchedule) {
  ScopedChaos scoped(ChaosSchedule::uniform(9, spec_of(Shape::kThrow, 1.0)));
  InjectionPoint& late = ChaosPlane::instance().point("test.late-registration");
  EXPECT_TRUE(late.armed());
  EXPECT_TRUE(late.decide(0).fire);
}

TEST(ChaosPlaneTest, ScopedChaosDisarmsOnExit) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  {
    ScopedChaos scoped(ChaosSchedule::uniform(5, spec_of(Shape::kThrow, 1.0)));
    EXPECT_TRUE(task.armed());
    EXPECT_TRUE(ChaosPlane::instance().armed());
  }
  EXPECT_FALSE(task.armed());
  EXPECT_FALSE(ChaosPlane::instance().armed());
  EXPECT_FALSE(task.decide(1, 2, 3).fire);
}

// --- decision determinism --------------------------------------------------

TEST(ChaosDecisionTest, PureFunctionOfSeedAndCoordinates) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  // Coordinate c is the engine's attempt number: index i covers a = i / 3
  // with c = 1..3, so each task's attempts draw independently.
  constexpr std::uint64_t kDraws = 192;
  const auto decide_at = [&](std::uint64_t i) {
    const std::uint64_t a = i / 3;
    return task.decide(a, a / 2, 1 + i % 3).fire;
  };
  std::vector<bool> first;
  {
    ScopedChaos scoped(ChaosSchedule::uniform(77, spec_of(Shape::kThrow, 0.3)));
    for (std::uint64_t i = 0; i < kDraws; ++i) first.push_back(decide_at(i));
  }
  {
    ScopedChaos scoped(ChaosSchedule::uniform(77, spec_of(Shape::kThrow, 0.3)));
    for (std::uint64_t i = 0; i < kDraws; ++i) {
      EXPECT_EQ(decide_at(i), first[i]) << "draw " << i;
    }
  }
  // Attempts re-roll: some task fails attempt 1 and passes attempt 2.
  bool saw_recovery = false;
  for (std::uint64_t i = 0; i + 1 < kDraws; i += 3) {
    saw_recovery = saw_recovery || (first[i] && !first[i + 1]);
  }
  EXPECT_TRUE(saw_recovery);
  // A different seed reshuffles which coordinates fire.
  {
    ScopedChaos scoped(ChaosSchedule::uniform(78, spec_of(Shape::kThrow, 0.3)));
    bool any_difference = false;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
      any_difference = any_difference || decide_at(i) != first[i];
    }
    EXPECT_TRUE(any_difference);
  }
}

TEST(ChaosDecisionTest, EmpiricalRateTracksConfiguredRate) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  constexpr int kTrials = 20000;
  // Rate 0 never fires and rate 1 always fires; 0.2 fires about 20%.
  for (const double configured : {0.0, 0.2, 1.0}) {
    SCOPED_TRACE(testing::Message() << "rate " << configured);
    ScopedChaos scoped(ChaosSchedule::uniform(13, spec_of(Shape::kThrow, configured)));
    int fired = 0;
    for (int a = 0; a < kTrials; ++a) {
      if (task.decide(static_cast<std::uint64_t>(a)).fire) ++fired;
    }
    const double rate = static_cast<double>(fired) / kTrials;
    if (configured == 0.2) {
      EXPECT_NEAR(rate, 0.2, 0.02);
    } else {
      EXPECT_EQ(rate, configured);
    }
  }
}

TEST(ChaosDecisionTest, OpCountersResetPerInstall) {
  InjectionPoint& late = ChaosPlane::instance().point("test.op-reset");
  ScopedChaos scoped(ChaosSchedule::uniform(2, spec_of(Shape::kThrow, 0.0)));
  EXPECT_EQ(late.next_op(), 0u);
  EXPECT_EQ(late.next_op(), 1u);
  ChaosPlane::instance().install(ChaosSchedule::uniform(2, spec_of(Shape::kThrow, 0.0)));
  EXPECT_EQ(late.next_op(), 0u);  // fresh stream per installation
}

// --- inject() shapes -------------------------------------------------------

TEST(ChaosInjectTest, ThrowShapeRaisesChaosErrorAsDiasError) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  ScopedChaos scoped(ChaosSchedule::uniform(21, spec_of(Shape::kThrow, 1.0)));
  EXPECT_THROW(task.inject(0), ChaosError);
  try {
    task.inject(1);
    FAIL() << "expected ChaosError";
  } catch (const dias::error& e) {  // absorbable by every existing layer
    EXPECT_NE(std::string(e.what()).find("chaos"), std::string::npos);
  }
  EXPECT_GE(task.fired(), 2u);
}

TEST(ChaosInjectTest, CorruptShapeReturnsTrueForTheCallerToMangle) {
  InjectionPoint& write = ChaosPlane::instance().point(points::kSpillWrite);
  ScopedChaos scoped(ChaosSchedule::uniform(22, spec_of(Shape::kCorrupt, 1.0)));
  EXPECT_TRUE(write.inject(0));
}

TEST(ChaosInjectTest, StallShapeSleepsRoughlyTheConfiguredTime) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  ScopedChaos scoped(ChaosSchedule::uniform(23, spec_of(Shape::kStall, 1.0, 30.0)));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(task.inject(0));
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 25);
}

TEST(ChaosInjectTest, StallIsBoundedByMaxStallMs) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  // Absurd configured stall: arming clamps it to the hard ceiling, so
  // chaos can slow execution but never wedge it.
  ScopedChaos scoped(ChaosSchedule::uniform(24, spec_of(Shape::kStall, 1.0, 1e9)));
  EXPECT_LE(task.decide(0).stall_ms, kMaxStallMs);
}

TEST(ChaosInjectTest, CancellationCutsAStallShort) {
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  ScopedChaos scoped(ChaosSchedule::uniform(25, spec_of(Shape::kStall, 1.0, 1800.0)));
  CancellationToken token;
  token.request_cancel();
  const auto t0 = std::chrono::steady_clock::now();
  task.inject(0, 0, 0, &token);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(ms, 500);  // nowhere near the 1.8 s schedule
}

TEST(ChaosInjectTest, StallEndsWhenDoneFlips) {
  // The engine passes its task's done flag: a speculative copy completing
  // the partition ends the primary's stall.
  InjectionPoint& task = ChaosPlane::instance().point(points::kEngineTask);
  ScopedChaos scoped(ChaosSchedule::uniform(26, spec_of(Shape::kStall, 1.0, 1000.0)));
  std::atomic<bool> done{false};
  std::thread winner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.store(true, std::memory_order_release);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(task.inject(0, 0, 0, nullptr, &done));
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  winner.join();
  EXPECT_LT(ms, 500);  // nowhere near the 1 s schedule
}

// --- census ---------------------------------------------------------------

TEST(ChaosPlaneTest, EvaluationCensusCountsOnlyArmedDecisions) {
  auto& plane = ChaosPlane::instance();
  InjectionPoint& task = plane.point(points::kEngineTask);
  plane.clear();
  const std::uint64_t before = plane.evaluations();
  for (int i = 0; i < 100; ++i) task.decide(static_cast<std::uint64_t>(i));
  EXPECT_EQ(plane.evaluations(), before);  // disarmed: zero accounting work
  {
    ScopedChaos scoped(ChaosSchedule::uniform(1, spec_of(Shape::kThrow, 0.0)));
    for (int i = 0; i < 100; ++i) task.decide(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(plane.evaluations(), before + 100);
}

TEST(ChaosPlaneTest, PointNamesListsRegisteredPoints) {
  auto& plane = ChaosPlane::instance();
  plane.point(points::kEngineTask);
  plane.point(points::kSpillWrite);
  const auto names = plane.point_names();
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count(points::kEngineTask));
  EXPECT_TRUE(set.count(points::kSpillWrite));
}

}  // namespace
}  // namespace dias::chaos
