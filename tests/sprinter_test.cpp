// SprintConfig lookups, and the sprint budget semantics the simulator
// relies on, run against the runtime::EnergyBudget it holds.
#include "cluster/sprinter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "runtime/energy_budget.hpp"

namespace dias::cluster {
namespace {

SprintConfig limited_config() {
  SprintConfig c;
  c.enabled = true;
  c.speedup = 2.5;
  c.base_power_w = 180.0;
  c.sprint_power_w = 270.0;  // extra power 90 W
  c.budget_joules = 900.0;   // 10 s of sprinting
  c.replenish_watts = 0.0;
  c.timeout_s = {std::numeric_limits<double>::infinity(), 65.0};
  return c;
}

TEST(SprintConfigTest, TimeoutLookup) {
  const auto c = limited_config();
  EXPECT_TRUE(std::isinf(c.timeout_for_class(0)));
  EXPECT_DOUBLE_EQ(c.timeout_for_class(1), 65.0);
  EXPECT_TRUE(std::isinf(c.timeout_for_class(2)));  // beyond vector
  SprintConfig off = c;
  off.enabled = false;
  EXPECT_TRUE(std::isinf(off.timeout_for_class(1)));
  EXPECT_DOUBLE_EQ(c.extra_power(), 90.0);
}

TEST(SprintBudgetTest, DrainsAtExtraPower) {
  runtime::EnergyBudget b(limited_config().energy_config(), 0.0);
  EXPECT_DOUBLE_EQ(b.level(0.0), 900.0);
  const double deplete = b.begin_sprint(0.0);
  EXPECT_NEAR(deplete, 10.0, 1e-12);  // 900 J / 90 W
  EXPECT_NEAR(b.level(5.0), 450.0, 1e-9);
  b.end_sprint(5.0);
  EXPECT_NEAR(b.level(100.0), 450.0, 1e-9);  // no replenish configured
  EXPECT_NEAR(b.consumed(100.0), 450.0, 1e-9);
}

TEST(SprintBudgetTest, DepletesToZero) {
  runtime::EnergyBudget b(limited_config().energy_config(), 0.0);
  b.begin_sprint(0.0);
  EXPECT_NEAR(b.level(10.0), 0.0, 1e-9);
  EXPECT_FALSE(b.has_budget(10.0));
  EXPECT_NEAR(b.level(20.0), 0.0, 1e-9);  // clamped, not negative
  b.end_sprint(12.0);
  // Ending past depletion draws nothing extra: with no replenishment an
  // empty battery supplies nothing, so consumption stops at the budget.
  EXPECT_NEAR(b.consumed(12.0), 900.0, 1e-9);
}

TEST(SprintBudgetTest, ReplenishesUpToCap) {
  auto c = limited_config();
  c.replenish_watts = 30.0;
  c.budget_cap_joules = 1000.0;
  runtime::EnergyBudget b(c.energy_config(), 0.0);
  // Idle: grows 30 J/s up to the cap.
  EXPECT_NEAR(b.level(2.0), 960.0, 1e-9);
  EXPECT_NEAR(b.level(10.0), 1000.0, 1e-9);  // capped
}

TEST(SprintBudgetTest, ReplenishSlowsDrain) {
  auto c = limited_config();
  c.replenish_watts = 30.0;  // net drain 60 W
  runtime::EnergyBudget b(c.energy_config(), 0.0);
  const double deplete = b.begin_sprint(0.0);
  EXPECT_NEAR(deplete, 900.0 / 60.0, 1e-9);
  EXPECT_NEAR(b.level(5.0), 900.0 - 60.0 * 5.0, 1e-9);
}

TEST(SprintBudgetTest, ReplenishCoveringDrainNeverDepletes) {
  auto c = limited_config();
  c.replenish_watts = 90.0;  // equals extra power
  runtime::EnergyBudget b(c.energy_config(), 0.0);
  EXPECT_TRUE(std::isinf(b.begin_sprint(0.0)));
  EXPECT_NEAR(b.level(100.0), 900.0, 1e-9);
}

TEST(SprintBudgetTest, UnlimitedBudget) {
  auto c = limited_config();
  c.budget_joules = std::numeric_limits<double>::infinity();
  runtime::EnergyBudget b(c.energy_config(), 0.0);
  EXPECT_TRUE(std::isinf(b.begin_sprint(0.0)));
  EXPECT_TRUE(b.has_budget(1e9));
  // Consumption is still tracked for energy accounting.
  b.end_sprint(10.0);
  EXPECT_NEAR(b.consumed(10.0), 900.0, 1e-9);
}

TEST(SprintBudgetTest, StateMachineGuards) {
  runtime::EnergyBudget b(limited_config().energy_config(), 0.0);
  EXPECT_THROW(b.end_sprint(0.0), dias::precondition_error);
  b.begin_sprint(1.0);
  EXPECT_THROW(b.begin_sprint(2.0), dias::precondition_error);
  EXPECT_THROW(b.level(0.5), dias::precondition_error);  // time moved backwards
}

// The speedup bound is the simulator's (ClusterSimulatorTest.
// SprintSpeedupValidation); the budget bounds are the shared policy's.
TEST(SprintBudgetTest, ConfigValidation) {
  auto c = limited_config();
  c.sprint_power_w = 100.0;  // below base
  EXPECT_THROW(runtime::EnergyBudget(c.energy_config(), 0.0), dias::precondition_error);
  c = limited_config();
  c.replenish_watts = -1.0;
  EXPECT_THROW(runtime::EnergyBudget(c.energy_config(), 0.0), dias::precondition_error);
}

}  // namespace
}  // namespace dias::cluster
