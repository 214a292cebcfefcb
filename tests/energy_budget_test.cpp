// Budget-conservation regression shared by the two sprint hosts: the
// cluster simulator and the runtime SprintGovernor both run on
// runtime::EnergyBudget. Over seeded random sprint traces it checks
//   * conservation: energy consumed never exceeds the initial budget plus
//     replenishment accrued over the elapsed time;
//   * level bounds: 0 <= level <= cap at every observation point;
// and that the simulator's SprintConfig maps every budget field.
#include "runtime/energy_budget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/sprinter.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace dias::runtime {
namespace {

EnergyBudgetConfig small_budget() {
  EnergyBudgetConfig c;
  c.base_power_w = 180.0;
  c.sprint_power_w = 270.0;  // extra power 90 W
  c.budget_joules = 450.0;   // 5 s of sprinting from full
  c.replenish_watts = 9.0;
  c.budget_cap_joules = 450.0;
  return c;
}

// One seeded begin/end trace: alternating idle gaps and sprint windows,
// with every sprint clipped to the depletion time begin_sprint() predicts
// (the contract both hosts honor).
struct TraceEvent {
  double begin = 0.0;
  double end = 0.0;
};

std::vector<TraceEvent> make_trace(const EnergyBudgetConfig& config, std::uint64_t seed,
                                   int sprints) {
  // Build against a scratch budget so depletion clipping matches exactly
  // what any replaying host will see.
  EnergyBudget scratch(config, 0.0);
  Rng rng(seed);
  std::vector<TraceEvent> trace;
  double t = 0.0;
  for (int i = 0; i < sprints; ++i) {
    t += rng.exponential(0.5);  // idle gap, mean 2 s
    const double depletion = scratch.begin_sprint(t);
    double end = t + rng.exponential(0.25);  // wanted sprint, mean 4 s
    if (std::isfinite(depletion)) end = std::min(end, depletion);
    scratch.end_sprint(end);
    trace.push_back({t, end});
    t = end;
  }
  return trace;
}

TEST(EnergyBudgetTest, ConservationOverSeededTraces) {
  const auto config = small_budget();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto trace = make_trace(config, seed, 40);
    EnergyBudget budget(config, 0.0);
    for (const auto& ev : trace) {
      budget.begin_sprint(ev.begin);
      budget.end_sprint(ev.end);
      // Invariant at every event: total joules drained can never exceed
      // what the battery ever held — initial charge plus replenishment
      // integrated over all elapsed time.
      const double ceiling = config.budget_joules + config.replenish_watts * ev.end;
      EXPECT_LE(budget.consumed(ev.end), ceiling + 1e-6) << "seed " << seed;
      EXPECT_GE(budget.level(ev.end), 0.0) << "seed " << seed;
      EXPECT_LE(budget.level(ev.end), config.budget_cap_joules + 1e-9) << "seed " << seed;
    }
  }
}

TEST(EnergyBudgetTest, SprintConfigMapsEveryBudgetField) {
  // The simulator builds its budget from SprintConfig::energy_config(), the
  // one mapping between the two hosts' configs: all five fields must copy.
  cluster::SprintConfig sim_config;
  sim_config.base_power_w = 150.0;
  sim_config.sprint_power_w = 240.0;
  sim_config.budget_joules = 450.0;
  sim_config.replenish_watts = 9.0;
  sim_config.budget_cap_joules = 600.0;
  const EnergyBudgetConfig e = sim_config.energy_config();
  EXPECT_EQ(e.base_power_w, 150.0);
  EXPECT_EQ(e.sprint_power_w, 240.0);
  EXPECT_EQ(e.budget_joules, 450.0);
  EXPECT_EQ(e.replenish_watts, 9.0);
  EXPECT_EQ(e.budget_cap_joules, 600.0);
  EXPECT_EQ(e.extra_power(), sim_config.extra_power());
}

TEST(EnergyBudgetTest, ReplenishesWhileIdleUpToCap) {
  auto config = small_budget();
  config.budget_joules = 100.0;
  config.budget_cap_joules = 300.0;
  EnergyBudget budget(config, 0.0);
  EXPECT_DOUBLE_EQ(budget.level(0.0), 100.0);
  EXPECT_DOUBLE_EQ(budget.level(10.0), 190.0);   // +9 W * 10 s
  EXPECT_DOUBLE_EQ(budget.level(1000.0), 300.0); // clamped at the cap
  EXPECT_DOUBLE_EQ(budget.consumed(1000.0), 0.0);
}

TEST(EnergyBudgetTest, DepletionTimePredictsEmptyBattery) {
  const auto config = small_budget();  // net drain 81 W from 450 J
  EnergyBudget budget(config, 0.0);
  const double depletion = budget.begin_sprint(0.0);
  EXPECT_NEAR(depletion, 450.0 / 81.0, 1e-12);
  budget.end_sprint(depletion);
  EXPECT_NEAR(budget.level(depletion), 0.0, 1e-9);
  // Consumption includes the replenishment that flowed in during the
  // sprint: extra_power * duration.
  EXPECT_NEAR(budget.consumed(depletion), 90.0 * depletion, 1e-9);
}

TEST(EnergyBudgetTest, UnlimitedBudgetNeverDepletes) {
  EnergyBudgetConfig config;  // default: infinite budget
  EnergyBudget budget(config, 0.0);
  EXPECT_TRUE(std::isinf(budget.begin_sprint(1.0)));
  budget.end_sprint(100.0);
  EXPECT_TRUE(budget.has_budget(100.0));
  EXPECT_NEAR(budget.consumed(100.0), 90.0 * 99.0, 1e-6);
}

TEST(EnergyBudgetTest, GaugesMirrorStateChanges) {
  obs::Registry reg;
  EnergyBudget budget(small_budget(), 0.0);
  budget.attach_gauges(&reg.gauge("level"), &reg.gauge("consumed"));
  EXPECT_DOUBLE_EQ(reg.gauge("level").value(), 450.0);
  budget.begin_sprint(0.0);
  budget.end_sprint(2.0);
  EXPECT_NEAR(reg.gauge("level").value(), 450.0 - 81.0 * 2.0, 1e-9);
  EXPECT_NEAR(reg.gauge("consumed").value(), 180.0, 1e-9);
}

TEST(EnergyBudgetTest, Validation) {
  EnergyBudgetConfig bad = small_budget();
  bad.sprint_power_w = 100.0;  // below base power
  EXPECT_THROW(EnergyBudget(bad, 0.0), dias::precondition_error);
  bad = small_budget();
  bad.replenish_watts = -1.0;
  EXPECT_THROW(EnergyBudget(bad, 0.0), dias::precondition_error);
  bad = small_budget();
  bad.budget_joules = -5.0;
  EXPECT_THROW(EnergyBudget(bad, 0.0), dias::precondition_error);
  EnergyBudget budget(small_budget(), 10.0);
  EXPECT_THROW(budget.level(5.0), dias::precondition_error);  // time reversal
  EXPECT_THROW(budget.end_sprint(11.0), dias::precondition_error);  // no sprint
}

}  // namespace
}  // namespace dias::runtime
