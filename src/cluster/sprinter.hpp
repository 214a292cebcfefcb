// Computational sprinter configuration (paper Sections 2.3, 3.2).
//
// Sprinting spends an energy budget (Joules). While a job sprints, the
// budget drains at the *extra* power drawn by the high frequency
// (sprint_power - base_power); while idle it replenishes at a configured
// rate up to a cap (e.g. "6 sprinting minutes per hour"). A job sprints
// from its class timeout Tk until it completes or the budget depletes.
//
// The accounting itself is runtime::EnergyBudget, the one policy shared
// with the real-engine SprintGovernor; the simulator holds one built from
// SprintConfig::energy_config() and feeds it simulation time.
#pragma once

#include <limits>
#include <vector>

#include "runtime/energy_budget.hpp"

namespace dias::cluster {

// When does a job start sprinting?
enum class SprintPolicy {
  // Classic time-based policy (the paper's): a class-k job sprints once its
  // timeout Tk elapses after dispatch.
  kTimeout,
  // Drain-pressure extension: additionally, the *running* job sprints as
  // soon as a strictly-higher-priority job is waiting behind it -- spending
  // the budget to drain the blocker is what non-preemptive DiAS needs most.
  // Class timeouts still apply on top.
  kDrainPressure,
};

struct SprintConfig {
  bool enabled = false;
  SprintPolicy policy = SprintPolicy::kTimeout;
  // Execution speedup while sprinting (rates multiply by this); the paper
  // observes up to 60% execution-time reduction, i.e. a 2.5x speedup.
  double speedup = 2.5;
  double base_power_w = 180.0;
  double sprint_power_w = 270.0;
  // Initial/total budget in Joules; infinity = unlimited sprinting.
  double budget_joules = std::numeric_limits<double>::infinity();
  // Replenish rate (Watts) and cap for the budget.
  double replenish_watts = 0.0;
  double budget_cap_joules = std::numeric_limits<double>::infinity();
  // Per-class sprint timeout Tk in seconds since dispatch; infinity = the
  // class never sprints; 0 = sprint immediately ("unlimited" scenarios).
  std::vector<double> timeout_s;

  double timeout_for_class(std::size_t priority) const {
    if (!enabled || priority >= timeout_s.size()) {
      return std::numeric_limits<double>::infinity();
    }
    return timeout_s[priority];
  }
  double extra_power() const { return sprint_power_w - base_power_w; }

  // The budget-relevant slice of this config, in the shared policy's terms.
  runtime::EnergyBudgetConfig energy_config() const {
    runtime::EnergyBudgetConfig e;
    e.base_power_w = base_power_w;
    e.sprint_power_w = sprint_power_w;
    e.budget_joules = budget_joules;
    e.replenish_watts = replenish_watts;
    e.budget_cap_joules = budget_cap_joules;
    return e;
  }
};

}  // namespace dias::cluster
