// Host-agnostic sprint energy accounting (paper Sections 2.3, 3.2).
//
// One policy, two hosts: this is the single implementation of the DVFS
// budget semantics shared by the cluster *simulator* (which holds one built
// from cluster::SprintConfig::energy_config(), feeding simulation time) and
// the real-engine runtime (runtime::SprintGovernor, feeding wall-clock
// seconds). The budget holds
// Joules; while a sprint is active it drains at the *extra* power drawn by
// the high frequency (sprint_power - base_power) net of replenishment;
// while idle it replenishes at the configured rate up to a cap (e.g. "6
// sprinting minutes per hour"). Accounting is lazy: the stored level is
// valid as of the last event; queries advance a copy to `now`.
//
// Callers own the clock. Time is monotone seconds (double) from any epoch;
// feeding a `now` earlier than the previous event is a precondition error.
// The class is not synchronized — the simulator is single-threaded and the
// governor serializes access behind its own mutex.
#pragma once

#include <limits>

#include "obs/metrics.hpp"

namespace dias::runtime {

struct EnergyBudgetConfig {
  double base_power_w = 180.0;
  double sprint_power_w = 270.0;
  // Initial/total budget in Joules; infinity = unlimited sprinting.
  double budget_joules = std::numeric_limits<double>::infinity();
  // Replenish rate (Watts) and cap for the budget.
  double replenish_watts = 0.0;
  double budget_cap_joules = std::numeric_limits<double>::infinity();

  double extra_power() const { return sprint_power_w - base_power_w; }
};

class EnergyBudget {
 public:
  EnergyBudget(const EnergyBudgetConfig& config, double now);

  // Current budget level at time `now`.
  double level(double now) const;
  bool has_budget(double now) const { return level(now) > 1e-9; }

  // Marks the start of a sprint at `now`. Returns the time at which the
  // budget will deplete if the sprint never ends (infinity when the
  // replenish rate covers the drain or the budget is unlimited). Hosts
  // should end the sprint no later than the returned depletion time; if a
  // wall-clock host revokes a scheduler-latency late, the drain past the
  // depletion point is capped at the replenishment inflow, so the
  // conservation invariant — consumed never exceeds the initial budget
  // plus replenishment — holds regardless.
  double begin_sprint(double now);
  // Marks the end of the sprint at `now`.
  void end_sprint(double now);

  bool sprinting() const { return sprinting_; }
  // Total Joules drained by sprints so far (extra power integrated).
  double consumed(double now) const;

  const EnergyBudgetConfig& config() const { return config_; }

  // Mirrors the budget level (Joules) and cumulative consumption into
  // gauges on every state change (null detaches). Levels are as of the
  // begin/end sprint events — lazy advancement means intermediate decay is
  // not published.
  void attach_gauges(obs::Gauge* level, obs::Gauge* consumed);

 private:
  void advance(double now);
  void publish() const;

  EnergyBudgetConfig config_;
  double level_;
  double consumed_ = 0.0;
  double last_update_;
  bool sprinting_ = false;
  obs::Gauge* level_gauge_ = nullptr;
  obs::Gauge* consumed_gauge_ = nullptr;
};

}  // namespace dias::runtime
