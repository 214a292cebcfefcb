// Offline workload profiler: turns real engine runs into model inputs.
//
// The paper parameterizes its stochastic models "via simple linear
// regressions" from profiling runs: per-stage task execution times, plus
// the job overhead measured at theta = 0 and theta = 0.9 (Section 4.3).
// This module does the same against the mini MapReduce engine: it inspects
// the engine's stage log after profiling runs and produces
//   (a) a model::JobClassProfile for the deflator / response-time model,
//   (b) fitted PH wave distributions for the wave-level model.
#pragma once

#include <functional>
#include <vector>

#include "engine/engine.hpp"
#include "model/phase_type.hpp"
#include "model/response_time_model.hpp"
#include "model/wave_level_model.hpp"

namespace dias::core {

// Aggregated measurements of one profiling run (one job execution).
struct StageProfile {
  engine::EngineStageKind kind = engine::EngineStageKind::kMap;
  std::size_t tasks = 0;        // executed tasks
  double mean_task_time_s = 0;  // average task duration
  double task_scv = 1.0;        // squared coefficient of variation
  double stage_wall_time_s = 0; // barrier-to-barrier wall time
};

struct JobProfile {
  std::vector<StageProfile> stages;
  double total_wall_time_s = 0.0;

  // Totals across map-like (droppable) and reduce stages.
  double mean_map_task_time_s() const;
  double mean_reduce_task_time_s() const;
  double map_task_scv() const;
  std::size_t map_tasks() const;
  std::size_t reduce_tasks() const;
};

class Profiler {
 public:
  // A job body runs the analysis through `eng` at the given drop ratio
  // (e.g. a word_count or triangle_count closure).
  using JobBody = std::function<void(engine::Engine& eng, double theta)>;

  explicit Profiler(engine::Engine& eng) : eng_(&eng) {}

  // Runs the body once at `theta` and extracts per-stage measurements from
  // the engine's stage log.
  JobProfile profile_once(const JobBody& body, double theta);

  // Full paper-style profiling: runs at theta = 0 and theta = 0.9,
  // averaging `repetitions` runs each, and assembles a JobClassProfile
  // whose overhead endpoints come from the measured non-task wall time
  // (the theta=0.9 endpoint capped at the theta=0 one).
  // `arrival_rate` and `slots` parameterize the queueing side.
  model::JobClassProfile build_class_profile(const JobBody& body, double arrival_rate,
                                             int slots, int repetitions = 3);

  // Fits a PH wave-execution-time distribution (two-moment fit over the
  // per-wave makespans implied by `slots`) for the wave-level model. The
  // wave scv is floored at kMinWaveScv, which caps the fitted Erlang chain
  // at ceil(1 / kMinWaveScv) = 251 phases; the floor sits just under 4e-3
  // because the fitted scv carries ~1e-14 rounding.
  static constexpr double kMinWaveScv = 3.99e-3;
  model::PhaseType fit_wave_distribution(const JobProfile& profile, int slots) const;

 private:
  engine::Engine* eng_;
};

}  // namespace dias::core
