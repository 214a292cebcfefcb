#include "core/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace dias::core {
namespace {

bool is_map_like(engine::EngineStageKind kind) {
  return kind == engine::EngineStageKind::kMap;
}

// Task-weighted mean task time over a stage predicate.
template <typename Pred>
double weighted_mean(const std::vector<StageProfile>& stages, Pred pred) {
  double time = 0.0;
  double tasks = 0.0;
  for (const auto& s : stages) {
    if (!pred(s) || s.tasks == 0) continue;
    time += s.mean_task_time_s * static_cast<double>(s.tasks);
    tasks += static_cast<double>(s.tasks);
  }
  return tasks > 0.0 ? time / tasks : 0.0;
}

}  // namespace

double JobProfile::mean_map_task_time_s() const {
  return weighted_mean(stages, [](const StageProfile& s) { return is_map_like(s.kind); });
}

double JobProfile::mean_reduce_task_time_s() const {
  return weighted_mean(stages, [](const StageProfile& s) {
    return s.kind == engine::EngineStageKind::kReduce;
  });
}

double JobProfile::map_task_scv() const {
  for (const auto& s : stages) {
    if (is_map_like(s.kind) && s.tasks > 1) return s.task_scv;
  }
  return 1.0;
}

std::size_t JobProfile::map_tasks() const {
  std::size_t n = 0;
  for (const auto& s : stages) {
    if (is_map_like(s.kind)) n += s.tasks;
  }
  return n;
}

std::size_t JobProfile::reduce_tasks() const {
  std::size_t n = 0;
  for (const auto& s : stages) {
    if (s.kind == engine::EngineStageKind::kReduce) n += s.tasks;
  }
  return n;
}

JobProfile Profiler::profile_once(const JobBody& body, double theta) {
  DIAS_EXPECTS(theta >= 0.0 && theta < 1.0, "profiling theta must be in [0,1)");
  eng_->clear_stage_log();
  body(*eng_, theta);
  JobProfile profile;
  for (const auto& info : eng_->stage_log()) {
    StageProfile stage;
    stage.kind = info.kind;
    stage.tasks = info.executed_partitions;
    stage.stage_wall_time_s = info.duration_s;
    if (!info.task_times_s.empty()) {
      Welford acc;
      for (double t : info.task_times_s) acc.add(t);
      stage.mean_task_time_s = acc.mean();
      stage.task_scv = acc.mean() > 0.0 ? acc.variance() / (acc.mean() * acc.mean()) : 0.0;
    }
    profile.total_wall_time_s += info.duration_s;
    profile.stages.push_back(stage);
  }
  eng_->clear_stage_log();
  return profile;
}

model::JobClassProfile Profiler::build_class_profile(const JobBody& body,
                                                     double arrival_rate, int slots,
                                                     int repetitions) {
  DIAS_EXPECTS(repetitions >= 1, "need at least one profiling repetition");
  const auto average = [&](double theta) {
    JobProfile acc;
    double map_time = 0.0, reduce_time = 0.0, wall = 0.0;
    std::size_t map_tasks = 0, reduce_tasks = 0;
    double scv = 0.0;
    for (int r = 0; r < repetitions; ++r) {
      const JobProfile p = profile_once(body, theta);
      map_time += p.mean_map_task_time_s();
      reduce_time += p.mean_reduce_task_time_s();
      wall += p.total_wall_time_s;
      map_tasks = std::max(map_tasks, p.map_tasks());
      reduce_tasks = std::max(reduce_tasks, p.reduce_tasks());
      scv += p.map_task_scv();
      if (r == 0) acc = p;
    }
    const double n = static_cast<double>(repetitions);
    struct Avg {
      double map_task_time, reduce_task_time, wall, scv;
      std::size_t map_tasks, reduce_tasks;
    };
    return Avg{map_time / n, reduce_time / n, wall / n, scv / n, map_tasks, reduce_tasks};
  };

  const auto exact = average(0.0);
  const auto dropped = average(0.9);
  DIAS_EXPECTS(exact.map_tasks >= 1, "profiled job has no map tasks");

  model::JobClassProfile profile;
  profile.arrival_rate = arrival_rate;
  profile.slots = slots;
  profile.map_task_pmf.assign(exact.map_tasks, 0.0);
  profile.map_task_pmf.back() = 1.0;
  const std::size_t reduce_tasks = std::max<std::size_t>(exact.reduce_tasks, 1);
  profile.reduce_task_pmf.assign(reduce_tasks, 0.0);
  profile.reduce_task_pmf.back() = 1.0;
  profile.map_rate = 1.0 / std::max(exact.map_task_time, 1e-9);
  profile.reduce_rate =
      exact.reduce_task_time > 0.0 ? 1.0 / exact.reduce_task_time : 1.0e3;
  profile.shuffle_rate = 1.0e3;  // shuffle time folds into the overhead below

  // Overhead = wall time not explained by task execution on `slots` slots.
  const auto overhead = [&](const auto& run, std::size_t map_tasks) {
    const double task_wall =
        run.map_task_time * std::ceil(static_cast<double>(map_tasks) /
                                      static_cast<double>(slots)) +
        run.reduce_task_time * std::ceil(static_cast<double>(reduce_tasks) /
                                         static_cast<double>(slots));
    return std::max(run.wall - task_wall, 1e-6);
  };
  profile.mean_overhead_theta0 = overhead(exact, exact.map_tasks);
  // Dropping only removes work, so a theta=0.9 overhead above the theta=0
  // one is scheduling noise (a straggler or preempted worker inflates the
  // wall far more than the mean task time). Capping it keeps the modeled
  // processing time non-increasing in theta.
  profile.mean_overhead_theta90 =
      std::min(overhead(dropped, dropped.map_tasks), profile.mean_overhead_theta0);
  return profile;
}

model::PhaseType Profiler::fit_wave_distribution(const JobProfile& profile,
                                                 int slots) const {
  DIAS_EXPECTS(slots >= 1, "slots must be positive");
  // The wave mean comes from the *measured* stage wall time divided by the
  // wave count, so straggler/max-of-slots effects the per-task mean misses
  // are captured automatically (the paper fits per-wave distributions from
  // profiling runs the same way).
  double wall = 0.0;
  double waves = 0.0;
  for (const auto& s : profile.stages) {
    if (!is_map_like(s.kind) || s.tasks == 0) continue;
    wall += s.stage_wall_time_s;
    waves += std::ceil(static_cast<double>(s.tasks) / static_cast<double>(slots));
  }
  DIAS_EXPECTS(waves > 0.0, "profile has no map task measurements");
  const double mean_wave = wall / waves;
  DIAS_EXPECTS(mean_wave > 0.0, "measured wave time must be positive");
  // Wave makespans concentrate relative to task times (max of `slots`
  // near-equal tasks); shrink the measured per-task scv accordingly,
  // floored at kMinWaveScv to bound the fitted Erlang chain.
  const double scv =
      std::max(profile.map_task_scv() / static_cast<double>(slots), kMinWaveScv);
  return model::PhaseType::fit_two_moments(mean_wave, scv);
}

}  // namespace dias::core
