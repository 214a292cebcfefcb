#include "cluster/cluster_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/error.hpp"
#include "model/task_level_model.hpp"  // effective_tasks

namespace dias::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

struct ClusterSimulator::Impl {
  // --- static configuration ----------------------------------------------
  Config config;
  std::vector<TraceEntry> trace;

  // --- runtime state ------------------------------------------------------
  sim::Simulator sim;
  Rng rng;

  struct RuntimeJob {
    std::size_t id = 0;
    JobSpec spec;
    double arrival = 0.0;
    // Sampled base-speed durations of the *effective* (post-drop) tasks,
    // per stage. Fixed at arrival so re-executions repeat identical work.
    std::vector<std::vector<double>> task_times;

    // Durations not yet started in the current attempt, per stage. Restart
    // eviction refills this from task_times; resume eviction only returns
    // the in-flight tasks.
    std::vector<std::deque<double>> pending;

    std::size_t stage = 0;
    double attempt_start = 0.0;
    double engine_time = 0.0;  // cumulative time holding the engine
    double wasted = 0.0;       // machine time lost to evictions
    std::size_t evictions = 0;

    void reset_pending() {
      pending.clear();
      pending.reserve(task_times.size());
      for (const auto& ts : task_times) pending.emplace_back(ts.begin(), ts.end());
      stage = 0;
    }
  };

  struct RunningTask {
    double remaining_work;  // base-speed seconds left as of last_touch
    double work_total;      // original sampled duration
    double last_touch;
    std::uint64_t group;    // logical task id; speculative copies share it
    std::size_t slot;       // executor slot running this task
    sim::EventId completion;
  };

  // Observability handles, cached from Config::metrics at construction so
  // the simulation loop never does name lookups; all empty/null when the
  // sinks are not attached.
  struct ObsHooks {
    obs::Tracer* tracer = nullptr;
    std::vector<obs::Counter*> completed;         // per class
    std::vector<obs::Counter*> evictions;         // per class, at evict time
    std::vector<obs::HistogramMetric*> response;  // per class sojourn
    std::vector<obs::HistogramMetric*> queueing;  // per class wait
    std::vector<obs::Gauge*> queue_len;           // per class backlog
    obs::Counter* sprints = nullptr;
    bool metrics_on() const { return sprints != nullptr; }
  };
  ObsHooks obs;

  std::vector<std::deque<std::unique_ptr<RuntimeJob>>> buffers;  // per class
  std::unique_ptr<RuntimeJob> active;        // job in the engine (if any)
  std::vector<RunningTask> running;          // its in-flight tasks
  std::uint64_t next_group = 1;              // logical task ids
  std::vector<std::size_t> free_slots;       // idle executor slots
  double speed = 1.0;                        // 1.0 or sprint speedup
  sim::EventId sprint_timer{};               // pending sprint-start
  sim::EventId sprint_end_timer{};           // pending budget depletion
  bool job_sprinting = false;
  runtime::EnergyBudget budget;

  // --- accounting ---------------------------------------------------------
  double segment_start = 0.0;  // start of the current busy/idle power segment
  double busy_base = 0.0;
  double busy_sprint = 0.0;
  std::size_t completions = 0;
  SimResult result;

  Impl(Config cfg, std::vector<TraceEntry> tr)
      : config(std::move(cfg)),
        trace(std::move(tr)),
        rng(config.seed),
        budget(config.sprint.energy_config(), 0.0) {
    DIAS_EXPECTS(config.slots >= 1, "cluster needs at least one slot");
    DIAS_EXPECTS(config.sprint.speedup >= 1.0, "sprint speedup must be >= 1");
    DIAS_EXPECTS(config.slot_speed_factors.empty() ||
                     config.slot_speed_factors.size() ==
                         static_cast<std::size_t>(config.slots),
                 "one speed factor per slot required");
    for (double f : config.slot_speed_factors) {
      DIAS_EXPECTS(f > 0.0, "slot speed factors must be positive");
    }
    reset_free_slots();
    std::size_t classes = 1;
    for (const auto& e : trace) classes = std::max(classes, e.spec.priority + 1);
    buffers.resize(classes);
    result.per_class.resize(classes);
    obs.tracer = config.tracer;
    if (config.metrics != nullptr) {
      auto& reg = *config.metrics;
      for (std::size_t k = 0; k < classes; ++k) {
        const std::string p = "cluster.class" + std::to_string(k);
        obs.completed.push_back(&reg.counter(p + ".completed"));
        obs.evictions.push_back(&reg.counter(p + ".evictions"));
        obs.response.push_back(&reg.histogram(p + ".response_s", 0.0, 3600.0, 360));
        obs.queueing.push_back(&reg.histogram(p + ".queueing_s", 0.0, 3600.0, 360));
        obs.queue_len.push_back(&reg.gauge(p + ".queue_length"));
      }
      obs.sprints = &reg.counter("cluster.sprints");
      budget.attach_gauges(&reg.gauge("cluster.sprint.budget_j"),
                           &reg.gauge("cluster.sprint.consumed_j"));
    }
  }

  void publish_queue_len(std::size_t k) {
    if (!obs.queue_len.empty()) {
      obs.queue_len[k]->set(static_cast<double>(buffers[k].size()));
    }
  }

  double slot_factor(std::size_t slot) const {
    return config.slot_speed_factors.empty() ? 1.0 : config.slot_speed_factors[slot];
  }

  void reset_free_slots() {
    free_slots.clear();
    for (int i = 0; i < config.slots; ++i) {
      free_slots.push_back(static_cast<std::size_t>(i));
    }
  }

  // Claims the fastest idle slot (greedy assignment on heterogeneous
  // clusters). Precondition: a slot is free.
  std::size_t claim_slot() {
    DIAS_EXPECTS(!free_slots.empty(), "no free slot to claim");
    std::size_t best = 0;
    for (std::size_t i = 1; i < free_slots.size(); ++i) {
      if (slot_factor(free_slots[i]) > slot_factor(free_slots[best])) best = i;
    }
    const std::size_t slot = free_slots[best];
    free_slots.erase(free_slots.begin() + static_cast<std::ptrdiff_t>(best));
    return slot;
  }

  // Splits elapsed busy time into base/sprint buckets.
  void account(double now) {
    if (active) {
      const double dt = now - segment_start;
      if (job_sprinting) {
        busy_sprint += dt;
      } else {
        busy_base += dt;
      }
    }
    segment_start = now;
  }

  double sample_task_time(double mean, double scv) {
    DIAS_EXPECTS(mean > 0.0, "task time mean must be positive");
    double duration = mean;
    switch (config.task_time_family) {
      case TaskTimeFamily::kDeterministic:
        break;
      case TaskTimeFamily::kExponential:
        duration = rng.exponential(1.0 / mean);
        break;
      case TaskTimeFamily::kLogNormal: {
        if (scv <= 0.0) break;
        const double sigma2 = std::log(1.0 + scv);
        const double mu = std::log(mean) - 0.5 * sigma2;
        duration = rng.lognormal(mu, std::sqrt(sigma2));
        break;
      }
    }
    if (config.stragglers.probability > 0.0 &&
        rng.bernoulli(config.stragglers.probability)) {
      duration *= config.stragglers.slowdown;
      ++result.straggler_tasks;
    }
    return duration;
  }

  // Samples the post-drop work of a job once, at arrival.
  std::unique_ptr<RuntimeJob> materialize(std::size_t id, const JobSpec& spec, double arrival) {
    auto job = std::make_unique<RuntimeJob>();
    job->id = id;
    job->spec = spec;
    job->arrival = arrival;
    const double theta = config.scheduler.theta_for_class(spec.priority);
    job->task_times.reserve(spec.stages.size());
    for (const auto& stage : spec.stages) {
      const int eff = is_droppable(stage.kind)
                          ? model::effective_tasks(stage.tasks, theta)
                          : stage.tasks;
      // Non-droppable overhead stages shrink with theta per their profiled
      // factor (linear between theta = 0 and theta = 0.9, clamped beyond).
      double mean = stage.mean_task_time;
      if (!is_droppable(stage.kind) && stage.time_factor_at_theta90 != 1.0 && theta > 0.0) {
        const double w = std::min(theta / 0.9, 1.0);
        mean *= 1.0 + (stage.time_factor_at_theta90 - 1.0) * w;
      }
      std::vector<double> times;
      times.reserve(static_cast<std::size_t>(eff));
      for (int t = 0; t < eff; ++t) {
        times.push_back(sample_task_time(mean, stage.task_time_scv));
      }
      job->task_times.push_back(std::move(times));
    }
    job->reset_pending();
    return job;
  }

  // --- engine mechanics ----------------------------------------------------

  // Recomputes remaining work of in-flight tasks before a speed change or
  // before cancelling their completion events.
  void touch_running(double now) {
    for (auto& t : running) {
      t.remaining_work -= (now - t.last_touch) * speed * slot_factor(t.slot);
      t.remaining_work = std::max(0.0, t.remaining_work);
      t.last_touch = now;
    }
  }

  void schedule_completion(RunningTask& task, double now) {
    task.completion =
        sim.schedule_at(now + task.remaining_work / (speed * slot_factor(task.slot)),
                        [this] { on_task_complete(); });
  }

  void reschedule_all(double now) {
    for (auto& t : running) {
      sim.cancel(t.completion);
      schedule_completion(t, now);
    }
  }

  // GRASS-style tail dropping: abandon the last in-flight tasks of a
  // droppable stage once at most ceil(ratio * effective_tasks) remain.
  bool maybe_drop_tail() {
    const auto& cfg = config.stragglers;
    if (cfg.mitigation != StragglerConfig::Mitigation::kDropTail) return false;
    RuntimeJob& job = *active;
    if (running.empty() || !job.pending[job.stage].empty()) return false;
    if (job.stage >= job.spec.stages.size() ||
        !is_droppable(job.spec.stages[job.stage].kind)) {
      return false;
    }
    const auto effective = static_cast<double>(job.task_times[job.stage].size());
    const auto threshold =
        static_cast<std::size_t>(std::ceil(cfg.tail_drop_ratio * effective - 1e-12));
    if (running.size() > threshold) return false;
    for (auto& t : running) {
      sim.cancel(t.completion);
      free_slots.push_back(t.slot);
    }
    result.tail_dropped_tasks += running.size();
    running.clear();
    ++job.stage;
    return true;
  }

  // Spark-style speculation: idle slots at a stage tail run backup copies.
  void maybe_speculate(double now) {
    const auto& cfg = config.stragglers;
    if (cfg.mitigation != StragglerConfig::Mitigation::kSpeculate) return;
    RuntimeJob& job = *active;
    if (running.empty() || !job.pending[job.stage].empty()) return;
    if (job.stage >= job.spec.stages.size()) return;
    const auto& stage_spec = job.spec.stages[job.stage];
    // Duplicate the slowest un-copied tasks first.
    std::vector<std::size_t> order(running.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return running[a].remaining_work > running[b].remaining_work;
    });
    for (std::size_t i : order) {
      if (free_slots.empty()) break;
      const std::uint64_t group = running[i].group;
      bool has_copy = false;
      for (const auto& t : running) {
        if (t.group == group && &t != &running[i]) has_copy = true;
      }
      if (has_copy) continue;
      const double work = sample_task_time(stage_spec.mean_task_time,
                                           stage_spec.task_time_scv);
      RunningTask copy{work, work, now, group, claim_slot(), {}};
      schedule_completion(copy, now);
      running.push_back(copy);
      ++result.speculative_copies;
    }
  }

  // Starts tasks of the current stage until slots are exhausted. Advances
  // through empty stages. Returns false when the job has finished.
  bool fill_slots(double now) {
    RuntimeJob& job = *active;
    for (;;) {
      if (job.stage >= job.pending.size()) {
        return !running.empty();  // finished only when nothing is in flight
      }
      auto& stage_pending = job.pending[job.stage];
      while (!stage_pending.empty() && !free_slots.empty()) {
        const double work = stage_pending.front();
        stage_pending.pop_front();
        RunningTask t{work, work, now, next_group++, claim_slot(), {}};
        schedule_completion(t, now);
        running.push_back(t);
      }
      if (!running.empty()) {
        if (maybe_drop_tail()) continue;  // stage tail abandoned: next stage
        maybe_speculate(now);
        return true;
      }
      // Stage had no tasks left (possibly zero after dropping): advance.
      if (stage_pending.empty()) {
        ++job.stage;
        continue;
      }
      return true;
    }
  }

  void on_task_complete() {
    const double now = sim.now();
    touch_running(now);
    // Remove the finished task (remaining work ~ 0 and event fired == the
    // one with the smallest remaining work).
    std::size_t idx = 0;
    for (std::size_t i = 1; i < running.size(); ++i) {
      if (running[i].remaining_work < running[idx].remaining_work) idx = i;
    }
    DIAS_EXPECTS(!running.empty(), "task completion with no running tasks");
    const std::uint64_t group = running[idx].group;
    free_slots.push_back(running[idx].slot);
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
    // Cancel speculative siblings of the finished task.
    for (std::size_t i = running.size(); i-- > 0;) {
      if (running[i].group == group) {
        sim.cancel(running[i].completion);
        free_slots.push_back(running[i].slot);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }

    RuntimeJob& job = *active;
    if (job.pending[job.stage].empty() && running.empty()) {
      // Stage barrier reached: move to the next stage.
      ++job.stage;
    }
    if (!fill_slots(now)) {
      complete_active(now);
    }
  }

  void start_sprint(double now) {
    if (!budget.has_budget(now) || job_sprinting) return;
    account(now);
    touch_running(now);
    const double deplete_at = budget.begin_sprint(now);
    job_sprinting = true;
    speed = config.sprint.speedup;
    reschedule_all(now);
    if (obs.metrics_on()) obs.sprints->add();
    if (obs.tracer != nullptr) {
      obs.tracer->event("cluster.sprint.start",
                        {{"sim_t", now},
                         {"job", active ? active->id : std::size_t{0}},
                         {"budget_j", budget.level(now)}});
    }
    if (std::isfinite(deplete_at)) {
      sprint_end_timer = sim.schedule_at(deplete_at, [this] { stop_sprint_depleted(); });
    }
  }

  void stop_sprint_depleted() {
    const double now = sim.now();
    account(now);
    touch_running(now);
    budget.end_sprint(now);
    job_sprinting = false;
    speed = 1.0;
    reschedule_all(now);
    if (obs.tracer != nullptr) {
      obs.tracer->event("cluster.sprint.stop",
                        {{"sim_t", now}, {"reason", "budget-depleted"}});
    }
  }

  // Ends any active sprint state when the job leaves the engine.
  void clear_sprint(double now) {
    sim.cancel(sprint_timer);
    sim.cancel(sprint_end_timer);
    if (job_sprinting) {
      budget.end_sprint(now);
      job_sprinting = false;
      speed = 1.0;
    }
  }

  // Stride scheduling state for weighted fair sharing. A class that joins
  // the backlog re-enters at the global virtual time, so idle classes do
  // not bank (or owe) service credit (Waldspurger's stride scheduling).
  std::vector<double> fair_pass;
  double fair_vtime = 0.0;

  void fair_on_enqueue(std::size_t k, bool was_empty) {
    if (config.scheduler.queue_policy != QueuePolicy::kWeightedFair) return;
    if (fair_pass.size() < buffers.size()) fair_pass.resize(buffers.size(), 0.0);
    if (was_empty) fair_pass[k] = std::max(fair_pass[k], fair_vtime);
  }

  // Picks the next class to serve; SIZE_MAX when every buffer is empty.
  std::size_t pick_class() {
    if (config.scheduler.queue_policy == QueuePolicy::kStrictPriority) {
      for (std::size_t k = buffers.size(); k-- > 0;) {
        if (!buffers[k].empty()) return k;
      }
      return static_cast<std::size_t>(-1);
    }
    // Weighted fair: serve the non-empty class with the smallest pass
    // value, then advance it by its stride (1 / weight).
    if (fair_pass.size() < buffers.size()) fair_pass.resize(buffers.size(), 0.0);
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t k = 0; k < buffers.size(); ++k) {
      if (buffers[k].empty()) continue;
      if (best == static_cast<std::size_t>(-1) || fair_pass[k] < fair_pass[best]) best = k;
    }
    if (best != static_cast<std::size_t>(-1)) {
      fair_vtime = fair_pass[best];
      fair_pass[best] += 1.0 / config.scheduler.weight_for_class(best);
    }
    return best;
  }

  void dispatch_next(double now) {
    DIAS_EXPECTS(!active, "dispatch with engine busy");
    account(now);  // close the idle power segment before going busy
    const std::size_t k = pick_class();
    if (k != static_cast<std::size_t>(-1)) {
      active = std::move(buffers[k].front());
      buffers[k].pop_front();
      publish_queue_len(k);
    }
    if (!active) return;
    RuntimeJob& job = *active;
    job.attempt_start = now;  // pending/stage carry over for resumed jobs
    running.clear();
    reset_free_slots();
    const double timeout = config.sprint.timeout_for_class(job.spec.priority);
    if (std::isfinite(timeout)) {
      if (timeout <= 0.0) {
        start_sprint(now);
      } else {
        sprint_timer = sim.schedule_after(timeout, [this] { start_sprint(sim.now()); });
      }
    }
    if (!fill_slots(now)) {
      complete_active(now);
    }
  }

  void complete_active(double now) {
    account(now);
    clear_sprint(now);
    RuntimeJob& job = *active;
    job.engine_time += now - job.attempt_start;
    // Useful processing time: engine occupancy minus re-executed work.
    const double execution = job.engine_time - job.wasted;
    const double response = now - job.arrival;
    ++completions;
    if (completions > config.warmup_jobs) {
      auto& m = result.per_class[job.spec.priority];
      m.response.add(response);
      m.execution.add(execution);
      m.queueing.add(response - execution);
      ++m.completed;
      m.evictions += job.evictions;
      result.total_evictions += job.evictions;
      result.wasted_time += job.wasted;
      if (obs.metrics_on()) {
        const std::size_t k = job.spec.priority;
        obs.completed[k]->add();
        obs.response[k]->observe(response);
        obs.queueing[k]->observe(response - execution);
      }
      if (obs.tracer != nullptr) {
        obs.tracer->event("cluster.job", {{"sim_t", now},
                                          {"job", job.id},
                                          {"class", job.spec.priority},
                                          {"response_s", response},
                                          {"queueing_s", response - execution},
                                          {"execution_s", execution},
                                          {"evictions", job.evictions},
                                          {"wasted_s", job.wasted}});
      }
    }
    active.reset();
    running.clear();
    dispatch_next(now);
  }

  void evict_active(double now) {
    account(now);
    touch_running(now);  // before clear_sprint: progress accrues at sprint speed
    clear_sprint(now);
    RuntimeJob& job = *active;
    job.engine_time += now - job.attempt_start;
    ++job.evictions;
    if (obs.metrics_on()) obs.evictions[job.spec.priority]->add();
    if (config.scheduler.eviction == EvictionMode::kRestart) {
      // Everything done this attempt (and in previous resumed progress) is
      // re-executed from scratch.
      job.wasted += now - job.attempt_start;
      for (auto& t : running) sim.cancel(t.completion);
      running.clear();
      job.reset_pending();
    } else {
      // Task-level checkpointing: only the partial work of in-flight tasks
      // is lost; they return to the head of the stage's pending queue. The
      // wall-clock cost of redoing them is the longest partial progress
      // (they re-run in parallel), keeping the unit consistent with the
      // restart mode's wall-time waste.
      double lost_wall = 0.0;
      std::unordered_set<std::uint64_t> seen_groups;
      for (auto& t : running) {
        sim.cancel(t.completion);
        lost_wall = std::max(lost_wall, t.work_total - t.remaining_work);
        // Speculative copies share a group: requeue each logical task once.
        if (seen_groups.insert(t.group).second) {
          job.pending[job.stage].push_front(t.work_total);
        }
      }
      job.wasted += lost_wall;
      running.clear();
    }
    const std::size_t k = job.spec.priority;
    buffers[k].push_front(std::move(active));
    publish_queue_len(k);
  }

  void on_arrival(std::size_t id, const JobSpec& spec) {
    const double now = sim.now();
    auto job = materialize(id, spec, now);
    const std::size_t k = spec.priority;
    fair_on_enqueue(k, buffers[k].empty());
    if (!active) {
      buffers[k].push_back(std::move(job));
      publish_queue_len(k);
      dispatch_next(now);
      return;
    }
    if (config.scheduler.preemptive && k > active->spec.priority) {
      buffers[k].push_front(std::move(job));
      publish_queue_len(k);
      evict_active(now);
      dispatch_next(now);
      return;
    }
    buffers[k].push_back(std::move(job));
    publish_queue_len(k);
    // Drain-pressure sprinting: accelerate the running job to clear the way
    // for the higher-priority arrival it is now blocking.
    if (config.sprint.enabled && config.sprint.policy == SprintPolicy::kDrainPressure &&
        k > active->spec.priority) {
      start_sprint(now);
    }
  }

  SimResult run() {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& entry = trace[i];
      DIAS_EXPECTS(entry.arrival_time >= 0.0, "arrival times must be non-negative");
      sim.schedule_at(entry.arrival_time,
                      [this, i] { on_arrival(i, trace[i].spec); });
    }
    sim.run();
    const double horizon = sim.now();
    account(horizon);
    result.horizon = horizon;
    result.busy_time = busy_base + busy_sprint;
    result.sprint_time = busy_sprint;
    result.energy_joules = config.sprint.base_power_w * busy_base +
                           config.sprint.sprint_power_w * busy_sprint +
                           config.idle_power_w * (horizon - result.busy_time);
    return result;
  }
};

ClusterSimulator::ClusterSimulator(Config config, std::vector<TraceEntry> trace)
    : impl_(std::make_unique<Impl>(std::move(config), std::move(trace))) {}

ClusterSimulator::~ClusterSimulator() = default;

SimResult ClusterSimulator::run() { return impl_->run(); }

SimResult simulate(const ClusterSimulator::Config& config, std::vector<TraceEntry> trace) {
  ClusterSimulator sim(config, std::move(trace));
  return sim.run();
}

}  // namespace dias::cluster
