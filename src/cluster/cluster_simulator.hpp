// Discrete-event simulation of a priority big-data cluster (paper Fig. 1/3).
//
// The engine holds all C computing slots and executes one job at a time
// (the paper's single-server view, Section 4). Jobs wait in per-priority
// FCFS buffers; the dispatcher always serves the head of the highest
// non-empty buffer. Two disciplines:
//   * non-preemptive - the running job always finishes (NP / DA / DiAS);
//   * preemptive     - a higher-priority arrival evicts the running job,
//                      which returns to the *head* of its buffer and later
//                      re-executes from scratch (repeat-identical), wasting
//                      the work done so far (the production baseline P).
// Differential approximation applies the per-class drop ratio theta_k to
// droppable stages at dispatch; sprinting accelerates a job after its class
// timeout Tk, subject to the energy budget (a runtime::EnergyBudget built
// from SprintConfig::energy_config(), fed simulation time). An energy
// meter integrates base/sprint/idle power over the run.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/metrics.hpp"
#include "cluster/sprinter.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace dias::cluster {

// How task durations are sampled from (mean, scv).
enum class TaskTimeFamily {
  kDeterministic,  // always the mean (scv ignored)
  kExponential,    // exponential with the given mean (scv ignored)
  kLogNormal,      // lognormal matching mean and scv
};

// What happens to the work of an evicted job.
enum class EvictionMode {
  // The production baseline the paper measures: the evicted job restarts
  // from scratch, wasting every completed task (repeat-identical).
  kRestart,
  // Natjam-style task-level checkpointing: completed tasks are kept; only
  // the partial work of in-flight tasks is lost.
  kResumeTasks,
};

// How the dispatcher chooses among non-empty class buffers.
enum class QueuePolicy {
  // Strict priority: always the highest non-empty class (the paper's P/NP).
  kStrictPriority,
  // Weighted fair sharing (Hadoop Fair Scheduler's soft priority, paper
  // Section 6): deterministic stride scheduling over class weights.
  kWeightedFair,
};

struct SchedulerConfig {
  bool preemptive = false;
  EvictionMode eviction = EvictionMode::kRestart;
  QueuePolicy queue_policy = QueuePolicy::kStrictPriority;
  // Per-class weights for kWeightedFair; classes beyond the vector get 1.
  std::vector<double> fair_weights;
  // Per-class task-drop ratio applied to droppable stages at dispatch;
  // classes beyond the vector default to 0 (no dropping).
  std::vector<double> theta;

  double theta_for_class(std::size_t priority) const {
    return priority < theta.size() ? theta[priority] : 0.0;
  }
  double weight_for_class(std::size_t priority) const {
    const double w = priority < fair_weights.size() ? fair_weights[priority] : 1.0;
    return w > 0.0 ? w : 1.0;
  }
};

struct TraceEntry {
  double arrival_time = 0.0;
  JobSpec spec;
};

// Straggler injection and mitigation (GRASS, the paper's citation [11]:
// approximation engines can *drop* stragglers instead of waiting).
struct StragglerConfig {
  // Each task independently becomes a straggler with this probability...
  double probability = 0.0;
  // ...and runs `slowdown` times longer.
  double slowdown = 5.0;

  enum class Mitigation {
    kNone,
    // Spark-style speculation: when slots idle at a stage tail, launch
    // fresh copies of in-flight tasks; the first copy to finish wins.
    kSpeculate,
    // GRASS-style: droppable stages abandon their last in-flight tasks
    // once at most ceil(tail_drop_ratio * stage_tasks) remain (extra
    // approximation instead of waiting for stragglers).
    kDropTail,
  };
  Mitigation mitigation = Mitigation::kNone;
  double tail_drop_ratio = 0.0;  // used by kDropTail
};

class ClusterSimulator {
 public:
  struct Config {
    int slots = 20;
    // Optional per-slot speed factors (heterogeneous executors): slot i
    // runs tasks at speed slot_speed_factors[i]; empty = all 1.0. Size
    // must equal `slots` when non-empty.
    std::vector<double> slot_speed_factors;
    SchedulerConfig scheduler;
    SprintConfig sprint;
    StragglerConfig stragglers;
    TaskTimeFamily task_time_family = TaskTimeFamily::kLogNormal;
    double idle_power_w = 0.0;
    // Completions to discard (transient removal) before recording metrics.
    std::size_t warmup_jobs = 0;
    std::uint64_t seed = 1;
    // Optional observability sinks (not owned; may be null). With a
    // registry the simulator keeps per-class sojourn/wait histograms,
    // completion/eviction counters, queue-length and sprint-budget gauges;
    // with a tracer it emits one "cluster.job" event per completion and
    // sprint start/stop events, all stamped with *simulation* time fields
    // (wall-clock span timestamps are meaningless in a DES). Warmup jobs
    // are excluded, mirroring SimResult.
    obs::Registry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
  };

  ClusterSimulator(Config config, std::vector<TraceEntry> trace);
  ~ClusterSimulator();
  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  // Runs the whole trace to completion and returns the collected metrics.
  SimResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience: simulate a trace under a scheduler/sprint configuration.
SimResult simulate(const ClusterSimulator::Config& config, std::vector<TraceEntry> trace);

}  // namespace dias::cluster
