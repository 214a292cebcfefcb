// Sprint governor for the real engine (paper Section 3.2, runtime host).
//
// The simulator models sprinting as a DVFS frequency boost; commodity
// containers rarely expose DVFS, so the runtime stand-in grants *extra
// worker slots* on the engine's elastic thread pool instead — the same
// ~3x capacity knob, spent from the same energy budget. The governor owns:
//
//   * per-class Tk timers: when the dispatcher reports a job start, a
//     watchdog thread arms the class's timeout; if the job is still running
//     when Tk elapses (and the budget has charge), the governor leases the
//     pool's reserve slots and starts draining the shared EnergyBudget;
//   * budget enforcement: a sprint ends at job completion or at the
//     budget's predicted depletion time, whichever comes first, so energy
//     spent never exceeds budget + replenishment (the same conservation
//     contract the simulator's EnergyBudget keeps);
//   * grant/revoke bookkeeping: every sprint produces a SprintInterval
//     (seconds relative to the job's start) that the dispatcher copies
//     into its JobRecord, plus obs counters/gauges and "runtime.sprint"
//     tracer spans.
//
// Concurrency contract: the dispatcher is non-preemptive and single-runner,
// so at most one job is active at a time; job_started/job_finished must
// alternate. The watchdog thread and the dispatcher thread synchronize on
// one mutex; pool lease/release happen outside engine stages' data paths
// (the elastic pool makes resizes safe mid-stage).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/energy_budget.hpp"

namespace dias::runtime {

// One boost window, in seconds relative to the owning job's start.
struct SprintInterval {
  double begin_s = 0.0;
  double end_s = 0.0;
  double duration_s() const { return end_s - begin_s; }
};

struct SprintGovernorConfig {
  bool enabled = true;
  // Reserve slots to lease while sprinting; 0 falls back to "whatever the
  // pool has free" (the whole reserve).
  std::size_t boost_workers = 0;
  EnergyBudgetConfig budget;
  // Per-class sprint timeout Tk in seconds since job start; infinity = the
  // class never sprints; 0 = sprint immediately. Classes beyond the vector
  // never sprint (same convention as cluster::SprintConfig).
  std::vector<double> timeout_s;

  double timeout_for_class(std::size_t priority) const {
    if (!enabled || priority >= timeout_s.size()) {
      return std::numeric_limits<double>::infinity();
    }
    return timeout_s[priority];
  }
};

class SprintGovernor {
 public:
  SprintGovernor(SprintGovernorConfig config, engine::ThreadPool& pool);
  ~SprintGovernor();
  SprintGovernor(const SprintGovernor&) = delete;
  SprintGovernor& operator=(const SprintGovernor&) = delete;

  // Dispatcher hooks. job_started arms the class's Tk timer (or sprints
  // immediately when Tk == 0); job_finished revokes any active boost and
  // returns the job's sprint intervals in seconds since its start.
  void job_started(std::size_t priority);
  std::vector<SprintInterval> job_finished();

  // --- introspection (tests, benches) -------------------------------------
  bool sprinting() const;
  std::size_t sprints_granted() const;
  std::size_t sprints_denied() const;  // Tk fired but the budget was empty
  double budget_level() const;
  double budget_consumed() const;

  // Attaches metric/trace sinks (either may be null; null detaches):
  // runtime.sprint.{granted,denied,revoked_budget} counters, budget level /
  // consumed / boost-slot gauges, and one "runtime.sprint" span per boost
  // window (priority, leased slots, joules). Attach while idle.
  void attach_observability(obs::Registry* metrics, obs::Tracer* tracer);

 private:
  void watchdog_loop();
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  // Starts/stops the boost; callers hold mutex_.
  void begin_boost(double now);
  void end_boost(double now, const char* reason);

  SprintGovernorConfig config_;
  engine::ThreadPool& pool_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Active-job state (dispatcher is single-runner).
  bool job_active_ = false;
  std::size_t job_priority_ = 0;
  double job_start_s_ = 0.0;
  double deadline_s_ = std::numeric_limits<double>::infinity();  // Tk fire time
  double depletion_s_ = std::numeric_limits<double>::infinity();  // budget cutoff
  std::vector<SprintInterval> intervals_;  // absolute begin/end, rebased on finish

  EnergyBudget budget_;
  engine::SlotLease lease_;
  bool boosting_ = false;
  double boost_begin_s_ = 0.0;
  std::size_t granted_total_ = 0;
  std::size_t denied_total_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::Tracer::SpanId span_ = 0;
  obs::Counter* granted_counter_ = nullptr;
  obs::Counter* denied_counter_ = nullptr;
  obs::Counter* budget_revoked_counter_ = nullptr;
  obs::Gauge* boost_slots_gauge_ = nullptr;

  std::thread watchdog_;
};

// RAII wrapper for the job_started/job_finished pair. The governor's
// watchdog is armed between the two calls, and job_finished is what
// revokes an active boost (returning its SlotLease and stopping the
// budget drain) — so a job body that throws or is cancelled between the
// hooks would otherwise leak the boost and wedge the single-runner
// contract (the next job_started asserts). The guard makes revocation
// exception-safe: construct it before running the job, call finish() on
// the success path to collect the intervals; if the scope unwinds first,
// the destructor still closes the pair (discarding the intervals — the
// job has no record to attach them to anyway).
class SprintJobGuard {
 public:
  SprintJobGuard(SprintGovernor& governor, std::size_t priority) : governor_(&governor) {
    governor_->job_started(priority);
  }
  ~SprintJobGuard() {
    if (governor_ != nullptr) governor_->job_finished();
  }
  SprintJobGuard(const SprintJobGuard&) = delete;
  SprintJobGuard& operator=(const SprintJobGuard&) = delete;

  // Closes the pair and hands out the job's boost windows (seconds since
  // job start). After finish() the destructor is a no-op.
  std::vector<SprintInterval> finish() {
    auto out = governor_->job_finished();
    governor_ = nullptr;
    return out;
  }

 private:
  SprintGovernor* governor_;
};

}  // namespace dias::runtime
