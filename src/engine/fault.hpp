// Fault-tolerance policy for the mini MapReduce engine.
//
// Production data-parallel engines treat task failure and slowdown as the
// common case; the paper's GRASS-style argument (Section 3.3, citation
// [11]) is that on a *droppable* stage a task that cannot be completed is
// cheaper to drop than to re-execute: the loss is bounded accuracy instead
// of unbounded latency. This header provides
//
//   * FaultToleranceOptions - the engine-side policy: bounded per-task
//     retries with capped decorrelated-jitter backoff, Spark-style
//     speculative re-execution of stage-tail stragglers, and
//     approximation-aware degradation (a task that exhausts its retries on
//     a droppable stage becomes a dropped partition, folded into the
//     stage's effective drop ratio).
//   * TaskFailedError - typed error carrying stage name, partition id and
//     attempt count, thrown when a task dies for good on a stage that is
//     NOT allowed to degrade.
//
// Faults themselves come from one place: the chaos plane's `engine.task`
// point (chaos/chaos.hpp), which throws or stalls a task attempt as a pure
// hash of (chaos seed, stage sequence number, partition, attempt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace dias::engine {

// Engine-wide fault-tolerance policy. The default configuration (one
// attempt, no speculation, no watchdog) is inert: each task runs once,
// no monitor watches the stage, and a body's exception propagates
// unchanged instead of being absorbed as a failed attempt.
struct FaultToleranceOptions {
  // Attempts per task before it is declared dead (>= 1; 1 = no retry).
  int max_attempts = 1;
  // Retry backoff, capped decorrelated jitter (the AWS "decorrelated"
  // variant, made stateless): d_1 = base, d_k = min(cap, base + u_k *
  // (3 d_{k-1} - base)) with u_k an independent uniform drawn from the
  // engine seed (Engine::Options::seed) and the (stage, partition,
  // attempt) coordinates — deterministic under a fixed seed,
  // de-synchronized across tasks so retry storms never stampede the same
  // instant. A 0 base = no backoff.
  double retry_backoff_ms = 0.0;
  double retry_backoff_cap_ms = 250.0;
  // Spark-style speculation: once `speculation_quantile` of a stage's
  // tasks succeeded, re-submit a copy of every still-running task; the
  // first copy to complete the partition wins, the loser is discarded.
  bool speculation = false;
  double speculation_quantile = 0.75;

  // --- stall watchdog (ISSUE 10 tentpole, hardening 2) --------------------
  // Watch running tasks for stalls and speculate a copy of any task whose
  // current attempt exceeds the stall threshold — immediately, without
  // waiting for the speculation quantile. The threshold is
  //   max(stall_threshold_ms, stall_p95_multiplier * live task-time p95)
  // with the live p95 read from the attached obs histogram (engine.task_
  // time_s); detached or cold histograms contribute 0, leaving the
  // absolute floor. Speculation is content-preserving (exactly-once body
  // completion), so the timing-dependent launch decision never changes
  // result bytes — only when a healthy copy starts.
  bool stall_watchdog = false;
  double stall_threshold_ms = 0.0;      // absolute floor; 0 = p95 term only
  double stall_p95_multiplier = 4.0;

  // True when the policy can perturb or absorb a task at all; false means
  // the inert one-attempt, exceptions-propagate behaviour.
  bool active() const {
    return max_attempts > 1 || speculation || stall_watchdog;
  }

  // Throws precondition_error naming the first out-of-range field.
  void validate() const;
};

// Delay to sleep after failed attempt `attempt` (1-based), on the capped
// decorrelated-jitter curve, jittered from `seed`. Pure: deterministic for
// fixed (options, seed, coordinates).
double backoff_delay_ms(const FaultToleranceOptions& ft, std::uint64_t seed,
                        std::uint64_t stage_seq, std::size_t partition, int attempt);

// A task exhausted its retry budget on a stage that may not degrade.
// `detail`, when non-empty, carries the underlying cause (e.g. a spill
// backend I/O error) into the message.
class TaskFailedError : public error {
 public:
  TaskFailedError(std::string stage, std::size_t partition, int attempts,
                  const std::string& detail = {});

  const std::string& stage() const { return stage_; }
  std::size_t partition() const { return partition_; }
  int attempts() const { return attempts_; }

 private:
  std::string stage_;
  std::size_t partition_;
  int attempts_;
};

}  // namespace dias::engine
