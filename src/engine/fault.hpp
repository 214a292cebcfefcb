// Fault injection and fault-tolerance policy for the mini MapReduce engine.
//
// Production data-parallel engines treat task failure and slowdown as the
// common case; the paper's GRASS-style argument (Section 3.3, citation
// [11]) is that on a *droppable* stage a task that cannot be completed is
// cheaper to drop than to re-execute: the loss is bounded accuracy instead
// of unbounded latency. This header provides
//
//   * FaultInjector  - deterministic, seedable injection of per-attempt
//     task failures and per-task straggler slowdowns. Decisions are pure
//     hash functions of (seed, stage sequence number, partition, attempt),
//     so they are reproducible independent of thread scheduling and never
//     consume state from the engine's sequential Rng stream.
//   * FaultToleranceOptions - the engine-side policy: bounded per-task
//     retries with capped decorrelated-jitter backoff, Spark-style
//     speculative re-execution of stage-tail stragglers, and
//     approximation-aware degradation (a task that exhausts its retries on
//     a droppable stage becomes a dropped partition, folded into the
//     stage's effective drop ratio).
//   * TaskFailedError - typed error carrying stage name, partition id and
//     attempt count, thrown when a task dies for good on a stage that is
//     NOT allowed to degrade.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/cancellation.hpp"
#include "common/error.hpp"

namespace dias::engine {

// Sleeps roughly `ms`, returning early once `done` becomes true or the
// optional cancellation token fires. Used for injected straggler delays
// and retry backoff, so neither a speculative win nor a deadline cancel is
// held back by a sleeping loser — the retry/speculation paths are
// cancellation points, not blind waits.
void interruptible_sleep_ms(double ms, const std::atomic<bool>& done,
                            const CancellationToken* cancel = nullptr);

// What the injector should break. All probabilities are per decision:
// `fail_prob` is evaluated once per task *attempt* (so retries of a task
// re-roll), `straggler_prob` once per task (a straggler stays a straggler
// across its retries, like a task stuck on a sick node).
struct FaultConfig {
  double fail_prob = 0.0;          // P[injected failure] per attempt
  double straggler_prob = 0.0;     // P[task is a straggler]
  double straggler_delay_ms = 0.0; // extra latency injected per straggling attempt
  std::uint64_t seed = 0;          // independent of the engine seed
  // Restrict injection to droppable stages. Models experiments on the
  // degradation path specifically: critical (non-droppable) stages stay
  // healthy while approximate work absorbs the failures.
  bool droppable_only = false;
};

// Deterministic fault source. Thread-safe: all queries are const and pure.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig config);

  // True when the injector can actually perturb execution.
  bool enabled() const {
    return config_.fail_prob > 0.0 ||
           (config_.straggler_prob > 0.0 && config_.straggler_delay_ms > 0.0);
  }

  const FaultConfig& config() const { return config_; }

  // Should attempt `attempt` (1-based) of `partition` in the stage with
  // sequence number `stage_seq` fail before doing any work?
  bool should_fail(std::uint64_t stage_seq, std::size_t partition, int attempt) const;

  // Extra delay injected into every primary attempt of this task; 0 for
  // non-stragglers. Speculative copies model re-execution on a healthy
  // node and are never delayed.
  double straggler_delay_ms(std::uint64_t stage_seq, std::size_t partition) const;

 private:
  FaultConfig config_;
};

// Engine-wide fault-tolerance policy. The default configuration (one
// attempt, no injection, no speculation) is inert: each task runs once,
// no monitor watches the stage, and a body's exception propagates
// unchanged instead of being absorbed as a failed attempt.
struct FaultToleranceOptions {
  FaultConfig injection;
  // Attempts per task before it is declared dead (>= 1; 1 = no retry).
  int max_attempts = 1;
  // Retry backoff, capped decorrelated jitter (the AWS "decorrelated"
  // variant, made stateless): d_1 = base, d_k = min(cap, base + u_k *
  // (3 d_{k-1} - base)) with u_k an independent uniform drawn from the
  // injection seed and the (stage, partition, attempt) coordinates —
  // deterministic under a fixed seed, de-synchronized across tasks so
  // retry storms never stampede the same instant. A 0 base = no backoff.
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
    return max_attempts > 1 || speculation || stall_watchdog ||
           FaultInjector(injection).enabled();
  }

  // Throws precondition_error naming the first out-of-range field.
  void validate() const;
};

// Delay to sleep after failed attempt `attempt` (1-based), on the capped
// decorrelated-jitter curve. Pure: deterministic for fixed (options,
// coordinates).
double backoff_delay_ms(const FaultToleranceOptions& ft, std::uint64_t stage_seq,
                        std::size_t partition, int attempt);

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
