// Online per-stage strategy selection (ISSUE 8 tentpole).
//
// The paper's measure/re-plan/act loop already runs in the control plane
// (Deflator theta, OverloadController); the AdaptivePlanner extends it to
// the *execution* plane. It reads the engine's obs registry at stage
// boundaries, distills a handful of signals — key-collapse ratio, shuffle
// bytes, merge skew, task-time tail ratio, spill pressure — and emits an
// engine::StagePlan per stage:
//
//   signal (EWMA-smoothed)          knob                    direction
//   ------------------------------  ----------------------  -----------------
//   records_out / records_in        combiner on/off         low ratio -> on
//   shuffle bytes per stage         partition width         small -> 1 bucket
//   shipped bytes x merge skew      partition width         volume -> wider
//   task p95 / p50                  speculation             heavy tail -> on
//   spill bytes delta               spill budget hint       spilling -> hint
//
// Stability: every knob is two-sided (separate engage / release
// thresholds, like OverloadController's queue bands) and rate-limited by a
// per-knob min-hold measured in decisions, so an input oscillating around
// one threshold produces at most one switch per hold window (the flap
// property test pins this down). decide() is a pure deterministic function
// of the snapshot sequence fed to it — no clocks, no randomness — which is
// what lets the determinism battery replay decisions exactly.
//
// Correctness: the planner only ever emits knobs the stage's StageTraits
// allow. See stage_plan.hpp for the relocating-vs-reordering determinism
// contract; DESIGN.md §15 has the full decision table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/stage_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dias::runtime {

// Raw signals distilled from one read of the source registry. Counter
// fields are *deltas* since the previous observe(); gauges and histogram
// quantiles are instantaneous. Tests synthesize these directly to drive
// decide() with scripted metric streams.
struct PlannerMetricSnapshot {
  std::uint64_t shuffle_records_in = 0;
  std::uint64_t shuffle_records_out = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t spill_bytes = 0;
  double merge_skew = 1.0;     // engine.shuffle.merge_skew gauge
  double task_time_p50 = 0.0;  // engine.task_time_s histogram
  double task_time_p95 = 0.0;
  double queue_depth = 0.0;  // engine.pool.queue_depth gauge

  bool has_shuffle_sample() const { return shuffle_records_in > 0; }
  bool has_task_sample() const { return task_time_p50 > 0.0; }
};

struct AdaptivePlannerConfig {
  // Worker count the partition ladder multiplies; callers pass the
  // engine's configured worker count.
  std::size_t workers = 4;
  // EWMA weight of the newest signal sample, in (0, 1].
  double ewma_alpha = 0.4;
  // Minimum decide() calls between switches of any one knob on one stage.
  std::uint64_t min_hold_decisions = 3;
  // Combiner band on the smoothed collapse ratio records_out/records_in:
  // at or below enable the combiner pays for itself; at or above disable
  // it is pure overhead. In between, keep the previous decision. The
  // defaults sit at the engine's measured break-even (bench_ext_adaptive):
  // removing half the records already wins ~10%, while a high-cardinality
  // stream that keeps >3/4 of its records pays the map-side fold — and
  // its scratch flush churn — for nothing.
  double combine_enable_ratio = 0.5;
  double combine_disable_ratio = 0.75;
  // Small-shuffle band on smoothed shuffle bytes per stage: at or below
  // low the whole shuffle routes through one bucket (width 1); the width
  // stays 1 until the volume reaches high, then follows the ladder below.
  // Masked, like every width change, by StageTraits::allow_repartition.
  std::size_t small_shuffle_low_bytes = 64 * 1024;
  std::size_t small_shuffle_high_bytes = 256 * 1024;
  // Partition width follows *shipped* volume, widened under skew: the
  // demand is (smoothed post-combine bytes / target_partition_bytes)
  // times the largest ladder rung <= smoothed merge skew, rounded up to a
  // power of two in [1, max_partitions]. Small post-combine outputs merge
  // fastest in one bucket (wide outputs pay flush overhead per bucket);
  // volume adds buckets for parallel merge; a hot bucket carrying a real
  // multiple of the mean widens further to spread its keys. Powers of two
  // keep the width set finite so reachable_plans() can enumerate it.
  std::size_t target_partition_bytes = std::size_t{4} << 20;
  std::vector<double> partition_ladder = {1.0, 2.0, 4.0};
  std::size_t max_partitions = 1024;
  // Speculation band on the smoothed task-time tail ratio p95/p50.
  double speculation_tail_high = 4.0;
  double speculation_tail_low = 2.0;
  // Spill-hint band on smoothed spill-bytes deltas, and the budget the
  // hint carries. budget 0 disables the knob entirely.
  std::size_t spill_high_bytes = 1;
  std::size_t spill_low_bytes = 0;
  std::size_t spill_budget_bytes = 0;
};

// PlanSource backed by live metrics. plan_for() = observe() + decide() +
// export (gauges "planner.<stage>.<knob>", counters "planner.decisions" /
// "planner.switches", one "planner.decide" trace event per call).
// Thread-safe; intended to be consulted from the driver thread at stage
// boundaries only, never inside a stage.
class AdaptivePlanner : public engine::PlanSource {
 public:
  // `source` is the registry the engine under observation writes to (may
  // be null: the planner then sees no signals and emits identity plans).
  // `metrics`/`tracer` are the planner's own export sinks and may be null;
  // source and metrics may be the same registry.
  AdaptivePlanner(const obs::Registry* source, AdaptivePlannerConfig config,
                  obs::Registry* metrics = nullptr, obs::Tracer* tracer = nullptr);

  engine::StagePlan plan_for(const engine::StageTraits& traits) override;

  // Reads the source registry and returns the delta snapshot since the
  // previous observe(). Exposed for tests and for callers that want to
  // observe once per round rather than once per stage.
  PlannerMetricSnapshot observe();

  // The pure decision core: folds `snap` into the named stage's smoothed
  // state and returns the plan. Deterministic given the call sequence.
  engine::StagePlan decide(const PlannerMetricSnapshot& snap,
                           const engine::StageTraits& traits);

  // Every plan decide() could ever emit for `traits` under `config`,
  // deduplicated. The determinism battery iterates exactly this set.
  static std::vector<engine::StagePlan> reachable_plans(
      const AdaptivePlannerConfig& config, const engine::StageTraits& traits);

  struct Status {
    std::uint64_t decisions = 0;  // decide() calls across all stages
    std::uint64_t switches = 0;   // knob flips across all stages
  };
  Status status() const;

 private:
  // Indices into StageState::last_switch; each knob holds independently.
  enum Knob { kCombine = 0, kRoute = 1, kSpeculate = 2, kSpill = 3, kKnobCount = 4 };

  // Smoothed signals. Engine-wide, not per-stage: the source counters are
  // global, and whichever stage observes a delta folds it in for everyone
  // (otherwise the first plan_for of a round would consume the delta and
  // starve the stages consulted after it). The have_* flags gate knobs
  // until a first sample arrives, so the planner never overrides static
  // config on no data.
  struct Signals {
    bool have_shuffle = false;
    bool have_tail = false;
    bool have_skew = false;
    double ewma_collapse = 1.0;
    double ewma_bytes = 0.0;
    double ewma_skew = 1.0;
    double ewma_tail = 1.0;
    double ewma_spill = 0.0;
  };

  struct StageState {
    // Current knob positions. nullopt = not yet decided (stay static).
    std::optional<bool> combine;
    std::size_t partitions = 0;  // 0 = keep the stage default
    std::optional<bool> speculate;
    bool spill_hint = false;
    std::uint64_t decisions = 0;
    std::uint64_t last_switch[kKnobCount] = {0, 0, 0, 0};
  };

  engine::StagePlan decide_locked(const PlannerMetricSnapshot& snap,
                                  const engine::StageTraits& traits);
  // Applies min-hold: flips `cur` to `want` only when the knob's hold
  // window has elapsed. Returns true when a flip happened.
  template <typename T>
  bool flip_locked(StageState& st, Knob knob, T& cur, const T& want);
  void export_locked(const engine::StageTraits& traits, const engine::StagePlan& plan);

  const obs::Registry* source_;
  AdaptivePlannerConfig config_;
  obs::Registry* metrics_;
  obs::Tracer* tracer_;
  obs::Counter* decisions_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;

  mutable std::mutex mu_;
  Signals signals_;
  std::map<std::string, StageState> stages_;
  std::uint64_t last_records_in_ = 0;
  std::uint64_t last_records_out_ = 0;
  std::uint64_t last_bytes_ = 0;
  std::uint64_t last_spill_bytes_ = 0;
  std::uint64_t decision_seq_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace dias::runtime
