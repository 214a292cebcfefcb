// Per-stage execution strategy plans (ISSUE 8 tentpole).
//
// A StagePlan is the unit of self-tuning: a small value object describing
// how one stage should deviate from its static configuration. Plans are
// *produced* above the engine (runtime::AdaptivePlanner reads the obs
// registry at stage boundaries and decides) and *applied* inside it
// (StageOptions carries an optional plan; Engine::combine_by_key and
// run_stage consult it). Keeping the plan type here — not in runtime —
// lets analytics jobs accept a planner through the abstract PlanSource
// without depending on the runtime layer.
//
// The determinism contract (see DESIGN.md §15): every knob a plan may set
// must be content-preserving for the stage it is applied to. Relocating
// work (partition counts, spill budgets, speculation) is always safe —
// per-key merge order is (src, seq), a pure function of the *input*
// partitioning, so resizing the *output* side or moving bytes through the
// spill backend cannot change a single result bit. Reordering work
// (combiner on/off, combiner buffer size) changes per-key accumulation
// order and is only bit-safe for order-insensitive aggregations (integral
// sums and the like); planners must gate those two knobs on
// StageTraits::order_insensitive, and the plan-determinism test battery
// enforces the whole table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace dias::engine {

// One stage's adaptive overrides. Every field defaults to "keep the
// static configuration", so a default-constructed plan is the identity.
struct StagePlan {
  // Map-side combiner on/off (ShuffleOptions::combine). Only bit-safe
  // when the aggregation is order-insensitive.
  std::optional<bool> combine;
  // Replacement for the caller's out_partitions; 0 keeps the default,
  // 1 routes the whole shuffle through one merge task (the win for
  // shuffles far below the per-bucket overhead crossover). Ignored (and
  // unsafe to apply) on droppable merge stages running with theta > 0,
  // where the bucket count is part of the drop semantics —
  // Engine::combine_by_key skips it there.
  std::size_t partitions = 0;
  // Per-stage speculation toggle (overrides FaultToleranceOptions::
  // speculation for this stage only). Exactly-once body completion makes
  // this content-preserving by construction.
  std::optional<bool> speculate;
  // Combiner scratch / raw-chunk budget (ShuffleOptions::
  // target_buffer_bytes). Changes segment boundaries, hence per-key
  // partial-aggregate structure: order-insensitive aggregations only.
  std::optional<std::size_t> target_buffer_bytes;
  // Spill budget hint (ShuffleOptions::memory_budget_bytes). Applied only
  // when a spill backend is reachable (per-shuffle or engine-wide), so a
  // hint can never turn into a config_error on an engine that cannot
  // spill. Spilling is content-preserving (DESIGN.md §13).
  std::optional<std::size_t> spill_budget_bytes;
  // Monotonic decision sequence number stamped by the planner; purely
  // informational (traces, tests).
  std::uint64_t decision_seq = 0;

  bool is_identity() const {
    return !combine.has_value() && partitions == 0 && !speculate.has_value() &&
           !target_buffer_bytes.has_value() && !spill_budget_bytes.has_value();
  }

  // Compact human-readable form for traces and CLI output, e.g.
  // "combine=on parts=16 spec=off buf=- spill=-".
  std::string summary() const;
};

// What a planner is allowed to adapt on a given stage, plus sizing hints.
// Callers (analytics jobs, user pipelines) describe each plannable stage
// once; the planner masks its knobs accordingly.
struct StageTraits {
  std::string name = "stage";
  // The statically configured shuffle width the plan would override.
  std::size_t default_partitions = 0;
  // True only when the stage's aggregation is bitwise order-insensitive
  // (integral sums, max/min, set union...). Gates the combiner toggle and
  // buffer resize; floating-point reductions must leave this false.
  bool order_insensitive = false;
  bool allow_repartition = true;
  bool allow_speculation = true;
  bool allow_spill_hint = true;
  // Optional hint: number of input partitions feeding the stage.
  std::size_t input_partitions = 0;
};

// Strategy provider consulted at stage boundaries. Implemented by
// runtime::AdaptivePlanner; tests use scripted sources. plan_for() must be
// cheap (it runs between stages, never inside one) and deterministic for a
// fixed observation history.
class PlanSource {
 public:
  virtual ~PlanSource() = default;
  virtual StagePlan plan_for(const StageTraits& traits) = 0;
};

}  // namespace dias::engine
