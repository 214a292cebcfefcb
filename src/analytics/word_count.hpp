// Approximate word-count text analytics (paper Section 5.1).
//
// Mirrors the paper's StackExchange job: parse XML rows to extract post
// bodies, tokenize, and count word frequencies via map + reduce-by-key.
// Each map task counts its own partition and emits one per-task
// (word, count) per distinct word, so the shuffle ships those raw (no
// second combine unless a planner turns it on) and the reduce sums them.
// The map stage is droppable; accuracy loss is measured as the mean
// absolute percent error of the approximate counts against an exact run
// (Figure 6).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"

namespace dias::analytics {

using WordCounts = std::unordered_map<std::string, std::uint64_t>;

struct WordCountResult {
  WordCounts counts;
  double duration_s = 0.0;          // wall time of the engine stages
  std::size_t map_tasks_total = 0;  // before dropping
  std::size_t map_tasks_run = 0;    // after dropping

  // Fraction of map tasks that actually ran.
  double executed_fraction() const {
    return map_tasks_total == 0
               ? 1.0
               : static_cast<double>(map_tasks_run) / static_cast<double>(map_tasks_total);
  }
  // ApproxHadoop-style estimator: scales the raw counts by the inverse of
  // the executed fraction to approximately unbias them.
  WordCounts rescaled_counts() const;
};

// Runs word count over the XML rows with the engine's current drop ratio
// (or `drop_override` when >= 0) applied to the map stage. `shuffle`
// configures the reduce-by-key shuffle — notably memory_budget_bytes,
// which lets the job run on inputs far larger than worker memory by
// spilling through the engine's attached backend. A non-null `planner`
// (typically runtime::AdaptivePlanner) is consulted at each stage
// boundary: the map stage exposes only the speculation knob, while the
// reduce stage — a uint64 sum, bitwise order-insensitive — exposes every
// knob including the combiner toggle. `shuffle.combine` is ignored: the
// static plan ships the per-task counts raw.
WordCountResult word_count(engine::Engine& eng, const engine::Dataset<std::string>& rows,
                           std::size_t reduce_partitions = 20, double drop_override = -1.0,
                           engine::ShuffleOptions shuffle = {},
                           engine::PlanSource* planner = nullptr);

// Exact single-threaded reference count (no engine, no dropping).
WordCounts exact_word_count(const std::vector<std::string>& rows);

// Mean absolute percent error of `estimate` vs `reference` over the
// `top_k` most frequent reference words (missing words count as zero).
double word_count_error(const WordCounts& reference, const WordCounts& estimate,
                        std::size_t top_k = 200);

}  // namespace dias::analytics
