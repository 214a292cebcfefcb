// Approximate PageRank (iterative graph analytics).
//
// Spark's headline capability is fast iterative computation; PageRank is
// its canonical example and stresses DiAS differently from word count or
// triangle counting: every iteration contributes droppable ShuffleMap
// stages, so a per-stage drop ratio compounds across iterations. Rank
// error is measured as the normalized L1 distance to an exact run.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "engine/engine.hpp"
#include "workload/graph_gen.hpp"

namespace dias::analytics {

using RankVector = std::unordered_map<std::uint32_t, double>;

struct PageRankResult {
  RankVector ranks;
  int iterations = 0;
  double duration_s = 0.0;
  std::size_t tasks_total = 0;  // droppable-stage tasks before dropping
  std::size_t tasks_run = 0;
};

struct PageRankOptions {
  int iterations = 10;
  double damping = 0.85;
  // Drop ratio applied to every droppable stage of every iteration.
  double stage_drop_ratio = 0.0;
  std::size_t partitions = 32;  // shuffle width
  // Applied to every shuffle (adjacency build + per-iteration sums); a
  // finite memory_budget_bytes spills through the engine's backend.
  engine::ShuffleOptions shuffle;
  // Optional per-stage planner, consulted only for the per-iteration rank
  // sums. The adjacency build is deliberately static: its partitioning
  // fixes the (src, seq) merge order of every downstream floating-point
  // shuffle, so adapting it would break bitwise reproducibility. The sum
  // stages are double additions — order-sensitive — so their traits leave
  // order_insensitive false and the planner may only relocate work
  // (partitions / speculation / spill), never reorder it.
  engine::PlanSource* planner = nullptr;
};

// Runs PageRank over the (undirected, canonical) edge list; each edge
// propagates rank in both directions.
PageRankResult page_rank(engine::Engine& eng, const engine::Dataset<workload::Edge>& edges,
                         const PageRankOptions& options);

// Normalized L1 distance between two rank vectors, in percent of total
// reference mass (missing entries count as zero).
double rank_error_percent(const RankVector& reference, const RankVector& estimate);

}  // namespace dias::analytics
