#include "analytics/word_count.hpp"

#include <algorithm>
#include <utility>

#include "common/stats.hpp"
#include "workload/text_corpus.hpp"

namespace dias::analytics {

WordCountResult word_count(engine::Engine& eng, const engine::Dataset<std::string>& rows,
                           std::size_t reduce_partitions, double drop_override,
                           engine::ShuffleOptions shuffle, engine::PlanSource* planner) {
  eng.clear_stage_log();

  // Map: parse rows and count words per task -> one (word, count) per
  // distinct word, in first-appearance order. This is the droppable stage.
  engine::StageOptions map_opts;
  map_opts.name = "wordcount/map";
  map_opts.droppable = true;
  map_opts.drop_ratio_override = drop_override;
  if (planner != nullptr) {
    // No shuffle on the map stage: only the speculation knob applies.
    engine::StageTraits traits;
    traits.name = "wordcount/map";
    traits.allow_repartition = false;
    traits.allow_spill_hint = false;
    map_opts.plan = planner->plan_for(traits);
  }
  auto pairs = eng.map_partitions(
      rows,
      [](const std::vector<std::string>& part) {
        engine::detail::FlatMap<std::string, std::uint64_t> counts;
        const auto count = [&](const std::string& word) {
          bool created = false;
          ++counts.find_or_emplace(word, [] { return std::uint64_t{0}; }, &created);
        };
        std::string scratch;
        for (const auto& row : part) {
          workload::for_each_word(workload::find_post_body(row), scratch, count);
        }
        return std::move(counts.entries());
      },
      map_opts);

  // Shuffle + reduce: sum counts per word. The map output is already
  // combined per task, so the shuffle ships it raw unless the planner
  // turns its combiner on.
  engine::StageOptions reduce_opts;
  reduce_opts.name = "wordcount";
  reduce_opts.droppable = false;
  shuffle.combine = false;
  if (planner != nullptr) {
    // The reduce is a uint64 sum — bitwise order-insensitive — so every
    // knob (combiner included) is plan-safe.
    engine::StageTraits traits;
    traits.name = "wordcount";
    traits.default_partitions = reduce_partitions;
    traits.order_insensitive = true;
    reduce_opts.plan = planner->plan_for(traits);
  }
  auto reduced = eng.reduce_by_key(
      pairs, [](std::uint64_t a, std::uint64_t b) { return a + b; }, reduce_partitions,
      reduce_opts, shuffle);

  WordCountResult result;
  auto collected = reduced.collect();
  result.counts.reserve(collected.size());
  for (auto& kv : collected) result.counts.emplace(std::move(kv.first), kv.second);
  result.duration_s = eng.logged_duration();
  for (const auto& stage : eng.stage_log()) {
    if (stage.kind == engine::EngineStageKind::kMap) {
      result.map_tasks_total += stage.total_partitions;
      result.map_tasks_run += stage.executed_partitions;
    }
  }
  return result;
}

WordCounts WordCountResult::rescaled_counts() const {
  const double fraction = executed_fraction();
  WordCounts scaled;
  scaled.reserve(counts.size());
  for (const auto& [word, count] : counts) {
    scaled.emplace(word, static_cast<std::uint64_t>(
                             static_cast<double>(count) / fraction + 0.5));
  }
  return scaled;
}

WordCounts exact_word_count(const std::vector<std::string>& rows) {
  WordCounts counts;
  const auto count = [&](const std::string& word) { ++counts[word]; };
  std::string scratch;
  for (const auto& row : rows) {
    workload::for_each_word(workload::find_post_body(row), scratch, count);
  }
  return counts;
}

double word_count_error(const WordCounts& reference, const WordCounts& estimate,
                        std::size_t top_k) {
  DIAS_EXPECTS(!reference.empty(), "reference counts must be non-empty");
  // Rank reference words by frequency.
  std::vector<std::pair<std::string, std::uint64_t>> ranked(reference.begin(), reference.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const std::size_t n = std::min(top_k, ranked.size());
  std::vector<double> ref(n), est(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = static_cast<double>(ranked[i].second);
    const auto it = estimate.find(ranked[i].first);
    est[i] = it != estimate.end() ? static_cast<double>(it->second) : 0.0;
  }
  return mean_absolute_percent_error(ref, est);
}

}  // namespace dias::analytics
