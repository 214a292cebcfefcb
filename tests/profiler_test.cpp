#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/word_count.hpp"
#include "common/error.hpp"
#include "workload/text_corpus.hpp"

namespace dias::core {
namespace {

engine::Engine::Options eng_opts() {
  engine::Engine::Options o;
  o.workers = 4;
  o.seed = 19;
  return o;
}

// A synthetic job whose stage structure and timing we control exactly.
Profiler::JobBody synthetic_job(std::size_t map_parts, std::size_t reduce_parts,
                                int task_ms) {
  return [=](engine::Engine& eng, double theta) {
    std::vector<int> data(map_parts * 10);
    const auto ds = eng.parallelize(std::move(data), map_parts);
    engine::StageOptions map_opts;
    map_opts.name = "synthetic/map";
    map_opts.droppable = true;
    map_opts.drop_ratio_override = theta;
    auto pairs = eng.map_partitions(
        ds,
        [task_ms](const std::vector<int>& part) {
          std::this_thread::sleep_for(std::chrono::milliseconds(task_ms));
          std::vector<std::pair<int, int>> out;
          for (int x : part) out.emplace_back(x % 3, 1);
          return out;
        },
        map_opts);
    engine::StageOptions reduce_opts;
    reduce_opts.name = "synthetic";
    reduce_opts.droppable = false;
    eng.reduce_by_key(pairs, [](int a, int b) { return a + b; }, reduce_parts, reduce_opts);
  };
}

TEST(ProfilerTest, ProfileOnceCapturesStageStructure) {
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  const auto profile = profiler.profile_once(synthetic_job(8, 4, 2), 0.0);
  ASSERT_EQ(profile.stages.size(), 3u);  // map, shuffle, reduce
  EXPECT_EQ(profile.stages[0].kind, engine::EngineStageKind::kMap);
  EXPECT_EQ(profile.stages[0].tasks, 8u);
  EXPECT_EQ(profile.map_tasks(), 8u);
  EXPECT_EQ(profile.reduce_tasks(), 4u);
  // Each map task sleeps ~2 ms.
  EXPECT_GT(profile.mean_map_task_time_s(), 0.0015);
  EXPECT_LT(profile.mean_map_task_time_s(), 0.05);
  EXPECT_GT(profile.total_wall_time_s, 0.0);
}

TEST(ProfilerTest, DropRatioShrinksProfiledTasks) {
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  const auto profile = profiler.profile_once(synthetic_job(10, 4, 1), 0.3);
  EXPECT_EQ(profile.map_tasks(), 7u);
}

TEST(ProfilerTest, BuildClassProfileFeedsTheModel) {
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  const auto profile =
      profiler.build_class_profile(synthetic_job(8, 4, 2), 0.01, 4, /*repetitions=*/2);
  EXPECT_DOUBLE_EQ(profile.arrival_rate, 0.01);
  EXPECT_EQ(profile.slots, 4);
  EXPECT_EQ(profile.map_task_pmf.size(), 8u);
  EXPECT_GT(profile.map_rate, 0.0);
  EXPECT_GT(profile.mean_overhead_theta0, 0.0);
  // The model must accept the profiled inputs end-to-end.
  const auto ph = model::ResponseTimeModel::processing_time(profile, 0.2);
  EXPECT_GT(ph.mean(), 0.0);
  const auto dropped = model::ResponseTimeModel::processing_time(profile, 0.6);
  EXPECT_LT(dropped.mean(), ph.mean());
}

TEST(ProfilerTest, DroppedOverheadNeverExceedsExact) {
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  // Only the dropped (theta > 0) runs carry a 30 ms straggler: the first of
  // their ~1 ms tasks to start. Its wall time lands in the overhead, which
  // must still not rise above theta=0's.
  const Profiler::JobBody body = [](engine::Engine& e, double theta) {
    const auto ds = e.parallelize(std::vector<int>(80, 1), 40);
    engine::StageOptions opts;
    opts.name = "straggler/map";
    opts.droppable = true;
    opts.drop_ratio_override = theta;
    auto straggled = std::make_shared<std::atomic<bool>>(theta == 0.0);
    e.map_partitions(
        ds,
        [straggled](const std::vector<int>& part) {
          const bool straggler = !straggled->exchange(true);
          std::this_thread::sleep_for(std::chrono::milliseconds(straggler ? 30 : 1));
          return part;
        },
        opts);
  };
  const auto profile = profiler.build_class_profile(body, 0.01, 4, /*repetitions=*/1);
  EXPECT_LE(profile.mean_overhead_theta90, profile.mean_overhead_theta0);
  EXPECT_GT(profile.mean_overhead_theta90, 0.0);
  EXPECT_LT(model::ResponseTimeModel::processing_time(profile, 0.9).mean(),
            model::ResponseTimeModel::processing_time(profile, 0.0).mean());
}

TEST(ProfilerTest, RealWordCountProfile) {
  workload::TextCorpusParams params;
  params.posts = 600;
  params.seed = 23;
  const auto corpus = workload::generate_text_corpus("profiled", params);
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  const auto body = [&corpus](engine::Engine& e, double theta) {
    const auto ds = e.parallelize(corpus.rows, 20);
    analytics::word_count(e, ds, 8, theta);
  };
  const auto profile = profiler.build_class_profile(body, 0.005, 4, 1);
  EXPECT_EQ(profile.map_task_pmf.size(), 20u);
  EXPECT_GT(profile.map_rate, 0.0);
  EXPECT_GT(profile.mean_overhead_theta0, 0.0);
}

TEST(ProfilerTest, FitWaveDistributionUsesMeasuredWallTime) {
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  // 12 tasks of ~3 ms on 4 workers = 3 waves; fitting against 4 slots the
  // wave mean must be the measured stage wall / 3, i.e. >= one task time.
  const auto profile = profiler.profile_once(synthetic_job(12, 4, 3), 0.0);
  const auto wave = profiler.fit_wave_distribution(profile, 4);
  double map_wall = 0.0;
  for (const auto& s : profile.stages) {
    if (s.kind == engine::EngineStageKind::kMap) map_wall += s.stage_wall_time_s;
  }
  EXPECT_NEAR(wave.mean(), map_wall / 3.0, 1e-9);
  EXPECT_GE(wave.mean(), 0.9 * profile.mean_map_task_time_s());
  EXPECT_GT(wave.phases(), 0u);
  // Wave scv is concentrated relative to the task scv.
  EXPECT_LE(wave.scv(), std::max(profile.map_task_scv(), 4e-3));
}

TEST(ProfilerTest, Validation) {
  engine::Engine eng(eng_opts());
  Profiler profiler(eng);
  EXPECT_THROW(profiler.profile_once(synthetic_job(4, 2, 1), 1.0), dias::precondition_error);
  EXPECT_THROW(
      profiler.build_class_profile(synthetic_job(4, 2, 1), 0.01, 4, 0),
      dias::precondition_error);
}

}  // namespace
}  // namespace dias::core
