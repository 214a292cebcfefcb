#include "analytics/word_count.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "workload/text_corpus.hpp"

namespace dias::analytics {
namespace {

engine::Engine::Options eng_opts() {
  engine::Engine::Options o;
  o.workers = 4;
  o.seed = 3;
  return o;
}

TEST(WordCountTest, ExactCountOnHandwrittenRows) {
  const std::vector<std::string> rows{
      "<row Id=\"1\" Body=\"hello world hello\"/>",
      "<row Id=\"2\" Body=\"world again\"/>",
  };
  const auto counts = exact_word_count(rows);
  EXPECT_EQ(counts.at("hello"), 2u);
  EXPECT_EQ(counts.at("world"), 2u);
  EXPECT_EQ(counts.at("again"), 1u);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(WordCountTest, EngineMatchesExactAtZeroDrop) {
  workload::TextCorpusParams params;
  params.posts = 400;
  params.vocabulary = 200;
  params.seed = 11;
  const auto corpus = workload::generate_text_corpus("unit", params);
  engine::Engine eng(eng_opts());
  const auto ds = eng.parallelize(corpus.rows, 10);
  const auto result = word_count(eng, ds, 8, 0.0);
  const auto exact = exact_word_count(corpus.rows);
  ASSERT_EQ(result.counts.size(), exact.size());
  for (const auto& [word, count] : exact) {
    EXPECT_EQ(result.counts.at(word), count) << word;
  }
  EXPECT_EQ(result.map_tasks_total, 10u);
  EXPECT_EQ(result.map_tasks_run, 10u);
  EXPECT_NEAR(word_count_error(exact, result.counts), 0.0, 1e-12);
}

TEST(WordCountTest, DropReducesExecutedTasks) {
  workload::TextCorpusParams params;
  params.posts = 500;
  params.seed = 13;
  const auto corpus = workload::generate_text_corpus("unit", params);
  engine::Engine eng(eng_opts());
  const auto ds = eng.parallelize(corpus.rows, 20);
  const auto result = word_count(eng, ds, 8, 0.25);
  EXPECT_EQ(result.map_tasks_total, 20u);
  EXPECT_EQ(result.map_tasks_run, 15u);
}

TEST(WordCountTest, ErrorGrowsWithDropRatio) {
  workload::TextCorpusParams params;
  params.posts = 3000;
  params.vocabulary = 1000;
  params.seed = 17;
  const auto corpus = workload::generate_text_corpus("unit", params);
  const auto exact = exact_word_count(corpus.rows);
  engine::Engine eng(eng_opts());
  const auto ds = eng.parallelize(corpus.rows, 50);
  double prev_error = -1.0;
  for (double theta : {0.0, 0.2, 0.5, 0.8}) {
    const auto result = word_count(eng, ds, 8, theta);
    const double err = word_count_error(exact, result.counts);
    EXPECT_GT(err, prev_error - 2.0) << "theta=" << theta;  // rough monotone
    if (theta > 0.0) {
      // Dropping theta of uniformly-sized partitions loses roughly theta of
      // each word's count.
      EXPECT_NEAR(err, 100.0 * theta, 20.0) << "theta=" << theta;
    }
    prev_error = err;
  }
}

// The stage-log entry of `kind`, or null; each word_count run logs one.
const engine::StageInfo* stage_of(const engine::Engine& eng, engine::EngineStageKind kind) {
  const engine::StageInfo* found = nullptr;
  for (const auto& stage : eng.stage_log()) {
    if (stage.kind == kind) {
      EXPECT_EQ(found, nullptr) << "two stages of kind " << engine::to_string(kind);
      found = &stage;
    }
  }
  return found;
}

TEST(WordCountTest, EqualsNaiveFoldOverExecutedPartitions) {
  workload::TextCorpusParams params;
  params.posts = 600;
  params.vocabulary = 300;
  params.drift_segments = 4;
  params.seed = 19;
  const auto corpus = workload::generate_text_corpus("unit", params);
  engine::Engine eng(eng_opts());
  const auto ds = eng.parallelize(corpus.rows, 12);
  for (double theta : {0.0, 0.25, 0.5}) {
    const auto result = word_count(eng, ds, 8, theta);
    const auto* map = stage_of(eng, engine::EngineStageKind::kMap);
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->executed_partition_ids.size(),
              12u - static_cast<std::size_t>(12 * theta + 0.5))
        << "theta=" << theta;
    WordCounts naive;
    for (std::size_t p : map->executed_partition_ids) {
      for (const auto& row : ds.partition(p)) {
        for (const auto& word : workload::tokenize(workload::extract_post_body(row))) {
          ++naive[word];
        }
      }
    }
    EXPECT_EQ(result.counts, naive) << "theta=" << theta;
  }
}

TEST(WordCountTest, MapShipsEachWordOncePerPartition) {
  workload::TextCorpusParams params;
  params.posts = 500;
  params.vocabulary = 150;
  params.seed = 23;
  const auto corpus = workload::generate_text_corpus("unit", params);
  engine::Engine eng(eng_opts());
  const auto ds = eng.parallelize(corpus.rows, 10);
  std::size_t distinct_per_partition = 0;
  std::size_t tokens = 0;
  for (std::size_t p = 0; p < ds.partitions(); ++p) {
    std::set<std::string> words;
    for (const auto& row : ds.partition(p)) {
      for (auto& word : workload::tokenize(workload::extract_post_body(row))) {
        words.insert(std::move(word));
        ++tokens;
      }
    }
    distinct_per_partition += words.size();
  }
  ASSERT_LT(distinct_per_partition, tokens);  // words repeat within partitions

  const auto result = word_count(eng, ds, 8, 0.0);
  EXPECT_EQ(result.counts, exact_word_count(corpus.rows));
  // With every count right, one record per distinct word per partition
  // means no word reached the shuffle twice from the same map task; the
  // shuffle ships those records raw (combine ratio 1).
  const auto* write = stage_of(eng, engine::EngineStageKind::kShuffleWrite);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->shuffle_records_in, distinct_per_partition);
  EXPECT_EQ(write->shuffle_records_out, distinct_per_partition);
}

TEST(WordCountErrorTest, MissingWordsCountAsZero) {
  WordCounts ref{{"a", 100}, {"b", 50}};
  WordCounts est{{"a", 100}};
  // b missing -> 100% error on b, 0% on a -> 50% MAPE.
  EXPECT_NEAR(word_count_error(ref, est, 10), 50.0, 1e-9);
}

TEST(WordCountErrorTest, TopKRestriction) {
  WordCounts ref{{"big", 1000}, {"small", 1}};
  WordCounts est{{"big", 900}, {"small", 100}};
  // top_k = 1 only looks at "big": 10% error.
  EXPECT_NEAR(word_count_error(ref, est, 1), 10.0, 1e-9);
}

TEST(WordCountTest, DurationRecorded) {
  workload::TextCorpusParams params;
  params.posts = 100;
  const auto corpus = workload::generate_text_corpus("unit", params);
  engine::Engine eng(eng_opts());
  const auto ds = eng.parallelize(corpus.rows, 4);
  const auto result = word_count(eng, ds);
  EXPECT_GT(result.duration_s, 0.0);
}

}  // namespace
}  // namespace dias::analytics
