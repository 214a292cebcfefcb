// Determinism-oracle battery for adaptive execution plans (ISSUE 8).
//
// The oracle: for every plan the AdaptivePlanner can reach
// (reachable_plans()), on every workload shape (uniform / Zipf / tiny /
// huge) and at every worker count (1 / 2 / 8), the reduced relation must
// be *bitwise identical* to the static configuration — keys equal and
// value BIT PATTERNS equal, so even a one-ULP floating-point difference
// fails. Results are compared in canonical form (sorted (key, value-bits)
// pairs) because plans legitimately move entries between partitions;
// what they must never do is change a single result bit.
//
// Two legs pin the two halves of the determinism contract
// (engine/stage_plan.hpp):
//   * uint64 sums (order-insensitive): every knob including the combiner
//     toggle must be identity-preserving;
//   * double sums (order-sensitive): the planner masks combiner/buffer
//     knobs, and the remaining *relocating* knobs (partition width,
//     including width 1, speculation, spill) must still be bit-exact,
//     because per-key merge order is (src, seq) — a function of the input
//     partitioning only.
//
// This file is the testing convention for future strategy knobs: add the
// knob to StagePlan, extend reachable_plans(), and this battery must pass
// unchanged — if it cannot, the knob needs an order_insensitive-style gate
// in StageTraits (see DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analytics/page_rank.hpp"
#include "analytics/word_count.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/adaptive_planner.hpp"
#include "storage/block_store.hpp"
#include "storage/spill_store.hpp"
#include "workload/graph_gen.hpp"
#include "workload/text_corpus.hpp"

namespace dias {
namespace {

using engine::Engine;
using engine::ShuffleOptions;
using engine::StageOptions;
using engine::StagePlan;
using engine::StageTraits;
using runtime::AdaptivePlanner;
using runtime::AdaptivePlannerConfig;

constexpr std::size_t kInputPartitions = 6;
constexpr std::size_t kDefaultOut = 6;

// The four workload shapes of the ISSUE acceptance criteria.
struct Workload {
  const char* name;
  std::size_t records;
  std::uint64_t key_space;
  double skew;  // 0 = uniform; higher concentrates mass on low keys
};

const Workload kWorkloads[] = {
    {"uniform", 3000, 257, 0.0},
    {"zipf", 3000, 257, 4.0},
    {"tiny", 48, 13, 0.0},
    {"huge", 20000, 1021, 1.0},
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> make_records(const Workload& w,
                                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(w.records);
  for (std::size_t i = 0; i < w.records; ++i) {
    const double u = rng.uniform();
    const auto key = static_cast<std::uint64_t>(
        static_cast<double>(w.key_space - 1) * std::pow(u, 1.0 + w.skew));
    out.emplace_back(key, rng.uniform_int(1000) + 1);
  }
  return out;
}

// Canonical form: sorted (key, value-bits). Bitwise, not approximate.
template <typename V>
std::vector<std::pair<std::uint64_t, std::uint64_t>> canonical(
    const engine::Dataset<std::pair<std::uint64_t, V>>& ds) {
  static_assert(sizeof(V) == sizeof(std::uint64_t));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (std::size_t p = 0; p < ds.partitions(); ++p) {
    for (const auto& [k, v] : ds.partition(p)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      entries.emplace_back(k, bits);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

AdaptivePlannerConfig battery_config(std::size_t workers) {
  AdaptivePlannerConfig cfg;
  cfg.workers = workers;
  return cfg;
}

// One engine run of the stage under test. `plan == nullptr` is the static
// reference path.
template <typename V, typename Reduce>
std::vector<std::pair<std::uint64_t, std::uint64_t>> run_reduce(
    const std::vector<std::pair<std::uint64_t, V>>& records, std::size_t workers,
    Reduce reduce, const StagePlan* plan, engine::SpillBackend* spill = nullptr) {
  Engine::Options o;
  o.workers = workers;
  o.seed = 99;
  Engine eng(o);
  if (spill != nullptr) eng.set_spill_backend(spill);
  // The input partitioning is FIXED: it determines the (src, seq) merge
  // order, the one thing no plan is allowed to change.
  const auto ds = eng.parallelize(records, kInputPartitions);
  StageOptions opts;
  opts.name = "battery";
  if (plan != nullptr) opts.plan = *plan;
  return canonical(eng.reduce_by_key(ds, reduce, kDefaultOut, opts, {}));
}

TEST(PlanDeterminismTest, UnsignedSumsBitIdenticalForEveryReachablePlan) {
  StageTraits traits;
  traits.name = "battery";
  traits.default_partitions = kDefaultOut;
  traits.order_insensitive = true;
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  std::uint64_t seed = 800;
  for (const Workload& w : kWorkloads) {
    const auto records = make_records(w, ++seed);
    const auto reference = run_reduce(records, 4, sum, nullptr);
    for (const std::size_t workers : {1, 2, 8}) {
      const auto plans = AdaptivePlanner::reachable_plans(battery_config(workers), traits);
      ASSERT_GT(plans.size(), 10u);
      for (const StagePlan& plan : plans) {
        SCOPED_TRACE(testing::Message() << w.name << " workers=" << workers << " plan="
                                        << plan.summary());
        EXPECT_EQ(run_reduce(records, workers, sum, &plan), reference);
      }
    }
  }
}

TEST(PlanDeterminismTest, DoubleSumsBitIdenticalForEveryReachablePlan) {
  // Order-sensitive leg: traits mask the combiner, so reachable plans only
  // relocate work — and relocation must preserve every bit of a
  // floating-point accumulation.
  StageTraits traits;
  traits.name = "battery";
  traits.default_partitions = kDefaultOut;
  traits.order_insensitive = false;
  const auto sum = [](double a, double b) { return a + b; };
  std::uint64_t seed = 900;
  for (const Workload& w : kWorkloads) {
    std::vector<std::pair<std::uint64_t, double>> records;
    for (const auto& [k, v] : make_records(w, ++seed)) {
      records.emplace_back(k, static_cast<double>(v) * 1.0e-3 + 0.1);
    }
    const auto reference = run_reduce(records, 4, sum, nullptr);
    for (const std::size_t workers : {1, 2, 8}) {
      const auto plans = AdaptivePlanner::reachable_plans(battery_config(workers), traits);
      for (const StagePlan& plan : plans) {
        SCOPED_TRACE(testing::Message() << w.name << " workers=" << workers << " plan="
                                        << plan.summary());
        // No reachable plan may toggle the combiner on this leg.
        ASSERT_FALSE(plan.combine.has_value());
        ASSERT_FALSE(plan.target_buffer_bytes.has_value());
        EXPECT_EQ(run_reduce(records, workers, sum, &plan), reference);
      }
    }
  }
}

// Spill-hint plans run against a real BlockStore backend and must still be
// byte-identical to the in-memory static path (spilling relocates bytes,
// never reorders them — DESIGN.md §13).
class PlanDeterminismSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("dias_plan_spill_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::filesystem::path root_;
};

TEST_F(PlanDeterminismSpillTest, SpillHintPlansMatchInMemoryReference) {
  StageTraits traits;
  traits.name = "battery";
  traits.default_partitions = kDefaultOut;
  traits.order_insensitive = true;
  AdaptivePlannerConfig cfg = battery_config(4);
  cfg.spill_budget_bytes = 16 * 1024;  // small enough that segments spill
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  const Workload w{"huge", 20000, 1021, 1.0};
  const auto records = make_records(w, 4242);
  const auto reference = run_reduce(records, 4, sum, nullptr);

  storage::BlockStoreOptions store_opts;
  store_opts.root = root_;
  store_opts.block_bytes = 4096;
  storage::BlockStore store(store_opts);

  std::size_t spill_plans = 0;
  for (const StagePlan& plan : AdaptivePlanner::reachable_plans(cfg, traits)) {
    if (!plan.spill_budget_bytes.has_value()) continue;
    ++spill_plans;
    SCOPED_TRACE(testing::Message() << "plan=" << plan.summary());
    storage::BlockStoreSpill spill(store, "plan" + std::to_string(spill_plans));
    EXPECT_EQ(run_reduce(records, 4, sum, &plan, &spill), reference);
  }
  EXPECT_GT(spill_plans, 5u);  // the hint dimension really was swept
}

// A spill hint on an engine with NO backend must stay advisory: same
// bytes, no config_error (the guard in Engine::apply_stage_plan).
TEST(PlanDeterminismTest, SpillHintWithoutBackendIsAdvisory) {
  const Workload w{"uniform", 3000, 257, 0.0};
  const auto records = make_records(w, 321);
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  const auto reference = run_reduce(records, 4, sum, nullptr);
  StagePlan plan;
  plan.spill_budget_bytes = 4096;
  EXPECT_EQ(run_reduce(records, 4, sum, &plan), reference);
}

// End-to-end: word count driven by a LIVE AdaptivePlanner reading the
// engine's own registry converges to non-identity plans and still produces
// exactly the static result, round after round.
TEST(PlanDeterminismTest, WordCountWithLivePlannerMatchesStaticExactly) {
  workload::TextCorpusParams params;
  params.posts = 300;
  params.mean_words_per_post = 30;
  params.vocabulary = 500;
  params.seed = 5;
  const auto corpus = workload::generate_text_corpus("battery", params);

  Engine::Options o;
  o.workers = 4;
  o.seed = 7;
  Engine static_eng(o);
  const auto static_result = analytics::word_count(
      static_eng, static_eng.parallelize(corpus.rows, kInputPartitions), 8);

  Engine adaptive_eng(o);
  obs::Registry registry;
  obs::Tracer tracer;
  adaptive_eng.attach_observability(&registry, &tracer);
  AdaptivePlannerConfig cfg;
  cfg.workers = 4;
  cfg.min_hold_decisions = 1;
  AdaptivePlanner planner(&registry, cfg, &registry, &tracer);

  const auto rows = adaptive_eng.parallelize(corpus.rows, kInputPartitions);
  bool saw_non_identity = false;
  for (int round = 0; round < 4; ++round) {
    const auto adaptive_result =
        analytics::word_count(adaptive_eng, rows, 8, -1.0, {}, &planner);
    EXPECT_EQ(adaptive_result.counts, static_result.counts) << "round " << round;
    const obs::Gauge* parts = registry.find_gauge("planner.wordcount.partitions");
    const obs::Gauge* combine = registry.find_gauge("planner.wordcount.combine");
    ASSERT_NE(parts, nullptr);
    ASSERT_NE(combine, nullptr);
    if (parts->value() != 8.0 || combine->value() != -1.0) {
      saw_non_identity = true;
    }
  }
  // The planner really adapted (it sees strong key collapse at minimum).
  EXPECT_TRUE(saw_non_identity);
  EXPECT_GE(registry.counter("planner.decisions").value(), 8u);  // 2 stages x 4 rounds
  adaptive_eng.attach_observability(nullptr, nullptr);
}

// PageRank's rank vector is floating point: with a live planner adapting
// the per-iteration sum shuffles, every rank must still match the static
// run BIT FOR BIT (the adjacency shuffle stays static by construction).
TEST(PlanDeterminismTest, PageRankWithLivePlannerIsBitwiseIdentical) {
  workload::GraphParams gp;
  gp.scale = 9;
  gp.edges = 4096;
  gp.seed = 11;
  const auto edges = workload::generate_rmat_graph(gp);

  const auto run = [&](engine::PlanSource* planner, obs::Registry* registry,
                       obs::Tracer* tracer) {
    Engine::Options o;
    o.workers = 4;
    o.seed = 13;
    Engine eng(o);
    if (registry != nullptr) eng.attach_observability(registry, tracer);
    analytics::PageRankOptions opts;
    opts.iterations = 5;
    opts.partitions = 8;
    opts.planner = planner;
    const auto result = eng.parallelize(edges, kInputPartitions);
    const auto pr = analytics::page_rank(eng, result, opts);
    if (registry != nullptr) eng.attach_observability(nullptr, nullptr);
    return pr.ranks;
  };

  const auto static_ranks = run(nullptr, nullptr, nullptr);
  obs::Registry registry;
  obs::Tracer tracer;
  AdaptivePlannerConfig cfg;
  cfg.workers = 4;
  cfg.min_hold_decisions = 1;
  AdaptivePlanner planner(&registry, cfg, &registry, &tracer);
  const auto adaptive_ranks = run(&planner, &registry, &tracer);

  ASSERT_EQ(adaptive_ranks.size(), static_ranks.size());
  for (const auto& [vertex, rank] : static_ranks) {
    const auto it = adaptive_ranks.find(vertex);
    ASSERT_NE(it, adaptive_ranks.end()) << "vertex " << vertex;
    std::uint64_t expect_bits = 0;
    std::uint64_t got_bits = 0;
    std::memcpy(&expect_bits, &rank, sizeof(expect_bits));
    std::memcpy(&got_bits, &it->second, sizeof(got_bits));
    EXPECT_EQ(got_bits, expect_bits) << "vertex " << vertex;
  }
  EXPECT_GE(registry.counter("planner.decisions").value(), 5u);  // one per iteration
}

}  // namespace
}  // namespace dias
