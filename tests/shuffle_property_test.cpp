// Property tests for the two-phase shuffle (engine/shuffle.hpp +
// Engine::combine_by_key): for randomized, seeded key/value sets across
// skew levels, partition counts and combine on/off, the shuffle must be
// result-equivalent (as a sorted multiset) to a single-threaded reference
// reduce — including under fault injection and theta > 0 on the reduce
// side — must be bitwise deterministic run-to-run, and must only ever be
// written from the engine pool's slotted workers.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dias::engine {
namespace {

using KV = std::pair<std::uint64_t, std::int64_t>;

// Seeded workload generator. `skew` = 0 draws keys uniformly from
// [0, key_space); higher skew concentrates mass on low keys (power-law),
// the distribution that serialized the old per-bucket-mutex shuffle.
std::vector<KV> make_records(std::uint64_t seed, std::size_t n, std::uint64_t key_space,
                             double skew) {
  Rng rng(seed);
  std::vector<KV> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    const auto key = static_cast<std::uint64_t>(
        static_cast<double>(key_space - 1) * std::pow(u, 1.0 + skew));
    out.emplace_back(key, static_cast<std::int64_t>(rng.uniform_int(1000)) - 500);
  }
  return out;
}

// Single-threaded reference reduce (sum), sorted by key.
std::vector<KV> reference_sums(const std::vector<KV>& records) {
  std::map<std::uint64_t, std::int64_t> acc;
  for (const auto& [k, v] : records) acc[k] += v;
  return {acc.begin(), acc.end()};
}

std::vector<KV> sorted_collect(const Dataset<KV>& ds) {
  auto all = ds.collect();
  std::sort(all.begin(), all.end());
  return all;
}

Engine::Options engine_opts(std::uint64_t seed, double drop = 0.0) {
  Engine::Options o;
  o.workers = 4;
  o.seed = seed;
  o.drop_ratio = drop;
  return o;
}

// The reduce stage of a shuffle is the last stage logged; its executed ids
// tell us which buckets survived theta on the reduce side.
std::set<std::size_t> executed_buckets(const Engine& eng) {
  const auto& stage = eng.stage_log().back();
  EXPECT_EQ(stage.kind, EngineStageKind::kReduce);
  return {stage.executed_partition_ids.begin(), stage.executed_partition_ids.end()};
}

TEST(ShufflePropertyTest, EquivalentToReferenceAcrossConfigurations) {
  const double skews[] = {0.0, 2.0, 6.0};
  const std::size_t in_parts[] = {1, 3, 8};
  const std::size_t out_parts[] = {1, 4, 9};
  std::uint64_t seed = 1000;
  for (const double skew : skews) {
    for (const std::size_t in_p : in_parts) {
      for (const std::size_t out_p : out_parts) {
        for (const bool combine : {true, false}) {
          SCOPED_TRACE(testing::Message() << "skew=" << skew << " in=" << in_p
                                          << " out=" << out_p << " combine=" << combine);
          const auto records = make_records(++seed, 4000, 257, skew);
          const auto expected = reference_sums(records);
          Engine eng(engine_opts(seed));
          const auto ds = eng.parallelize(records, in_p);
          ShuffleOptions shuffle;
          shuffle.combine = combine;
          const auto reduced = eng.reduce_by_key(
              ds, [](std::int64_t a, std::int64_t b) { return a + b; }, out_p, {},
              shuffle);
          EXPECT_EQ(sorted_collect(reduced), expected);
        }
      }
    }
  }
}

TEST(ShufflePropertyTest, TinyCombinerBudgetForcesFlushesAndStaysCorrect) {
  const auto records = make_records(7, 20000, 401, 1.5);
  const auto expected = reference_sums(records);
  Engine eng(engine_opts(7));
  const auto ds = eng.parallelize(records, 6);
  ShuffleOptions shuffle;
  shuffle.combine = true;
  shuffle.target_buffer_bytes = 256;  // absurdly small: flush constantly
  eng.clear_stage_log();
  const auto reduced = eng.reduce_by_key(
      ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 5, {}, shuffle);
  EXPECT_EQ(sorted_collect(reduced), expected);
  ASSERT_EQ(eng.stage_log().size(), 2u);
  const auto& write = eng.stage_log()[0];
  EXPECT_GT(write.shuffle_flushes, 0u);
  EXPECT_EQ(write.shuffle_records_in, 20000u);
}

TEST(ShufflePropertyTest, ThetaOnReduceSideDropsWholeBuckets) {
  for (const double theta : {0.3, 0.7, 1.0}) {
    for (const bool combine : {true, false}) {
      SCOPED_TRACE(testing::Message() << "theta=" << theta << " combine=" << combine);
      const auto records = make_records(42, 5000, 199, 1.0);
      Engine eng(engine_opts(42));
      const auto ds = eng.parallelize(records, 5);
      constexpr std::size_t kOut = 8;
      StageOptions opts;
      opts.droppable = true;
      opts.drop_ratio_override = theta;
      ShuffleOptions shuffle;
      shuffle.combine = combine;
      eng.clear_stage_log();
      const auto reduced = eng.reduce_by_key(
          ds, [](std::int64_t a, std::int64_t b) { return a + b; }, kOut, opts, shuffle);
      const auto survivors = executed_buckets(eng);
      // Dropped buckets contribute nothing; surviving buckets are exact.
      std::vector<KV> expected;
      for (const auto& kv : reference_sums(records)) {
        if (survivors.count(std::hash<std::uint64_t>{}(kv.first) % kOut) != 0) {
          expected.push_back(kv);
        }
      }
      EXPECT_EQ(sorted_collect(reduced), expected);
      const auto expected_buckets = static_cast<std::size_t>(
          std::ceil(static_cast<double>(kOut) * (1.0 - theta) - 1e-12));
      EXPECT_EQ(survivors.size(), expected_buckets);
    }
  }
}

TEST(ShufflePropertyTest, EquivalentUnderFaultInjection) {
  const auto records = make_records(11, 6000, 307, 2.0);
  const auto expected = reference_sums(records);
  for (const bool combine : {true, false}) {
    SCOPED_TRACE(testing::Message() << "combine=" << combine);
    chaos::ScopedChaos faults(chaos::ChaosSchedule::uniform(
        99, {0.25, chaos::Shape::kThrow}, chaos::points::kEngineTask));
    Engine::Options o = engine_opts(11);
    o.fault.max_attempts = 8;  // ample budget: exhaustion would be fatal here
    Engine eng(o);
    const auto ds = eng.parallelize(records, 7);
    ShuffleOptions shuffle;
    shuffle.combine = combine;
    eng.clear_stage_log();
    const auto reduced = eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 6, {}, shuffle);
    EXPECT_EQ(sorted_collect(reduced), expected);
    // The schedule really fired: retries happened on the shuffle stages.
    std::size_t retries = 0;
    for (const auto& s : eng.stage_log()) retries += s.retries;
    EXPECT_GT(retries, 0u);
  }
}

TEST(ShufflePropertyTest, GroupByKeyMatchesReferenceGrouping) {
  const auto records = make_records(23, 3000, 97, 1.0);
  std::map<std::uint64_t, std::vector<std::int64_t>> expected;
  for (const auto& [k, v] : records) expected[k].push_back(v);
  for (auto& [k, vs] : expected) std::sort(vs.begin(), vs.end());

  Engine eng(engine_opts(23));
  const auto ds = eng.parallelize(records, 5);
  const auto grouped = eng.group_by_key(ds, 4);
  std::map<std::uint64_t, std::vector<std::int64_t>> actual;
  for (auto& [k, vs] : grouped.collect()) {
    auto sorted = vs;
    std::sort(sorted.begin(), sorted.end());
    const bool inserted = actual.emplace(k, std::move(sorted)).second;
    EXPECT_TRUE(inserted) << "key " << k << " appears in two buckets";
  }
  EXPECT_EQ(actual, expected);
}

// The merge phase visits segments in (source partition, flush) order, so
// even floating-point reductions are bitwise reproducible for a fixed
// seed, regardless of thread scheduling.
TEST(ShufflePropertyTest, FloatingPointReductionIsBitwiseDeterministic) {
  const auto ints = make_records(31, 8000, 149, 3.0);
  std::vector<std::pair<std::uint64_t, double>> records;
  records.reserve(ints.size());
  for (const auto& [k, v] : ints) {
    records.emplace_back(k, static_cast<double>(v) * 1.0e-3 + 0.1);
  }
  auto run = [&](ShuffleOptions shuffle) {
    Engine eng(engine_opts(31));
    const auto ds = eng.parallelize(records, 6);
    const auto reduced =
        eng.reduce_by_key(ds, [](double a, double b) { return a + b; }, 5, {}, shuffle);
    std::vector<std::vector<std::pair<std::uint64_t, double>>> parts;
    for (std::size_t p = 0; p < reduced.partitions(); ++p) {
      parts.push_back(reduced.partition(p));
    }
    return parts;
  };
  for (const bool combine : {true, false}) {
    ShuffleOptions shuffle;
    shuffle.combine = combine;
    shuffle.target_buffer_bytes = 4096;  // several flushes per task
    const auto first = run(shuffle);
    const auto second = run(shuffle);
    // Exact equality, order included: the output is a pure function of the
    // input and the engine seed.
    EXPECT_EQ(first, second) << "combine=" << combine;
  }
}

TEST(ShufflePropertyTest, CombiningShrinksShuffledRecordsAndLogsStats) {
  // 40 distinct keys over 30k records: combining should collapse almost
  // everything on the map side.
  const auto records = make_records(57, 30000, 40, 0.0);
  Engine eng(engine_opts(57));
  obs::Registry registry;
  obs::Tracer tracer;
  eng.attach_observability(&registry, &tracer);
  const auto ds = eng.parallelize(records, 4);
  eng.clear_stage_log();
  eng.reduce_by_key(ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 4);
  ASSERT_EQ(eng.stage_log().size(), 2u);
  const auto& write = eng.stage_log()[0];
  const auto& merge = eng.stage_log()[1];
  EXPECT_EQ(write.shuffle_records_in, 30000u);
  EXPECT_LE(write.shuffle_records_out, 4u * 40u);  // <= keys x map tasks
  EXPECT_GT(write.shuffle_records_out, 0u);
  EXPECT_GT(write.shuffle_bytes, 0u);
  EXPECT_EQ(merge.shuffle_records_in, write.shuffle_records_out);
  // Metrics mirror the stage log; the tracer carries both sub-stage events.
  EXPECT_EQ(registry.counter("engine.shuffle.records_in").value(), 30000u);
  EXPECT_EQ(registry.counter("engine.shuffle.records_out").value(),
            write.shuffle_records_out);
  EXPECT_EQ(registry.histogram("engine.shuffle.combine_ratio", 0.0, 1.0, 50)
                .stats()
                .count,
            1u);
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  const std::string events = jsonl.str();
  EXPECT_NE(events.find("engine.shuffle.write"), std::string::npos);
  EXPECT_NE(events.find("engine.shuffle.merge"), std::string::npos);
  eng.attach_observability(nullptr, nullptr);
}

// A push without a worker slot is a precondition error, so this
// reduce/group/distinct sweep launched from the driver thread throws if
// any shuffle write runs off the pool's slotted workers.
TEST(ShuffleWritePathTest, DriverThreadShufflesWriteOnlyFromWorkerSlots) {
  const auto records = make_records(71, 10000, 123, 2.0);
  Engine eng(engine_opts(71));
  const auto ds = eng.parallelize(records, 8);
  for (const bool combine : {true, false}) {
    ShuffleOptions shuffle;
    shuffle.combine = combine;
    shuffle.target_buffer_bytes = 1024;
    const auto reduced = eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 7, {}, shuffle);
    EXPECT_EQ(sorted_collect(reduced), reference_sums(records)) << "combine=" << combine;
  }
  EXPECT_NO_THROW(eng.group_by_key(ds, 5));
  std::vector<std::uint64_t> keys;
  for (const auto& [k, v] : records) keys.push_back(k % 64);
  EXPECT_EQ(eng.distinct(eng.parallelize(std::move(keys), 6), 4).collect().size(), 64u);
}

// A stage body of one engine may drive a whole shuffle on another engine:
// the body's thread is foreign to engine B's pool, so it only waits while
// B's own slotted workers run both shuffle phases.
TEST(ShuffleWritePathTest, ShuffleLaunchedFromAnotherEnginesStageMatchesReference) {
  const auto records = make_records(72, 6000, 97, 1.0);
  const auto expected = reference_sums(records);
  Engine outer(engine_opts(72));
  const auto seeds = outer.parallelize(std::vector<int>{0, 1}, 2);
  const auto results = outer.map_partitions(seeds, [&](const std::vector<int>& part) {
    std::vector<std::vector<KV>> out;
    for (const int i : part) {
      Engine inner(engine_opts(100 + static_cast<std::uint64_t>(i)));
      const auto ds = inner.parallelize(records, 5);
      out.push_back(sorted_collect(inner.reduce_by_key(
          ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 3)));
    }
    return out;
  });
  const auto collected = results.collect();
  ASSERT_EQ(collected.size(), 2u);
  for (const auto& sums : collected) EXPECT_EQ(sums, expected);
}

TEST(ShuffleSinkTest, SlotlessWriterIsPreconditionError) {
  detail::ShuffleSink<int, int> sink(2, 3);
  // A writer without a worker slot (e.g. the driver thread) is rejected
  // before it touches any buffer.
  EXPECT_THROW(sink.push(ThreadPool::kNoSlot, 1, {0, 0, {{5, 1}}}), precondition_error);
  EXPECT_THROW(sink.push(2, 1, {0, 0, {{5, 1}}}), precondition_error);
  EXPECT_THROW(sink.adjust_scratch(ThreadPool::kNoSlot, 64), precondition_error);
  // Slotted writers land in their own buffers; bucket_segments merges the
  // slots in src order.
  sink.push(0, 1, {2, 0, {{6, 1}}});
  sink.push(1, 1, {1, 0, {{7, 1}}});
  sink.push(1, 1, {0, 0, {{5, 1}}});
  const auto segments = sink.bucket_segments(1);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0]->src, 0u);
  EXPECT_EQ(segments[1]->src, 1u);
  EXPECT_EQ(segments[2]->src, 2u);
  EXPECT_TRUE(sink.bucket_segments(0).empty());
}

TEST(FlatMapTest, InsertionOrderDedupAndGrowth) {
  detail::FlatMap<std::string, int> map;
  EXPECT_TRUE(map.empty());
  // Enough keys to force several growths.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      bool created = false;
      int& v = map.find_or_emplace("key" + std::to_string(i), [] { return 0; }, &created);
      EXPECT_EQ(created, round == 0) << "i=" << i << " round=" << round;
      ++v;
    }
  }
  ASSERT_EQ(map.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    // Entries come back in first-insertion order with folded values.
    EXPECT_EQ(map.entries()[static_cast<std::size_t>(i)].first,
              "key" + std::to_string(i));
    EXPECT_EQ(map.entries()[static_cast<std::size_t>(i)].second, 3);
  }
  const std::size_t bytes = map.approx_bytes();
  EXPECT_GT(bytes, 100u * sizeof(std::pair<std::string, int>) - 1);
  map.clear();
  EXPECT_TRUE(map.empty());
  bool created = false;
  map.find_or_emplace("key3", [] { return 9; }, &created);
  EXPECT_TRUE(created);  // cleared maps forget their keys but keep capacity
  EXPECT_EQ(map.size(), 1u);
}

// Integer keys whose identity hash lines up badly with a power-of-two
// slot table: a dense range, the same range shifted by the final table
// size (8192 slots for 5000 keys), and keys differing only above bit 40,
// which all share their low bits. Every key must be found again, and the
// entries must keep first-insertion order.
TEST(FlatMapTest, AdversarialIntegerKeysKeepLookupsAndOrder) {
  constexpr std::uint64_t kKeys = 5000;
  const std::vector<std::pair<const char*, std::vector<std::uint64_t>>> cases = [] {
    std::vector<std::uint64_t> dense;
    std::vector<std::uint64_t> shifted;
    std::vector<std::uint64_t> high_bits;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      dense.push_back(i);
      shifted.push_back(i + 8192);
      high_bits.push_back((i + 1) << 40);
    }
    return std::vector<std::pair<const char*, std::vector<std::uint64_t>>>{
        {"dense", dense}, {"shifted", shifted}, {"high_bits", high_bits}};
  }();
  for (const auto& [label, keys] : cases) {
    SCOPED_TRACE(label);
    detail::FlatMap<std::uint64_t, std::uint64_t> map;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        bool created = false;
        std::uint64_t& v = map.find_or_emplace(keys[i], [] { return 0; }, &created);
        ASSERT_EQ(created, round == 0) << "i=" << i;
        v += i;
      }
    }
    ASSERT_EQ(map.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(map.entries()[i].first, keys[i]);
      EXPECT_EQ(map.entries()[i].second, 2 * i);
    }
  }
}

// Metamorphic properties (ISSUE 8): transformations of the *configuration*
// or the *input presentation* that provably preserve the reduced relation
// must leave the result unchanged. These are the invariants the adaptive
// planner leans on when it rewrites partition counts or toggles the
// combiner mid-run, so the battery is tagged tsan+asan in CMake.
TEST(ShuffleMetamorphicTest, InvariantUnderInputPermutation) {
  std::uint64_t seed = 5000;
  for (const double skew : {0.0, 3.0}) {
    SCOPED_TRACE(testing::Message() << "skew=" << skew);
    auto records = make_records(++seed, 6000, 211, skew);
    const auto run = [&](const std::vector<KV>& input) {
      Engine eng(engine_opts(seed));
      const auto ds = eng.parallelize(input, 5);
      return sorted_collect(eng.reduce_by_key(
          ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 6));
    };
    const auto baseline = run(records);
    // Seeded Fisher-Yates: same multiset, different presentation order
    // (hence different per-partition slices and combiner fold orders).
    Rng rng(seed * 7 + 1);
    for (std::size_t i = records.size(); i > 1; --i) {
      std::swap(records[i - 1], records[rng.uniform_int(i)]);
    }
    EXPECT_EQ(run(records), baseline);
  }
}

TEST(ShuffleMetamorphicTest, InvariantUnderPartitionCountChanges) {
  const auto records = make_records(6001, 5000, 173, 1.5);
  const auto run = [&](std::size_t in_p, std::size_t out_p) {
    Engine eng(engine_opts(6001));
    const auto ds = eng.parallelize(records, in_p);
    return sorted_collect(eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, out_p));
  };
  const auto baseline = run(4, 4);
  for (const std::size_t in_p : {1, 3, 9}) {
    for (const std::size_t out_p : {1, 5, 16}) {
      SCOPED_TRACE(testing::Message() << "in=" << in_p << " out=" << out_p);
      EXPECT_EQ(run(in_p, out_p), baseline);
    }
  }
}

TEST(ShuffleMetamorphicTest, InvariantUnderCombinerToggleAndBufferSize) {
  const auto records = make_records(6002, 8000, 131, 2.0);
  const auto run = [&](bool combine, std::size_t buffer_bytes) {
    Engine eng(engine_opts(6002));
    const auto ds = eng.parallelize(records, 6);
    ShuffleOptions shuffle;
    shuffle.combine = combine;
    shuffle.target_buffer_bytes = buffer_bytes;
    return sorted_collect(eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 7, {}, shuffle));
  };
  const auto baseline = run(true, 1 << 20);
  for (const bool combine : {true, false}) {
    for (const std::size_t buffer : {std::size_t{512}, std::size_t{16384}}) {
      SCOPED_TRACE(testing::Message() << "combine=" << combine << " buffer=" << buffer);
      EXPECT_EQ(run(combine, buffer), baseline);
    }
  }
}

// distinct against a naive fold written here (no engine): bucket b must
// list the elements hashing to b in first-appearance order over
// (input partition, record). Covers the single-task and the
// many-flush write paths at 1 and 3 workers, and the raw (combine = false)
// ship path, so an order change common to every path cannot pass.
TEST(ShufflePropertyTest, DistinctMatchesFirstAppearanceFold) {
  constexpr std::size_t kBuckets = 5;
  Rng rng(515);
  std::vector<std::uint64_t> input(40000);
  for (auto& x : input) x = rng.uniform_int(3000);

  // parallelize splits contiguously, so (partition, record) order is the
  // input order.
  std::vector<std::vector<std::uint64_t>> expected(kBuckets);
  std::set<std::uint64_t> seen;
  for (const auto x : input) {
    if (seen.insert(x).second) expected[std::hash<std::uint64_t>{}(x) % kBuckets].push_back(x);
  }

  auto run = [&](std::size_t workers, std::size_t buffer, bool combine) {
    Engine::Options o = engine_opts(515);
    o.workers = workers;
    Engine eng(o);
    const auto ds = eng.parallelize(input, 9);
    eng.clear_stage_log();
    StageOptions opts;
    opts.name = "dedup";
    ShuffleOptions shuffle;
    shuffle.combine = combine;
    shuffle.target_buffer_bytes = buffer;
    const auto out = eng.distinct(ds, kBuckets, opts, shuffle);
    std::vector<std::vector<std::uint64_t>> buckets;
    for (std::size_t b = 0; b < out.partitions(); ++b) buckets.push_back(out.partition(b));
    return std::make_pair(buckets, eng.stage_log());
  };

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t buffer : {std::size_t{1} << 20, std::size_t{2048}}) {
      const auto [buckets, log] = run(workers, buffer, true);
      EXPECT_EQ(buckets, expected) << "workers=" << workers << " buffer=" << buffer;
      ASSERT_EQ(log.size(), 2u);
      EXPECT_EQ(log[0].name, "dedup");
      EXPECT_EQ(log[0].kind, EngineStageKind::kShuffleWrite);
      EXPECT_EQ(log[1].name, "dedup/merge");
      EXPECT_EQ(log[1].kind, EngineStageKind::kReduce);
      EXPECT_EQ(log[0].shuffle_records_in, 40000u);
      EXPECT_EQ(log[1].shuffle_records_in, log[0].shuffle_records_out);
    }
    EXPECT_EQ(run(workers, 2048, false).first, expected) << "combine=false workers=" << workers;
  }
}

TEST(ShufflePropertyTest, StringKeysWorkEndToEnd) {
  Rng rng(123);
  std::vector<std::pair<std::string, std::int64_t>> records;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "w";
    key += std::to_string(rng.uniform_int(200));
    records.emplace_back(std::move(key), 1);
  }
  std::map<std::string, std::int64_t> expected;
  for (const auto& [k, v] : records) expected[k] += v;

  Engine eng(engine_opts(123));
  const auto ds = eng.parallelize(records, 6);
  const auto reduced =
      eng.reduce_by_key(ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 5);
  std::map<std::string, std::int64_t> actual;
  for (const auto& [k, v] : reduced.collect()) actual[k] = v;
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace dias::engine
