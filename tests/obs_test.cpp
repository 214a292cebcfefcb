#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dias::obs {
namespace {

// --- registry ---------------------------------------------------------------

TEST(RegistryTest, CounterGaugeHistogramBasics) {
  Registry reg;
  auto& c = reg.counter("c");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  auto& g = reg.gauge("g");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  auto& h = reg.histogram("h", 0.0, 10.0, 10);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(5.0);
  const auto s = h.stats();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_GE(s.p95, s.p50);
  EXPECT_GE(s.p99, s.p95);
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  Registry reg;
  auto& a = reg.counter("x");
  auto& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // A histogram's shape is fixed by its first registration.
  auto& h1 = reg.histogram("hist", 0.0, 1.0, 4);
  auto& h2 = reg.histogram("hist", 0.0, 100.0, 64);
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, KindConflictThrows) {
  Registry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), dias::precondition_error);
  EXPECT_THROW(reg.histogram("metric", 0.0, 1.0, 2), dias::precondition_error);
  reg.gauge("other");
  EXPECT_THROW(reg.counter("other"), dias::precondition_error);
}

TEST(RegistryTest, ConcurrentCounterIncrementsAreExact) {
  Registry reg;
  auto& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, SnapshotWhileRecording) {
  Registry reg;
  auto& c = reg.counter("c");
  auto& h = reg.histogram("h", 0.0, 1.0, 8);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      c.add();
      h.observe(0.5);
    }
  });
  // Concurrent registration + snapshots must be safe and monotone.
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    std::string name = "g";
    name += std::to_string(i % 10);
    reg.gauge(name).set(i);
    const auto snap = reg.snapshot();
    ASSERT_FALSE(snap.counters.empty());
    EXPECT_GE(snap.counters.front().value, last);
    last = snap.counters.front().value;
  }
  stop.store(true);
  writer.join();
  const auto final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counters.front().value, c.value());
  EXPECT_EQ(final_snap.histograms.front().stats.count, h.stats().count);
}

TEST(RegistryTest, SnapshotJsonShape) {
  Registry reg;
  reg.counter("runs").add(2);
  reg.gauge("level").set(7.25);
  reg.histogram("lat", 0.0, 1.0, 4).observe(0.25);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"level\":7.25"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// --- json writer ------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.field("s", "a\"b\\c\n");
  w.key("arr");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(2.5);
  w.value(true);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.field("x", std::int64_t{-3});
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,true],\"nested\":{\"x\":-3}}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object();
  w.field("inf", std::numeric_limits<double>::infinity());
  w.field("nan", std::numeric_limits<double>::quiet_NaN());
  w.end_object();
  EXPECT_EQ(w.str(), "{\"inf\":null,\"nan\":null}");
}

// --- tracer -----------------------------------------------------------------

TEST(TracerTest, JsonlEventOrderingWithinSpan) {
  Tracer tracer;
  const auto outer = tracer.begin_span("outer", {{"stage", "map"}});
  tracer.event("tick", {{"i", std::uint64_t{1}}});
  const auto inner = tracer.begin_span("inner");
  tracer.end_span(inner);
  tracer.end_span(outer, {{"executed", std::uint64_t{7}}});
  EXPECT_EQ(tracer.event_count(), 5u);

  std::ostringstream os;
  tracer.write_jsonl(os);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream is(os.str());
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  // Recording order is preserved: begin(outer), tick, begin(inner),
  // end(inner), end(outer).
  EXPECT_NE(lines[0].find("\"type\":\"begin\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"stage\":\"map\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"type\":\"end\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"type\":\"end\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"executed\":7"), std::string::npos);
  // Every line is one JSON object.
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
}

TEST(TracerTest, EndingUnknownSpanThrows) {
  Tracer tracer;
  EXPECT_THROW(tracer.end_span(42), dias::precondition_error);
  const auto span = tracer.begin_span("s");
  tracer.end_span(span);
  EXPECT_THROW(tracer.end_span(span), dias::precondition_error);
}

TEST(TracerTest, SummaryAggregatesPerName) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    const auto s = tracer.begin_span("stage");
    tracer.end_span(s);
  }
  const auto open = tracer.begin_span("pending");
  (void)open;
  tracer.event("note");
  const std::string summary = tracer.summary_json();
  EXPECT_NE(summary.find("\"stage\""), std::string::npos);
  EXPECT_NE(summary.find("\"count\":3"), std::string::npos);
  EXPECT_NE(summary.find("\"open_spans\":1"), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, ConcurrentSpansRemainBalanced) {
  Tracer tracer;
  constexpr int kThreads = 6;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        const auto s =
            tracer.begin_span("worker" + std::to_string(t), {{"i", std::uint64_t(i)}});
        tracer.end_span(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(), 2u * kThreads * kSpans);
  const std::string summary = tracer.summary_json();
  EXPECT_NE(summary.find("\"open_spans\":0"), std::string::npos);
}

// --- thread pool metrics ----------------------------------------------------

TEST(ObsIntegrationTest, ThreadPoolMetricsCountTasks) {
  Registry reg;
  engine::ThreadPool pool(3);
  pool.attach_metrics(reg, "pool");
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(reg.counter("pool.tasks_submitted").value(), 50u);
  EXPECT_EQ(reg.counter("pool.tasks_completed").value(), 50u);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.workers").value(), 3.0);
}

// --- sharded counter (ISSUE 9) ---------------------------------------------

TEST(ShardedCounterTest, FoldsAcrossShards) {
  ShardedCounter c(4);
  EXPECT_EQ(c.shards(), 4u);
  c.add(0, 5);
  c.add(1);
  c.add(3, 10);
  EXPECT_EQ(c.shard_value(0), 5u);
  EXPECT_EQ(c.shard_value(1), 1u);
  EXPECT_EQ(c.shard_value(2), 0u);
  EXPECT_EQ(c.value(), 16u);
}

TEST(ShardedCounterTest, OutOfRangeShardWrapsInsteadOfCorrupting) {
  ShardedCounter c(3);
  c.add(7, 2);  // 7 % 3 == 1
  EXPECT_EQ(c.shard_value(1), 2u);
  EXPECT_EQ(c.value(), 2u);
  ShardedCounter zero(0);  // degenerate: clamps to one shard
  zero.add(42);
  EXPECT_EQ(zero.value(), 1u);
}

TEST(ShardedCounterTest, ConcurrentAddsAreExact) {
  ShardedCounter c(8);
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kAdds; ++i) c.add(static_cast<std::size_t>(t));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// Attaching the registry in the middle of a submit/wave storm must be
// race-safe AND exact-after-quiesce: the pool re-bases and publishes its
// full internal totals, so the old attach-before-submit footgun is gone.
TEST(ObsIntegrationTest, AttachMetricsMidStormIsExactAfterQuiesce) {
  Registry reg;
  engine::ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::atomic<bool> stop{false};
  std::thread submitter([&] {
    while (!stop.load()) {
      pool.submit([&ran] { ++ran; }).get();
    }
  });
  std::thread indexer([&] {
    while (!stop.load()) {
      pool.run_indexed(16, [&ran](std::size_t) { ++ran; });
    }
  });
  // Let the storm run un-attached, then attach mid-flight.
  while (ran.load() < 500) std::this_thread::yield();
  pool.attach_metrics(reg, "pool");
  while (ran.load() < 1500) std::this_thread::yield();
  stop = true;
  submitter.join();
  indexer.join();
  // Quiesced: every published count matches the pool's internal truth.
  EXPECT_EQ(reg.counter("pool.tasks_completed").value(),
            static_cast<std::uint64_t>(ran.load()));
  EXPECT_EQ(reg.counter("pool.tasks_completed").value(), pool.tasks_executed());
  EXPECT_EQ(reg.counter("pool.tasks_submitted").value(),
            reg.counter("pool.tasks_completed").value());
  EXPECT_GT(reg.counter("pool.waves").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.queue_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.busy_workers").value(), 0.0);
  // Re-attaching must not double-count history.
  pool.attach_metrics(reg, "pool");
  EXPECT_EQ(reg.counter("pool.tasks_completed").value(), pool.tasks_executed());
}

// --- engine integration -----------------------------------------------------

engine::Engine::Options engine_opts(double drop = 0.0) {
  engine::Engine::Options o;
  o.workers = 4;
  o.seed = 42;
  o.drop_ratio = drop;
  return o;
}

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

// Runs one droppable map stage and returns the registry + tracer contents.
struct EngineRun {
  std::uint64_t executed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stages = 0;
  std::size_t events = 0;
};

EngineRun run_instrumented_engine(std::uint64_t seed, double theta) {
  Registry reg;
  Tracer tracer;
  auto opts = engine_opts(theta);
  opts.seed = seed;
  engine::Engine eng(opts);
  eng.attach_observability(&reg, &tracer);
  const auto ds = eng.parallelize(iota_vec(1000), 20);
  engine::StageOptions so;
  so.name = "obs-map";
  so.droppable = true;
  eng.map_partitions(
      ds, [](const std::vector<int>& part) { return std::vector<int>{(int)part.size()}; },
      so);
  EngineRun run;
  run.executed = reg.counter("engine.tasks_executed").value();
  run.dropped = reg.counter("engine.tasks_dropped").value();
  run.stages = reg.counter("engine.stages").value();
  run.events = tracer.event_count();
  return run;
}

TEST(ObsIntegrationTest, EngineMetricsMatchStageLog) {
  Registry reg;
  Tracer tracer;
  engine::Engine eng(engine_opts(0.25));
  eng.attach_observability(&reg, &tracer);
  const auto ds = eng.parallelize(iota_vec(1000), 20);
  engine::StageOptions so;
  so.name = "obs-map";
  so.droppable = true;
  eng.map_partitions(
      ds, [](const std::vector<int>& part) { return std::vector<int>{(int)part.size()}; },
      so);
  ASSERT_EQ(eng.stage_log().size(), 1u);
  const auto& info = eng.stage_log().front();
  EXPECT_EQ(reg.counter("engine.stages").value(), 1u);
  EXPECT_EQ(reg.counter("engine.tasks_executed").value(), info.executed_partitions);
  EXPECT_EQ(reg.counter("engine.tasks_dropped").value(),
            info.total_partitions - info.executed_partitions);
  const auto task_stats = reg.histogram("engine.task_time_s", 0.0, 10.0, 200).stats();
  EXPECT_EQ(task_stats.count, info.executed_partitions);
  // One begin + one end span for the stage.
  EXPECT_EQ(tracer.event_count(), 2u);
  std::ostringstream os;
  tracer.write_jsonl(os);
  const std::string jsonl = os.str();
  EXPECT_NE(jsonl.find("\"name\":\"engine.stage\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"stage\":\"obs-map\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"theta\":0.25"), std::string::npos);
  EXPECT_NE(jsonl.find("\"effective_theta\""), std::string::npos);
}

TEST(ObsIntegrationTest, EngineMetricsDeterministicUnderFixedSeed) {
  const auto a = run_instrumented_engine(7, 0.3);
  const auto b = run_instrumented_engine(7, 0.3);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.executed + a.dropped, 20u);
  EXPECT_EQ(a.dropped, 6u);  // ceil(20 * 0.7) = 14 kept
}

// Torn-read regression: a histogram snapshot racing observe() used to be
// able to read a torn (count, mean, m2) tuple — e.g. the new count with
// the old sum — visible as impossible aggregate values. stats() reads
// under the writers' mutex, so every snapshot must be consistent: we
// hammer one histogram from writer threads that only ever record values
// from {0, 10} while reader threads continuously snapshot and check the
// invariants any *consistent* prefix of that stream satisfies.
TEST(RegistryTest, ConcurrentHistogramSnapshotsAreConsistent) {
  Registry registry;
  auto& hist = registry.histogram("stress.h", 0.0, 10.0, 20);

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&hist, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        hist.observe((i + static_cast<std::uint64_t>(w)) % 2 == 0 ? 0.0 : 10.0);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&hist, &stop, &torn] {
      std::size_t last_count = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = hist.stats();
        if (s.count == 0) continue;
        // Counts only grow.
        if (s.count < last_count) torn.fetch_add(1);
        last_count = s.count;
        // Every observation is 0 or 10, so any consistent prefix has
        // bounds inside {0, 10} and an integral sum (mean * count must be
        // a multiple of 10, the torn-pair smoking gun).
        if (!(s.min == 0.0 || s.min == 10.0)) torn.fetch_add(1);
        if (!(s.max == 0.0 || s.max == 10.0)) torn.fetch_add(1);
        const double sum = s.mean * static_cast<double>(s.count);
        const double remainder = std::fmod(sum + 0.5, 10.0);
        if (std::abs(remainder - 0.5) > 1e-6 * (1.0 + sum)) torn.fetch_add(1);
        if (s.mean < 0.0 || s.mean > 10.0) torn.fetch_add(1);
        if (s.p50 < 0.0 || s.p50 > 10.0) torn.fetch_add(1);
        if (s.p99 < 0.0 || s.p99 > 10.0) torn.fetch_add(1);
        // Registry-level snapshots exercise the same read path.
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);

  // Quiescent totals are exact: the locked write path loses nothing.
  const auto s = hist.stats();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 10.0);
  EXPECT_NEAR(s.mean, 5.0, 1e-9);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].stats.count, kWriters * kPerWriter);
}

TEST(ObsIntegrationTest, DetachedEngineRecordsNothing) {
  engine::Engine eng(engine_opts(0.0));
  // No attach_observability call: stages must run exactly as before.
  const auto ds = eng.parallelize(iota_vec(100), 4);
  eng.map_partitions(
      ds, [](const std::vector<int>& part) { return std::vector<int>{(int)part.size()}; });
  EXPECT_EQ(eng.stage_log().size(), 1u);
  EXPECT_EQ(eng.stage_log().front().executed_partitions, 4u);
}

}  // namespace
}  // namespace dias::obs
