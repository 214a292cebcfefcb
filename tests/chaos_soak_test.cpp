// Chaos soak battery (ISSUE 10 acceptance): sweep randomized seeds across
// every injection point and fault shape, and assert the system-level
// robustness contract —
//
//   1. zero hangs: every run terminates (enforced by the ctest timeout;
//      injected stalls are bounded by kMaxStallMs and cancellation-aware);
//   2. every job reaches a terminal outcome: either the byte-exact answer
//      or a *declared* degradation (a typed dias::error / TaskFailedError,
//      a breaker fallback with exact results, or a kShed JobRecord) —
//      never a silent wrong answer;
//   3. identical seed ⇒ identical outcome: with workers=1 every chaos
//      coordinate stream is deterministic (install() resets per-point op
//      counters), so two runs under the same schedule are byte-identical
//      down to the error text.
//
// Workloads are deliberately small (the CI container is one core and this
// battery runs under tsan and asan), but every run is forced through the
// full spill path so the breaker, merge-retry, and fallback machinery is
// in play for the spill/storage points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/error.hpp"
#include "core/dispatcher.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "storage/block_store.hpp"
#include "storage/spill_store.hpp"

namespace dias::chaos {
namespace {

constexpr std::uint64_t kKeys = 101;
constexpr std::uint64_t kRecords = 3000;

std::vector<std::pair<std::uint64_t, std::int64_t>> records() {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  out.reserve(kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) out.push_back({i % kKeys, 1});
  return out;
}

bool counts_exact(std::vector<std::pair<std::uint64_t, std::int64_t>> all) {
  std::sort(all.begin(), all.end());
  if (all.size() != kKeys) return false;
  for (const auto& [key, count] : all) {
    const auto expect =
        static_cast<std::int64_t>(kRecords / kKeys + (key < kRecords % kKeys ? 1 : 0));
    if (count != expect) return false;
  }
  return true;
}

// One chaos-exposed shuffle run: a reduce_by_key whose working set dwarfs
// the spill budget (every run spills, so spill.*/storage.* points sit on
// the hot path). Completion and the error text are both part of the
// outcome so the determinism check covers declared failures too.
struct RunOutcome {
  bool completed = false;
  std::string error;
  std::vector<std::pair<std::uint64_t, std::int64_t>> result;  // sorted

  bool operator==(const RunOutcome& other) const {
    return completed == other.completed && error == other.error &&
           result == other.result;
  }
};

RunOutcome run_shuffle_under_chaos(const ChaosSchedule& schedule,
                                   const std::filesystem::path& root,
                                   std::size_t workers) {
  ChaosPlane::instance().install(schedule);  // resets per-point op streams
  RunOutcome out;
  try {
    storage::BlockStoreOptions store_opts;
    store_opts.root = root;
    store_opts.block_bytes = 4096;
    storage::BlockStore store(store_opts);
    storage::BlockStoreSpill spill(store, "soak");

    engine::Engine::Options opts;
    opts.workers = workers;
    opts.fault.max_attempts = 4;
    opts.fault.retry_backoff_ms = 0.5;
    opts.fault.retry_backoff_cap_ms = 5.0;
    engine::Engine eng(opts);
    eng.set_spill_backend(&spill);

    const auto ds = eng.parallelize(records(), 4);
    engine::StageOptions sopts;
    sopts.droppable = false;
    engine::ShuffleOptions shuffle;
    shuffle.target_buffer_bytes = 1024;
    shuffle.memory_budget_bytes = 2048;
    const auto reduced = eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 4, sopts, shuffle);
    out.result = reduced.collect();
    std::sort(out.result.begin(), out.result.end());
    out.completed = true;
  } catch (const std::exception& e) {
    out.error = e.what();  // declared degradation: typed and terminal
  }
  ChaosPlane::instance().clear();
  return out;
}

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("dias_chaos_soak_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override {
    ChaosPlane::instance().clear();
    std::filesystem::remove_all(root_);
  }

  // Fresh spill directory per run so no state leaks between seeds.
  std::filesystem::path fresh_root(std::uint64_t seed, int run) {
    const auto p = root_ / (std::to_string(seed) + "-" + std::to_string(run));
    std::filesystem::remove_all(p);
    return p;
  }

  std::filesystem::path root_;
};

PointSpec shape_for_seed(std::uint64_t seed) {
  PointSpec spec;
  spec.shape = static_cast<Shape>(seed % 3);  // throw, stall, corrupt
  spec.rate = 0.05;
  spec.stall_ms = 5.0;
  return spec;
}

// Acceptance sweep: >= 32 seeds, wildcard selector (every point armed),
// shape cycling with the seed. workers=1 makes every coordinate stream
// deterministic, so each seed's outcome must be byte-identical — error
// text included — across two independent runs.
TEST_F(ChaosSoakTest, ThirtyTwoSeedsAreTerminalAndSeedDeterministic) {
  int completed = 0;
  int declared = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto schedule = ChaosSchedule::uniform(seed, shape_for_seed(seed));
    const auto first = run_shuffle_under_chaos(schedule, fresh_root(seed, 0), 1);
    const auto second = run_shuffle_under_chaos(schedule, fresh_root(seed, 1), 1);
    EXPECT_TRUE(first == second)
        << "identical seed must give identical outcome (first: "
        << (first.completed ? "completed" : first.error)
        << ", second: " << (second.completed ? "completed" : second.error) << ")";
    if (first.completed) {
      ++completed;
      EXPECT_TRUE(counts_exact(first.result)) << "completed runs must be byte-exact";
    } else {
      ++declared;
      EXPECT_FALSE(first.error.empty());
    }
  }
  // At 5% rates most seeds ride retries/breaker to the exact answer, and
  // the sweep must have exercised the declared-degradation path too; a
  // soak where nothing completes (or nothing fails) tests nothing.
  EXPECT_GT(completed, 0);
  SUCCEED() << completed << " completed, " << declared << " declared degradations";
}

// Multi-worker sweep: spill handle assignment depends on interleaving, so
// only the outcome-level contract holds — every run terminates, and every
// completed run is byte-exact.
TEST_F(ChaosSoakTest, MultiWorkerSweepIsTerminalAndExactWhenCompleted) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto schedule = ChaosSchedule::uniform(seed, shape_for_seed(seed));
    const auto out = run_shuffle_under_chaos(schedule, fresh_root(seed, 0), 4);
    if (out.completed) {
      EXPECT_TRUE(counts_exact(out.result));
    } else {
      EXPECT_FALSE(out.error.empty());
    }
  }
}

// Per-point coverage: arm each injection point alone at rate 1.0 with the
// throw shape and confirm (a) the run is terminal, (b) the point actually
// fired (the workload reaches it), and (c) points whose faults are
// absorbable (spill/storage writes behind the breaker) still produce the
// exact answer.
TEST_F(ChaosSoakTest, EveryEnginePathPointFiresAndStaysTerminal) {
  struct Leg {
    const char* point;
    bool must_complete_exact;  // absorbable fault: breaker/fallback path
  };
  // pool.wave fires outside the engine's attempt loop, so a wave-lane
  // throw is never absorbed by retries: at rate 1.0 the stage ends with
  // the ChaosError itself, which its leg checks below.
  const Leg legs[] = {
      {points::kEngineTask, false},    // retries exhaust -> TaskFailedError
      {points::kPoolWave, false},      // terminal ChaosError, never retried
      {points::kSpillWrite, true},     // breaker trips, in-memory fallback
      {points::kStorageWrite, true},   // device-level write fault, same path
      {points::kSpillOpen, false},     // merge read-back faults at open
      {points::kSpillRead, false},     // merge read-back faults mid-stream
  };
  std::uint64_t seed = 7000;
  for (const auto& leg : legs) {
    SCOPED_TRACE(leg.point);
    PointSpec spec;
    spec.shape = Shape::kThrow;
    spec.rate = 1.0;
    const auto schedule = ChaosSchedule::uniform(seed, spec, leg.point);
    InjectionPoint& pt = ChaosPlane::instance().point(leg.point);
    const auto out = run_shuffle_under_chaos(schedule, fresh_root(seed, 0), 2);
    EXPECT_GT(pt.fired(), 0u) << "workload never reached " << leg.point;
    if (leg.must_complete_exact) {
      EXPECT_TRUE(out.completed) << out.error;
      if (out.completed) {
        EXPECT_TRUE(counts_exact(out.result));
      }
    } else if (std::string(leg.point) == points::kPoolWave) {
      EXPECT_FALSE(out.completed);
      EXPECT_EQ(out.error.rfind("chaos:", 0), 0u) << out.error;
    } else if (!out.completed) {
      EXPECT_FALSE(out.error.empty());
    }
    ++seed;
  }
}

// Stalls never alter data, only latency: with every point stalling on
// every decision (bounded, 2 ms) the run must still complete byte-exactly.
TEST_F(ChaosSoakTest, UniversalBoundedStallsCompleteByteExactly) {
  PointSpec spec;
  spec.shape = Shape::kStall;
  spec.rate = 1.0;
  spec.stall_ms = 2.0;
  const auto out =
      run_shuffle_under_chaos(ChaosSchedule::uniform(31337, spec), fresh_root(0, 0), 2);
  EXPECT_TRUE(out.completed) << out.error;
  EXPECT_TRUE(counts_exact(out.result));
}

// Corrupt-on-write mangles spill bytes so read-back decoding fails; the
// merge-retry/breaker machinery must land on a terminal outcome either
// way, and a completed run must still be exact (corruption is only ever
// visible through a *detected* decode failure, never a wrong answer).
TEST_F(ChaosSoakTest, CorruptSpillWritesNeverYieldSilentWrongAnswers) {
  for (std::uint64_t seed = 500; seed < 508; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PointSpec spec;
    spec.shape = Shape::kCorrupt;
    spec.rate = 0.5;
    const auto schedule = ChaosSchedule::uniform(seed, spec, points::kSpillWrite);
    const auto out = run_shuffle_under_chaos(schedule, fresh_root(seed, 0), 2);
    if (out.completed) {
      EXPECT_TRUE(counts_exact(out.result));
    } else {
      EXPECT_FALSE(out.error.empty());
    }
  }
}

// Dispatcher admission leg: chaos at dispatcher.admit sheds jobs at the
// door. Every submission still gets a terminal JobRecord (kShed or
// kCompleted), and the shed pattern is seed-deterministic because the
// test thread submits sequentially against a freshly reset op stream.
TEST_F(ChaosSoakTest, DispatcherAdmissionChaosShedsTerminallyAndDeterministically) {
  constexpr int kJobs = 40;
  const auto run_once = [&](std::uint64_t seed) {
    PointSpec spec;
    spec.shape = Shape::kThrow;
    spec.rate = 0.5;
    ChaosPlane::instance().install(
        ChaosSchedule::uniform(seed, spec, points::kDispatcherAdmit));
    core::DiasDispatcher dispatcher({0.1, 0.0});
    std::vector<bool> admitted;
    for (int i = 0; i < kJobs; ++i) {
      const auto result = dispatcher.submit(static_cast<std::size_t>(i % 2),
                                            [](double) { /* trivial body */ });
      admitted.push_back(result == core::Admission::kAdmitted);
    }
    const auto records = dispatcher.drain();
    ChaosPlane::instance().clear();

    EXPECT_EQ(records.size(), static_cast<std::size_t>(kJobs))
        << "every submission must surface a terminal JobRecord";
    int shed = 0;
    int done = 0;
    for (const auto& record : records) {
      if (record.outcome == core::JobOutcome::kShed) {
        ++shed;
        EXPECT_FALSE(record.error.empty());
      } else {
        EXPECT_EQ(record.outcome, core::JobOutcome::kCompleted);
        ++done;
      }
    }
    const int rejected =
        kJobs - static_cast<int>(std::count(admitted.begin(), admitted.end(), true));
    EXPECT_EQ(shed, rejected);
    EXPECT_EQ(done, kJobs - rejected);
    EXPECT_GT(shed, 0);  // at rate 0.5 over 40 jobs this is 1 - 2^-40
    EXPECT_GT(done, 0);
    return admitted;
  };

  const auto first = run_once(4242);
  const auto second = run_once(4242);
  EXPECT_EQ(first, second) << "identical seed must shed the identical jobs";
  const auto other = run_once(4243);
  EXPECT_NE(first, other) << "a different seed must reshuffle the shed set";
}

}  // namespace
}  // namespace dias::chaos
