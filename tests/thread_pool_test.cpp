#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace dias::engine {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleWorkerSerializes) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // Pool still usable afterwards.
  auto g = pool.submit([] {});
  EXPECT_NO_THROW(g.get());
}

TEST(ThreadPoolTest, RunIndexedCoversAllIndices) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::size_t> seen;
  pool.run_indexed(200, [&](std::size_t i) {
    std::lock_guard lock(mutex);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 200u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 199u);
}

TEST(ThreadPoolTest, RunIndexedZeroTasks) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.run_indexed(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPoolTest, RunIndexedWaitsForAllBeforeRethrow) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run_indexed(40, [&](std::size_t i) {
      if (i == 5) throw std::runtime_error("task failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++completed;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
    EXPECT_EQ(completed.load(), 39);  // every other task still ran
  }
}

// The monitor runs on the waiting thread while the wave is in flight, and
// the wave's completion ends it even when it never declares itself done.
TEST(ThreadPoolTest, MonitorRunsOnWaiterUntilWaveCompletes) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  int ticks = 0;
  bool on_caller = true;
  pool.run_indexed(
      6,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ++ran;
      },
      nullptr,
      [&] {
        ++ticks;
        on_caller = on_caller && std::this_thread::get_id() == caller;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return true;
      });
  EXPECT_EQ(ran.load(), 6);
  EXPECT_GT(ticks, 1);
  EXPECT_TRUE(on_caller);

  // A monitor that is done at once is not called again; the wait goes on.
  ticks = 0;
  ran = 0;
  pool.run_indexed(
      6,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++ran;
      },
      nullptr, [&] {
        ++ticks;
        return false;
      });
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(ticks, 1);
}

TEST(ThreadPoolTest, ActuallyParallel) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.run_indexed(8, [&](std::size_t) {
    const int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --concurrent;
  });
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, NeedsAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool{0}, dias::precondition_error);
}

TEST(ThreadPoolTest, PendingCountsQueuedWork) {
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  // Occupy both workers, then queue five more tasks behind them.
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 2; ++i) futures.push_back(pool.submit([open] { open.wait(); }));
  // Wait until both blockers were dequeued.
  while (pool.pending() > 0) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) futures.push_back(pool.submit([] {}));
  EXPECT_EQ(pool.pending(), 5u);
  gate.set_value();
  for (auto& f : futures) f.get();
  EXPECT_EQ(pool.pending(), 0u);
}

// --- stress: the engine's fault path drives the pool from several threads --

TEST(ThreadPoolStressTest, ConcurrentSubmitAndRunIndexed) {
  ThreadPool pool(4);
  std::atomic<int> submitted_done{0};
  std::atomic<int> indexed_done{0};
  std::thread submitter_a([&] {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 300; ++i) {
      futures.push_back(pool.submit([&submitted_done] { ++submitted_done; }));
    }
    for (auto& f : futures) f.get();
  });
  std::thread submitter_b([&] {
    for (int i = 0; i < 300; ++i) pool.submit([&submitted_done] { ++submitted_done; }).get();
  });
  std::thread indexer([&] {
    pool.run_indexed(400, [&indexed_done](std::size_t) { ++indexed_done; });
  });
  pool.run_indexed(400, [&indexed_done](std::size_t) { ++indexed_done; });
  submitter_a.join();
  submitter_b.join();
  indexer.join();
  EXPECT_EQ(submitted_done.load(), 600);
  EXPECT_EQ(indexed_done.load(), 800);
}

TEST(ThreadPoolStressTest, ConcurrentRunIndexedExceptionsStayIsolated) {
  ThreadPool pool(4);
  std::atomic<int> ran_a{0};
  std::atomic<int> ran_b{0};
  std::atomic<bool> caught_a{false};
  std::thread other([&] {
    try {
      pool.run_indexed(100, [&ran_a](std::size_t i) {
        if (i == 13) throw std::runtime_error("a failed");
        ++ran_a;
      });
    } catch (const std::runtime_error&) {
      caught_a = true;
    }
  });
  // A clean run on the main thread must not see the other run's error.
  EXPECT_NO_THROW(pool.run_indexed(100, [&ran_b](std::size_t) { ++ran_b; }));
  other.join();
  EXPECT_TRUE(caught_a.load());
  EXPECT_EQ(ran_a.load(), 99);  // all of a's other tasks still ran
  EXPECT_EQ(ran_b.load(), 100);
}

TEST(ThreadPoolStressTest, DestructionDrainsQueuedWork) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++completed;
      });
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(completed.load(), 200);
}

TEST(ThreadPoolStressTest, ManyProducersManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 8; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        auto f = pool.submit([&counter] { ++counter; });
        std::lock_guard lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& p : producers) p.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 2000);
}

// --- elastic pool: reserve slots, slot leases, sprint-driven resizes -------

TEST(ElasticThreadPoolTest, ReserveSlotsStartDormant) {
  ThreadPool pool(2, 2);
  EXPECT_EQ(pool.workers(), 4u);        // per-slot containers size to this
  EXPECT_EQ(pool.base_workers(), 2u);
  EXPECT_EQ(pool.active_workers(), 2u);
  // Only the base slots pull tasks: peak concurrency stays at 2.
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.run_indexed(12, [&](std::size_t) {
    const int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    --concurrent;
  });
  EXPECT_LE(peak.load(), 2);
}

TEST(ElasticThreadPoolTest, LeaseGrantsClampToReserve) {
  ThreadPool pool(2, 2);
  EXPECT_EQ(pool.lease_extra_workers(5), 2u);
  EXPECT_EQ(pool.active_workers(), 4u);
  EXPECT_EQ(pool.lease_extra_workers(1), 0u);  // reserve exhausted
  pool.release_extra_workers(2);
  EXPECT_EQ(pool.active_workers(), 2u);
  EXPECT_EQ(pool.lease_extra_workers(1), 1u);
  pool.release_extra_workers(1);
  // Releasing below the base floor is a contract violation.
  EXPECT_THROW(pool.release_extra_workers(1), dias::precondition_error);
}

TEST(ElasticThreadPoolTest, LeaseWidensStageMidFlight) {
  ThreadPool pool(1, 3);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  // Four tasks that only finish once all four run concurrently — possible
  // only if the lease activates the reserve while the stage is in flight.
  std::thread stage([&] {
    pool.run_indexed(4, [&](std::size_t) {
      std::unique_lock lock(mutex);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == 4; });
    });
  });
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return arrived >= 1; });  // stage is running
  }
  EXPECT_EQ(pool.lease_extra_workers(3), 3u);
  stage.join();
  EXPECT_EQ(arrived, 4);
  pool.release_extra_workers(3);
}

TEST(ElasticThreadPoolTest, SlotIdsStableAndDistinctAcrossLease) {
  ThreadPool pool(2, 2);
  SlotLease lease(pool, 2);
  ASSERT_EQ(lease.granted(), 2u);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::set<std::size_t> slots;
  pool.run_indexed(4, [&](std::size_t) {
    std::unique_lock lock(mutex);
    slots.insert(pool.current_slot());
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == 4; });
  });
  // All four slots ran concurrently under stable, distinct ids covering
  // exactly 0..workers()-1 — the invariant per-slot shuffle buffers need.
  EXPECT_EQ(slots, (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(ElasticThreadPoolTest, SlotLeaseRaiiReleasesOnScopeExit) {
  ThreadPool pool(2, 3);
  {
    SlotLease lease(pool, 2);
    EXPECT_EQ(lease.granted(), 2u);
    EXPECT_EQ(pool.active_workers(), 4u);
    SlotLease moved = std::move(lease);
    EXPECT_EQ(moved.granted(), 2u);
    EXPECT_EQ(pool.active_workers(), 4u);
  }
  EXPECT_EQ(pool.active_workers(), 2u);
}

TEST(ElasticThreadPoolTest, MetricsTrackActiveWorkers) {
  obs::Registry reg;
  ThreadPool pool(2, 2);
  pool.attach_metrics(reg, "pool");
  EXPECT_DOUBLE_EQ(reg.gauge("pool.workers").value(), 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.active_workers").value(), 2.0);
  SlotLease lease(pool, 2);
  EXPECT_DOUBLE_EQ(reg.gauge("pool.active_workers").value(), 4.0);
  lease.reset();
  EXPECT_DOUBLE_EQ(reg.gauge("pool.active_workers").value(), 2.0);
}

// Resize churn while stages and ad-hoc submissions race — the TSAN target
// for ElasticThreadPool (lease/release vs worker gating vs queue traffic).
TEST(ThreadPoolStressTest, LeaseReleaseChurnWhileRunning) {
  ThreadPool pool(2, 4);
  std::atomic<bool> stop{false};
  std::atomic<int> indexed_done{0};
  std::atomic<int> submitted_done{0};
  std::thread churner([&] {
    while (!stop.load()) {
      const std::size_t got = pool.lease_extra_workers(4);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      pool.release_extra_workers(got);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::thread submitter([&] {
    while (!stop.load()) {
      pool.submit([&submitted_done] { ++submitted_done; }).get();
    }
  });
  for (int round = 0; round < 30; ++round) {
    pool.run_indexed(64, [&indexed_done](std::size_t) {
      ++indexed_done;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  stop = true;
  churner.join();
  submitter.join();
  EXPECT_EQ(indexed_done.load(), 30 * 64);
  EXPECT_GT(submitted_done.load(), 0);
}

// --- wave submission (ISSUE 9): shutdown / cancellation / lease races ------

// Destroying the pool while a wave is still queued behind blocked workers
// must drain the wave, not drop it: every index runs exactly once and the
// stage caller unblocks.
TEST(WaveStressTest, ShutdownWithPendingWaveDrainsAllIndices) {
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<std::uint8_t>> runs(kCount);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::optional<ThreadPool> pool;
  pool.emplace(2);
  // Park both workers so the wave cannot start.
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i) blockers.push_back(pool->submit([open] { open.wait(); }));
  while (pool->pending() > 0) std::this_thread::yield();
  std::thread stage([&] {
    pool->run_indexed(kCount, [&](std::size_t i) { runs[i].fetch_add(1); });
  });
  // One queue entry for the whole 64-index wave.
  while (pool->pending() == 0) std::this_thread::yield();
  EXPECT_EQ(pool->pending(), 1u);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.set_value();
  });
  pool.reset();  // destructor races the release; the wave must still drain
  stage.join();
  releaser.join();
  for (auto& f : blockers) f.get();
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(runs[i].load(), 1u) << "index " << i;
  }
}

// Cancellation mid-wave: started bodies finish, no index runs twice, the
// abandoned remainder never runs, and the workers come free for new work.
TEST(WaveStressTest, CancellationMidWaveIsExactlyOncePerStartedIndex) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 5000;
  std::vector<std::atomic<std::uint8_t>> runs(kCount);
  std::atomic<int> executed{0};
  CancellationToken token;
  pool.run_indexed(
      kCount,
      [&](std::size_t i) {
        if (executed.fetch_add(1) == 200) token.request_cancel();
        runs[i].fetch_add(1);
      },
      &token);
  int total = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    const int n = runs[i].load();
    ASSERT_LE(n, 1) << "index " << i << " ran twice";
    total += n;
  }
  EXPECT_EQ(total, executed.load());
  EXPECT_LT(total, static_cast<int>(kCount));  // the tail really was abandoned
  EXPECT_GE(total, 201);                       // everything started did finish
  // The pool is fully reusable after an abandoned wave.
  std::atomic<int> after{0};
  pool.run_indexed(100, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 100);
}

// A lease granted mid-wave must wake the reserve into the SAME wave (no
// lost wakeup) without ever double-running an index.
TEST(WaveStressTest, LeaseGrowthMidWaveNoLostWakeupNoDoubleRun) {
  ThreadPool pool(1, 3);
  constexpr std::size_t kCount = 256;
  std::vector<std::atomic<std::uint8_t>> runs(kCount);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> started{0};
  std::thread stage([&] {
    pool.run_indexed(kCount, [&](std::size_t i) {
      ++started;
      const int now = ++concurrent;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      runs[i].fetch_add(1);
      --concurrent;
    });
  });
  while (started.load() == 0) std::this_thread::yield();
  EXPECT_EQ(pool.lease_extra_workers(3), 3u);
  stage.join();
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(runs[i].load(), 1u) << "index " << i;
  }
  // The reserve really joined the in-flight wave.
  EXPECT_GE(peak.load(), 2);
  pool.release_extra_workers(3);
}

// A stage body calling run_indexed on its own pool must never deadlock:
// the worker lends its slot to the nested wave (caller-lane participation),
// so progress is guaranteed even with every worker inside the outer wave.
TEST(WaveStressTest, NestedRunIndexedOnOwnPoolCompletes) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.run_indexed(4, [&](std::size_t) {
    pool.run_indexed(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

// Many concurrent waves from many threads: waves queue FIFO, each retires
// exactly once, and executed-task accounting stays exact.
TEST(WaveStressTest, ConcurrentWavesFromManyThreadsAllComplete) {
  ThreadPool pool(4);
  const std::uint64_t before = pool.tasks_executed();
  std::atomic<int> total{0};
  std::vector<std::thread> stages;
  for (int t = 0; t < 6; ++t) {
    stages.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.run_indexed(37, [&](std::size_t) { ++total; });
      }
    });
  }
  for (auto& s : stages) s.join();
  EXPECT_EQ(total.load(), 6 * 20 * 37);
  EXPECT_EQ(pool.tasks_executed() - before, 6u * 20u * 37u);
}

// --- chaos stall injection (ISSUE 10 satellite c) --------------------------

// Every lane stalls before every body, yet the wave completes each index
// exactly once — injected stalls are latency, never lost or doubled work.
TEST(WaveChaosTest, MidWaveStallsPreserveExactlyOnceExecution) {
  chaos::ChaosSchedule schedule;
  schedule.seed = 7;
  schedule.points.push_back(
      {chaos::points::kPoolWave,
       chaos::PointSpec{/*rate=*/0.5, chaos::Shape::kStall, /*stall_ms=*/5.0}});
  chaos::ScopedChaos scoped(schedule);

  ThreadPool pool(4);
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<std::uint8_t>> runs(kCount);
  pool.run_indexed(kCount, [&](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(runs[i].load(), 1u) << "index " << i;
  }
}

// The hardened latch: a cancelled run_indexed whose wave no lane can ever
// enter (the only worker is wedged on an unrelated task) must return by
// retiring the wave itself instead of waiting for a lane that will never
// come. Pre-hardening this hangs forever — the blocker is only released
// AFTER run_indexed returns.
TEST(WaveChaosTest, CancelledWaveWithWedgedLaneCannotHangRunIndexed) {
  ThreadPool pool(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  auto blocker = pool.submit([released] { released.wait(); });

  CancellationToken token;
  token.request_cancel();  // fired before the wave is even queued
  std::atomic<int> ran{0};
  pool.run_indexed(64, [&](std::size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0);  // no lane ever entered, nothing executed

  release.set_value();  // only now may the worker come free
  blocker.get();
  // The abandoned wave descriptor must not poison the queue afterwards.
  std::atomic<int> after{0};
  pool.run_indexed(32, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 32);
}

// Lanes mid-stall when the token fires: the injected sleep is cancel-aware
// and bounded, so the wave drains promptly instead of serving out the full
// stall schedule.
TEST(WaveChaosTest, CancellationCutsInjectedStallsShort) {
  chaos::ChaosSchedule schedule;
  schedule.seed = 11;
  schedule.points.push_back(
      {chaos::points::kPoolWave,
       chaos::PointSpec{/*rate=*/1.0, chaos::Shape::kStall, /*stall_ms=*/1500.0}});
  chaos::ScopedChaos scoped(schedule);

  ThreadPool pool(4);
  constexpr std::size_t kCount = 64;  // 64 × 1.5 s serial worst case
  CancellationToken token;
  std::atomic<int> ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token.request_cancel();
  });
  pool.run_indexed(kCount, [&](std::size_t) { ++ran; }, &token);
  firer.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Generous bound for loaded CI machines: well under even four full
  // uncancelled stalls, let alone the 24 s serial schedule.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            5000);
  EXPECT_LT(ran.load(), static_cast<int>(kCount));
}

}  // namespace
}  // namespace dias::engine
