// Elastic worker pool used by the mini MapReduce engine to execute the
// tasks of a stage concurrently, mirroring Spark executors running one task
// per core.
//
// Elasticity (the runtime sprinting substrate): the pool is constructed
// with `workers` base slots plus `reserve` extra slots. All base+reserve
// threads exist from construction with stable slot ids, but only the first
// `active_workers()` of them pull tasks; the rest sleep. A sprint lease
// (lease_extra_workers / SlotLease) raises the active limit so a running
// stage's parallelism grows mid-flight. Revocation is non-preemptive: a
// deactivated worker finishes its current task (or index-stealing lane),
// then goes back to sleep. Slot ids never change across lease changes,
// which is what keeps per-slot state (shuffle write buffers, segment
// arenas) safe: containers sized by workers() cover every slot that can
// ever run.
//
// Wave submission (ISSUE 9): run_indexed() enqueues ONE wave descriptor
// per stage instead of one packaged lane per slot. Active workers join the
// wave in place (the descriptor stays at the queue front until its index
// range is exhausted), steal indices off a shared atomic, and the last
// lane to leave signals a completion latch the caller blocks on. That is
// one queue operation, one allocation, and one notify per *stage* — the
// per-task promise/future machinery is gone from the stage hot path. A
// mid-wave lease still widens the stage: freshly activated slots find the
// wave at the front and join it. Every engine stage is exactly one wave;
// submit() is left for the odd extra task, such as a speculative copy
// launched by the wave's monitor while the wave is still running.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "obs/metrics.hpp"

namespace dias::engine {

class ThreadPool {
 public:
  // `workers` base slots are always active; `reserve` additional slots
  // start dormant and activate only through a lease.
  explicit ThreadPool(std::size_t workers, std::size_t reserve = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total slots (base + reserve). Per-slot containers must use this size:
  // any of these slots can run tasks once leased.
  std::size_t workers() const { return threads_.size(); }
  // Base slots: the floor the active limit can never drop below.
  std::size_t base_workers() const { return base_; }
  // Slots currently allowed to pull tasks (base <= active <= workers()).
  std::size_t active_workers();

  // --- slot-lease protocol (see SlotLease for the RAII form) --------------
  // Activates up to `extra` reserve slots; returns how many were actually
  // granted (less when the reserve is partly leased out already). Takes
  // effect immediately: sleeping workers wake and start pulling queued
  // work, including joining a wave already in flight.
  std::size_t lease_extra_workers(std::size_t extra);
  // Returns `count` previously leased slots. Non-preemptive: a worker past
  // the new limit finishes its current task or lane before going dormant.
  // It is a precondition error to release more than is currently leased.
  void release_extra_workers(std::size_t count);

  // Stable worker-slot id of the calling thread within *this* pool:
  // 0..workers()-1 when called from one of the pool's worker threads,
  // kNoSlot otherwise (including workers of a different pool). Slots are
  // assigned at construction and never change, so stages can keep
  // per-thread state (e.g. shuffle write buffers) in a plain vector
  // indexed without synchronization.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::size_t current_slot() const;

  // Enqueues a task; the future resolves when it ran (or rethrows).
  std::future<void> submit(std::function<void()> task);

  // Runs `count` indexed tasks and waits for all of them; the first
  // observed exception (if any) is rethrown after every started task
  // finished. This is one queue push: workers join the wave at the queue
  // front and steal indices until the range is exhausted; the last lane
  // out trips the completion latch. When the calling thread is itself a
  // worker of this pool it lends its own slot as a lane (so a nested
  // run_indexed can never deadlock a small pool); foreign callers never
  // execute bodies — stage bodies only ever run on slotted workers, which
  // is what lets the shuffle write path index per-slot buffers lock-free.
  //
  // With a non-null `cancel`, every lane re-checks the token before
  // stealing its next index and bails once cancellation was requested —
  // in-flight task bodies finish (cooperative contract), the remaining
  // indices are abandoned, and the workers come free for the next job.
  // Abandoned indices do NOT count as errors; the caller decides what a
  // partially executed range means (the engine raises JobCancelledError).
  //
  // A non-empty `monitor` runs on the waiting thread (after its own lane,
  // if it lent one) and is called back to back until it returns false or
  // the wave completes, whichever comes first. Each call should block
  // briefly (a few milliseconds at most) on its own progress signal, and
  // must not throw: the wave borrows `task` until its last lane is out.
  // The engine's speculation and stall watchdog live here.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& task,
                   const CancellationToken* cancel = nullptr,
                   const std::function<bool()>& monitor = {});

  // Queue entries not yet retired: each plain task counts 1 and each
  // unfinished wave counts 1, however many indices it still holds
  // (diagnostic; the value is stale as soon as it is returned).
  std::size_t pending();

  // Total task bodies executed since construction (plain tasks + wave
  // indices), folded from the cache-line-padded per-slot cells.
  std::uint64_t tasks_executed() const { return executed_.value(); }

  // Attaches pool metrics under `prefix` (e.g. "engine.pool"): submitted /
  // completed task counters, a waves counter, a queue-depth gauge, a
  // busy-workers gauge, a static worker-count gauge and an active-workers
  // gauge tracking lease changes.
  //
  // Attachment is race-safe at any time, including mid-storm: workers
  // record into internal padded per-slot cells and plain atomics, and the
  // registry handles are only touched under a metrics mutex at cold
  // publication points (submit, wave enqueue, lane entry, task/wave
  // completion, lease changes, attach itself). attach_metrics re-bases
  // against the counters' current values and immediately publishes the
  // full internal totals, so counts taken after quiesce are exact no
  // matter when the registry was attached — the old "attach before
  // submitting work" footgun is gone. tasks_submitted counts plain
  // submits plus wave index ranges; tasks_completed counts executed
  // bodies (under cancellation the abandoned remainder never completes,
  // so the two need not converge).
  void attach_metrics(obs::Registry& registry, const std::string& prefix);
  // Drops the registry handles; safe while tasks run. After detach the
  // pool never touches the registry again (internal totals keep
  // accumulating and a later attach publishes them).
  void detach_metrics();

 private:
  struct Wave;
  struct Item {
    std::packaged_task<void()> task;
    std::shared_ptr<Wave> wave;  // non-null: a wave descriptor, not a task
  };

  void worker_loop(std::size_t slot);
  void run_wave_lane(const std::shared_ptr<Wave>& wave, std::size_t slot);
  // Publishes internal totals to the attached registry handles (no-op when
  // detached). Requires metrics_mu_; must never be called with mutex_ held
  // (lock order: mutex_ and metrics_mu_ are never nested).
  void publish_metrics_locked();
  void publish_metrics();
  // Bodies only ever run on this pool's workers, so `slot` is always one
  // of ours.
  void note_executed(std::size_t slot, std::uint64_t n) { executed_.add(slot, n); }

  std::vector<std::thread> threads_;
  std::size_t base_ = 0;
  std::size_t active_limit_ = 0;  // guarded by mutex_
  std::deque<Item> queue_;  // guarded by mutex_
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // --- internal accounting (always on; registry-independent) -------------
  // Per-slot executed-body cells, one cache line each.
  obs::ShardedCounter executed_;
  std::atomic<std::uint64_t> wave_seq_{0};  // chaos coordinate for pool.wave
  std::atomic<std::uint64_t> submitted_total_{0};
  std::atomic<std::uint64_t> waves_total_{0};
  std::atomic<std::int64_t> busy_count_{0};
  std::atomic<std::size_t> queue_size_{0};  // mirrors queue_.size()

  // --- registry export (guarded by metrics_mu_) ---------------------------
  std::mutex metrics_mu_;
  obs::Counter* tasks_submitted_ = nullptr;
  obs::Counter* tasks_completed_ = nullptr;
  obs::Counter* waves_counter_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* busy_workers_ = nullptr;
  obs::Gauge* active_workers_gauge_ = nullptr;
  std::uint64_t published_submitted_ = 0;
  std::uint64_t published_completed_ = 0;
  std::uint64_t published_waves_ = 0;
};

// RAII slot lease: grants up to `extra` reserve slots on construction and
// returns whatever was granted on destruction. Move-only.
class SlotLease {
 public:
  SlotLease() = default;
  SlotLease(ThreadPool& pool, std::size_t extra)
      : pool_(&pool), granted_(pool.lease_extra_workers(extra)) {}
  SlotLease(SlotLease&& other) noexcept
      : pool_(other.pool_), granted_(other.granted_) {
    other.pool_ = nullptr;
    other.granted_ = 0;
  }
  SlotLease& operator=(SlotLease&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      granted_ = other.granted_;
      other.pool_ = nullptr;
      other.granted_ = 0;
    }
    return *this;
  }
  ~SlotLease() { reset(); }
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;

  std::size_t granted() const { return granted_; }
  void reset() {
    if (pool_ != nullptr && granted_ > 0) pool_->release_extra_workers(granted_);
    pool_ = nullptr;
    granted_ = 0;
  }

 private:
  ThreadPool* pool_ = nullptr;
  std::size_t granted_ = 0;
};

}  // namespace dias::engine
