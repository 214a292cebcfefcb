#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "chaos/chaos.hpp"
#include "common/error.hpp"

namespace dias::engine {
namespace {

// Which pool (if any) owns the current thread, and under which slot. A
// worker thread belongs to exactly one pool for its whole lifetime, so a
// plain thread_local pair is enough to answer current_slot() for any pool.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t slot = ThreadPool::kNoSlot;
};
thread_local WorkerIdentity tl_worker;

}  // namespace

// One stage wave: the single queue entry behind a run_indexed.
// `next` is the only word every lane hammers, so it gets its own cache
// line away from the mutex-guarded bookkeeping. Lane bookkeeping
// (entered/exited/executed/retired) is guarded by the POOL's mutex_ —
// lanes enter only while the wave sits un-retired at the queue front, and
// retirement pops it in the same critical section, so `entered` is frozen
// once `retired` is set and the last lane out (exited == entered after
// retirement) owns completion.
struct ThreadPool::Wave {
  Wave(const std::function<void(std::size_t)>& body_in, std::size_t count_in,
       const CancellationToken* cancel_in, std::uint64_t seq_in)
      : body(body_in), count(count_in), cancel(cancel_in), seq(seq_in) {}

  // Borrowed from the caller's frame: run_indexed blocks on the latch
  // until every lane is done using it.
  const std::function<void(std::size_t)>& body;
  const std::size_t count;
  const CancellationToken* const cancel;
  // Monotonic per-pool wave id: the scheduling-independent coordinate the
  // pool.wave chaos point hashes together with the stolen index.
  const std::uint64_t seq;

  // Hot: one fetch_add per index, from every lane concurrently.
  alignas(obs::kCacheLineBytes) std::atomic<std::size_t> next{0};

  // Cold bookkeeping, guarded by ThreadPool::mutex_.
  alignas(obs::kCacheLineBytes) std::size_t entered = 0;
  std::size_t exited = 0;
  std::size_t executed = 0;  // bodies actually run (< count under cancel)
  bool retired = false;      // removed from the queue; no new lanes

  std::mutex error_mu;
  std::exception_ptr first_error;

  // Completion latch the caller blocks on.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
};

ThreadPool::ThreadPool(std::size_t workers, std::size_t reserve)
    : base_(workers), active_limit_(workers), executed_(workers + reserve) {
  DIAS_EXPECTS(workers >= 1, "thread pool needs at least one worker");
  const std::size_t total = workers + reserve;
  threads_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

std::size_t ThreadPool::current_slot() const {
  return tl_worker.pool == this ? tl_worker.slot : kNoSlot;
}

std::size_t ThreadPool::active_workers() {
  std::lock_guard lock(mutex_);
  return active_limit_;
}

std::size_t ThreadPool::lease_extra_workers(std::size_t extra) {
  std::size_t granted;
  std::size_t active;
  {
    std::lock_guard lock(mutex_);
    granted = std::min(extra, threads_.size() - active_limit_);
    active_limit_ += granted;
    active = active_limit_;
  }
  // Freshly activated slots sleep on the same cv as everyone else; wake the
  // whole pool so they re-check the gate and start pulling queued work —
  // including a wave already in flight at the queue front.
  if (granted > 0) cv_.notify_all();
  std::lock_guard m(metrics_mu_);
  if (active_workers_gauge_ != nullptr) {
    active_workers_gauge_->set(static_cast<double>(active));
  }
  return granted;
}

void ThreadPool::release_extra_workers(std::size_t count) {
  std::size_t active;
  {
    std::lock_guard lock(mutex_);
    DIAS_EXPECTS(count <= active_limit_ - base_,
                 "releasing more worker slots than are leased");
    active_limit_ -= count;
    active = active_limit_;
  }
  // A submit() that read the gate as fully-active and issued notify_one can
  // race this release: its single wakeup may land on a slot this call just
  // gated, which re-checks the predicate and goes back to sleep, stranding
  // the queued task with every base worker still asleep. Waking the pool
  // after lowering the gate closes that window — any active worker re-checks
  // the queue here.
  if (count > 0) cv_.notify_all();
  std::lock_guard m(metrics_mu_);
  if (active_workers_gauge_ != nullptr) {
    active_workers_gauge_->set(static_cast<double>(active));
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // The accounting epilogue runs *before* the future is fulfilled: callers
  // may detach metrics and destroy the registry as soon as their futures
  // resolve, so no registry handle may be touched after the promise is set
  // (publication is ordered before it).
  std::packaged_task<void()> packaged([this, fn = std::move(task)] {
    busy_count_.fetch_add(1, std::memory_order_relaxed);
    publish_metrics();  // busy gauge reflects the task while it runs
    const std::size_t slot = current_slot();
    auto epilogue = [this, slot] {
      note_executed(slot, 1);
      busy_count_.fetch_sub(1, std::memory_order_relaxed);
      publish_metrics();
    };
    try {
      fn();
    } catch (...) {
      epilogue();
      throw;
    }
    epilogue();
  });
  auto future = packaged.get_future();
  bool gated;
  {
    std::lock_guard lock(mutex_);
    DIAS_EXPECTS(!stopping_, "submit on a stopping thread pool");
    // Count before the task becomes runnable, so a mid-storm snapshot can
    // never observe completed > submitted.
    submitted_total_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(Item{std::move(packaged), nullptr});
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
    gated = active_limit_ < threads_.size();
  }
  // With dormant slots, notify_one could land on a gated worker that goes
  // straight back to sleep and the task would be stranded; wake everyone so
  // an active worker is guaranteed to see the queue.
  if (gated) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
  publish_metrics();
  return future;
}

void ThreadPool::publish_metrics() {
  std::lock_guard lock(metrics_mu_);
  publish_metrics_locked();
}

void ThreadPool::publish_metrics_locked() {
  if (tasks_submitted_ == nullptr) return;
  const std::uint64_t submitted = submitted_total_.load(std::memory_order_relaxed);
  const std::uint64_t completed = executed_.value();
  const std::uint64_t waves = waves_total_.load(std::memory_order_relaxed);
  tasks_submitted_->add(submitted - published_submitted_);
  tasks_completed_->add(completed - published_completed_);
  waves_counter_->add(waves - published_waves_);
  published_submitted_ = submitted;
  published_completed_ = completed;
  published_waves_ = waves;
  queue_depth_->set(static_cast<double>(queue_size_.load(std::memory_order_relaxed)));
  busy_workers_->set(static_cast<double>(busy_count_.load(std::memory_order_relaxed)));
}

void ThreadPool::attach_metrics(obs::Registry& registry, const std::string& prefix) {
  auto& workers_gauge = registry.gauge(prefix + ".workers");
  auto& active_gauge = registry.gauge(prefix + ".active_workers");
  auto& submitted = registry.counter(prefix + ".tasks_submitted");
  auto& completed = registry.counter(prefix + ".tasks_completed");
  auto& waves = registry.counter(prefix + ".waves");
  auto& depth_gauge = registry.gauge(prefix + ".queue_depth");
  auto& busy_gauge = registry.gauge(prefix + ".busy_workers");
  const double active_now = static_cast<double>(active_workers());
  std::lock_guard lock(metrics_mu_);
  tasks_submitted_ = &submitted;
  tasks_completed_ = &completed;
  waves_counter_ = &waves;
  queue_depth_ = &depth_gauge;
  busy_workers_ = &busy_gauge;
  active_workers_gauge_ = &active_gauge;
  workers_gauge.set(static_cast<double>(workers()));
  active_gauge.set(active_now);
  // Re-base against the counters' current values: a fresh registry gets
  // the pool's full history, re-attaching the same registry adds only the
  // delta — never a double count, whatever ran before attach.
  published_submitted_ = submitted.value();
  published_completed_ = completed.value();
  published_waves_ = waves.value();
  publish_metrics_locked();
}

void ThreadPool::detach_metrics() {
  std::lock_guard lock(metrics_mu_);
  tasks_submitted_ = nullptr;
  tasks_completed_ = nullptr;
  waves_counter_ = nullptr;
  queue_depth_ = nullptr;
  busy_workers_ = nullptr;
  active_workers_gauge_ = nullptr;
}

void ThreadPool::run_indexed(std::size_t count, const std::function<void(std::size_t)>& task,
                             const CancellationToken* cancel,
                             const std::function<bool()>& monitor) {
  if (count == 0) return;
  auto wave = std::make_shared<Wave>(task, count, cancel,
                                     wave_seq_.fetch_add(1, std::memory_order_relaxed));
  {
    std::lock_guard lock(mutex_);
    DIAS_EXPECTS(!stopping_, "run_indexed on a stopping thread pool");
    // Count before the wave becomes joinable, so a mid-storm snapshot can
    // never observe completed > submitted.
    submitted_total_.fetch_add(count, std::memory_order_relaxed);
    waves_total_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(Item{{}, wave});
    queue_size_.store(queue_.size(), std::memory_order_relaxed);
  }
  // Waves want every active worker, dormant-slot race included.
  cv_.notify_all();
  publish_metrics();
  // A worker of this pool calling run_indexed lends its own slot as a lane
  // (nested stages can never deadlock a small pool); foreign callers just
  // wait — bodies must only run on slotted workers.
  if (tl_worker.pool == this) {
    bool entered = false;
    {
      std::lock_guard lock(mutex_);
      if (!wave->retired) {
        ++wave->entered;
        entered = true;
      }
    }
    if (entered) run_wave_lane(wave, tl_worker.slot);
  }
  // The monitor ticks until it is satisfied or the wave is done; after
  // that the wait blocks outright, or — with a token — ticks every 10 ms.
  bool monitoring = static_cast<bool>(monitor);
  bool early_retired = false;
  for (;;) {
    if (monitoring) monitoring = monitor();
    {
      std::unique_lock lock(wave->done_mu);
      if (monitoring) {
        if (wave->done) break;
      } else if (cancel == nullptr) {
        wave->done_cv.wait(lock, [&] { return wave->done; });
        break;
      } else if (wave->done_cv.wait_for(lock, std::chrono::milliseconds(10),
                                        [&] { return wave->done; })) {
        break;
      }
    }
    // Hardened latch (ISSUE 10): once the job's token fires the waiter
    // retires the wave itself — no new lanes can join, and if no lane ever
    // entered the waiter trips the latch directly instead of hoping one
    // will. Lanes already inside re-check the token per index and injected
    // stalls are bounded (chaos::kMaxStallMs), so the in-flight remainder
    // drains and the lane-side last-out publication fires; the borrowed
    // body reference stays valid until then by construction.
    if (cancel == nullptr || early_retired || !cancel->cancelled()) continue;
    early_retired = true;
    bool complete = false;
    {
      std::lock_guard lock(mutex_);
      if (!wave->retired) {
        wave->retired = true;
        // Same pop-if-front rule as lane-side retirement: a nested wave
        // that never reached the front is discarded by worker_loop.
        if (!queue_.empty() && queue_.front().wave.get() == wave.get()) {
          queue_.pop_front();
          queue_size_.store(queue_.size(), std::memory_order_relaxed);
        }
      }
      complete = wave->exited == wave->entered;
    }
    if (complete) {
      {
        std::lock_guard lock(wave->done_mu);
        wave->done = true;
      }
      wave->done_cv.notify_all();
    }
  }
  // Take the error out of the wave: a worker may drop the last reference
  // to the wave after this returns, and the exception object must be
  // released on the thread that handles it, not on that worker.
  if (std::exception_ptr error = std::exchange(wave->first_error, nullptr)) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::run_wave_lane(const std::shared_ptr<Wave>& wave, std::size_t slot) {
  // pool.wave chaos point: per stolen index, before the body. kStall holds
  // the lane (bounded by chaos::kMaxStallMs, waking early on the wave's
  // token) — the shape the latch hardening and the stall watchdog are
  // tested against. kThrow lands in the wave's error slot like a body
  // failure would.
  static chaos::InjectionPoint& chaos_wave =
      chaos::ChaosPlane::instance().point(chaos::points::kPoolWave);
  busy_count_.fetch_add(1, std::memory_order_relaxed);
  publish_metrics();  // busy gauge reflects the lane while it runs
  std::size_t executed = 0;
  for (;;) {
    if (wave->cancel != nullptr && wave->cancel->cancelled()) break;
    const std::size_t i = wave->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= wave->count) break;
    try {
      if (chaos_wave.armed()) chaos_wave.inject(wave->seq, i, 0, wave->cancel);
      wave->body(i);
    } catch (...) {
      std::lock_guard lock(wave->error_mu);
      if (!wave->first_error) wave->first_error = std::current_exception();
    }
    ++executed;
  }
  note_executed(slot, executed);
  busy_count_.fetch_sub(1, std::memory_order_relaxed);
  bool complete = false;
  {
    std::lock_guard lock(mutex_);
    if (!wave->retired) {
      wave->retired = true;
      // An un-retired wave is always the queue front: plain tasks behind
      // it stay queued until the wave's range is drained, and retirement
      // pops it in this same critical section so no lane can enter late.
      if (!queue_.empty() && queue_.front().wave.get() == wave.get()) {
        queue_.pop_front();
        queue_size_.store(queue_.size(), std::memory_order_relaxed);
      }
    }
    wave->executed += executed;
    ++wave->exited;
    complete = wave->retired && wave->exited == wave->entered;
  }
  if (complete) {
    // Publish before tripping the latch: the caller may tear down the
    // registry as soon as run_indexed returns.
    publish_metrics();
    {
      std::lock_guard lock(wave->done_mu);
      wave->done = true;
    }
    wave->done_cv.notify_all();
  }
}

std::size_t ThreadPool::pending() {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

void ThreadPool::worker_loop(std::size_t slot) {
  tl_worker = WorkerIdentity{this, slot};
  for (;;) {
    std::packaged_task<void()> task;
    std::shared_ptr<Wave> wave;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this, slot] {
        return stopping_ || (slot < active_limit_ && !queue_.empty());
      });
      if (queue_.empty() || slot >= active_limit_) {
        // Only reachable when stopping: active workers drain the queue
        // (plain tasks and waves alike), gated workers leave whatever is
        // queued to the active ones.
        return;
      }
      Item& front = queue_.front();
      if (front.wave != nullptr) {
        if (front.wave->retired) {
          // Already drained — possible when a nested wave was enqueued
          // behind its outer wave and finished (caller lane) before ever
          // reaching the front. Retirement only pops a wave that IS the
          // front, so the leftover descriptor is discarded here; entering
          // it would break the entered-freezes-after-retire invariant.
          queue_.pop_front();
          queue_size_.store(queue_.size(), std::memory_order_relaxed);
          continue;
        }
        // Join the wave in place: it stays at the front so every active
        // worker (and any slot a lease activates mid-wave) can enter.
        wave = front.wave;
        ++wave->entered;
      } else {
        task = std::move(front.task);
        queue_.pop_front();
        queue_size_.store(queue_.size(), std::memory_order_relaxed);
      }
    }
    if (wave != nullptr) {
      run_wave_lane(wave, slot);
    } else {
      task();
    }
  }
}

}  // namespace dias::engine
