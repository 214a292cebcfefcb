// Cooperative cancellation for the job-lifecycle robustness layer.
//
// The dispatcher hands every job a CancellationToken; the engine polls it
// between partitions (and inside retry backoff / injected stalls, through
// interruptible_sleep_ms below), so a job that outlives its per-class
// deadline is cut short mid-stage instead of running to completion —
// releasing its workers and any sprint lease.
// Cancellation is *cooperative*: requesting it never interrupts a running
// task body, it only stops new work from starting (the same non-preemptive
// contract the paper's dispatcher keeps).
//
// Tokens are copyable handles to shared state, so the dispatcher's
// deadline watchdog, the engine's stage loops, and user job code can all
// observe one flag without lifetime coupling. Lives in dias::common (not
// the engine) because both the dispatcher (core) and the engine honor it.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/error.hpp"

namespace dias {

// Thrown by cancellation points (Engine stages, CancellationToken::
// throw_if_cancelled) once cancellation was requested. The dispatcher
// catches it and records the job's terminal outcome as kCancelled.
class JobCancelledError : public error {
 public:
  explicit JobCancelledError(const std::string& where)
      : error("job cancelled at " + where) {}
};

class CancellationToken {
 public:
  // A fresh, not-yet-cancelled token with its own state.
  CancellationToken() : state_(std::make_shared<State>()) {}

  // Sets the flag; idempotent, safe from any thread, never blocks.
  void request_cancel() noexcept { state_->flag.store(true, std::memory_order_release); }

  bool cancelled() const noexcept {
    return state_->flag.load(std::memory_order_acquire);
  }

  // Cancellation point: raises JobCancelledError naming the checkpoint.
  void throw_if_cancelled(const std::string& where) const {
    if (cancelled()) throw JobCancelledError(where);
  }

 private:
  struct State {
    std::atomic<bool> flag{false};
  };
  std::shared_ptr<State> state_;
};

// Sleeps roughly `ms` in 1 ms slices, returning early once the optional
// token fires or the optional `done` flag becomes true. The one sleep
// behind retry backoff and injected chaos stalls: neither a deadline
// cancel nor a speculative win is ever held back by a sleeping loser.
inline void interruptible_sleep_ms(double ms, const CancellationToken* cancel,
                                   const std::atomic<bool>* done = nullptr) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  while (!(cancel != nullptr && cancel->cancelled()) &&
         !(done != nullptr && done->load(std::memory_order_acquire)) &&
         clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace dias
