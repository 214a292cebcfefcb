// Circuit breaker for the spill backend (ISSUE 10 tentpole, hardening 1).
//
// Before this, a permanently failing spill disk was retried forever: every
// push over budget re-attempted the write, every failure surfaced as a
// task failure, and the task retry budget burned down per segment. But a
// spill *write* is a pure relocation — the entries are still resident —
// so a failed write can legitimately be absorbed: the segment simply stays
// in memory and the shuffle degrades to the unbounded-budget path it
// already supports bit-for-bit. The breaker makes that absorption cheap
// and bounded:
//
//   closed    — writes flow; each failure increments a consecutive-failure
//               count, any success resets it. At kFailureThreshold
//               consecutive failures the breaker trips open.
//   open      — writes are denied without touching the backend (the dead
//               disk stops being hammered). Every kProbeInterval-th
//               denied operation is let through as a half-open probe.
//   half-open — one probe in flight: success closes the breaker, failure
//               re-opens it and restarts the denial count.
//
// Read-side failures also feed the breaker (a disk that cannot be read
// will not take writes either), but reads are never denied: spilled data
// lives only on the backend, so the merge must keep trying within its
// task retry budget regardless of breaker state.
//
// Thread-safety: one mutex. The breaker sits on the spill path, which is
// already the cold lane of the shuffle (encode + backend I/O dominate).
#pragma once

#include <cstdint>
#include <mutex>

namespace dias::engine {

class SpillBreaker {
 public:
  // Consecutive failures that trip closed -> open.
  static constexpr int kFailureThreshold = 3;
  // Every Nth denied operation while open becomes a half-open probe.
  static constexpr int kProbeInterval = 16;

  enum class State { kClosed, kOpen, kHalfOpen };

  // May this write attempt touch the backend? Denials are counted; every
  // kProbeInterval-th denial converts into a half-open probe instead.
  bool allow() {
    std::lock_guard lock(mu_);
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kHalfOpen:
        // One probe outstanding; everyone else stays in memory until it
        // resolves.
        return false;
      case State::kOpen: {
        ++denied_;
        if (denied_ % kProbeInterval == 0) {
          state_ = State::kHalfOpen;
          return true;
        }
        return false;
      }
    }
    return true;
  }

  void record_success() {
    std::lock_guard lock(mu_);
    consecutive_failures_ = 0;
    if (state_ == State::kHalfOpen) {
      state_ = State::kClosed;
      denied_ = 0;
    }
  }

  void record_failure() {
    std::lock_guard lock(mu_);
    ++failures_;
    if (state_ == State::kHalfOpen) {
      state_ = State::kOpen;
      return;
    }
    if (state_ == State::kClosed &&
        ++consecutive_failures_ >= kFailureThreshold) {
      state_ = State::kOpen;
      consecutive_failures_ = 0;
      ++trips_;
    }
  }

  State state() const {
    std::lock_guard lock(mu_);
    return state_;
  }
  bool open() const {
    std::lock_guard lock(mu_);
    return state_ != State::kClosed;
  }

  std::uint64_t trips() const {
    std::lock_guard lock(mu_);
    return trips_;
  }
  std::uint64_t denied() const {
    std::lock_guard lock(mu_);
    return denied_;
  }
  std::uint64_t failures() const {
    std::lock_guard lock(mu_);
    return failures_;
  }

  // Back to closed with zeroed streak/denial state (per-job reset); the
  // cumulative trip/failure totals survive for accounting.
  void reset() {
    std::lock_guard lock(mu_);
    state_ = State::kClosed;
    consecutive_failures_ = 0;
    denied_ = 0;
  }

  // Gauge encoding for obs export.
  static double state_value(State s) {
    switch (s) {
      case State::kClosed:
        return 0.0;
      case State::kHalfOpen:
        return 1.0;
      case State::kOpen:
        return 2.0;
    }
    return 0.0;
  }

 private:
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace dias::engine
