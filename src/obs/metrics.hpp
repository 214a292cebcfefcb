// Thread-safe metrics registry for the DiAS runtime (engine, thread pool,
// cluster simulator, deflator).
//
// Design goals, in order:
//   1. The *disabled* path must be free: every instrumented component holds
//      plain (possibly null) handle pointers and skips a single branch when
//      observability is not attached.
//   2. The *enabled* hot path must be cheap: Counter/Gauge updates are
//      single relaxed atomic operations on handles cached at attach time;
//      name lookup happens once, at registration, never per update.
//   3. Snapshots are safe while recording: readers take the registry mutex
//      only to walk the (append-only) name tables; counter and gauge reads
//      are atomic loads, histogram reads take the histogram's own mutex.
//
// Histograms are a dias::Welford (exact streaming mean/stddev/min/max) plus
// a dias::Histogram (fixed bins, approximate quantiles) under one mutex.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace dias::obs {

// Monotonically increasing event count. add() is lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written instantaneous value (queue depth, budget level, chosen
// theta). set() and add() are lock-free.
class Gauge {
 public:
  void set(double x) { value_.store(x, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Cache-line size used to pad per-shard / per-worker-slot hot counters.
// 64 bytes covers x86-64 and most AArch64 parts; over-padding wastes a few
// bytes, under-padding would silently reintroduce false sharing.
inline constexpr std::size_t kCacheLineBytes = 64;

// Cache-line-padded sharded counter for per-worker hot paths: each shard
// lives on its own cache line, so writers that stick to their own shard
// (worker slot id) never bounce a line between cores the way a single
// Counter's fetch_add does. value() folds the shards; reads are relaxed,
// so a concurrent fold is a consistent-enough snapshot for export, not a
// linearizable total. Out-of-range shard ids wrap instead of faulting.
// Not a registry kind: the thread pool owns one (a shard per worker slot)
// and publishes its fold through an ordinary Counter.
class ShardedCounter {
 public:
  explicit ShardedCounter(std::size_t shards) : cells_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const { return cells_.size(); }

  void add(std::size_t shard, std::uint64_t n = 1) {
    cells_[shard % cells_.size()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t shard_value(std::size_t shard) const {
    return cells_[shard % cells_.size()].v.load(std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) total += cell.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Cell> cells_;
};

// Distribution metric: exact moments (dias::Welford) + binned quantiles
// (dias::Histogram: fixed bins over [lo, hi), out-of-range values clamp
// into the first/last bin). observe() and stats() serialize on one mutex,
// so a snapshot never sees a torn (count, mean, m2) tuple. Callers on hot
// paths should batch observations (the engine records task times once per
// stage, not once per task).
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins) : histogram_(lo, hi, bins) {}

  void observe(double x);

  struct Stats {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;  // approximate (bin interpolation)
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  Welford moments_;
  Histogram histogram_;
};

// Point-in-time copy of every registered metric, detached from the
// registry (safe to serialize while recording continues).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramMetric::Stats stats;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,...}}}
  std::string to_json() const;
};

// Owns the metrics. Registration (name lookup) is mutex-protected and
// returns a stable reference; updates through that reference never touch
// the registry again. Registering an existing name returns the same
// metric; registering a name as two different kinds throws
// precondition_error. A histogram's [lo, hi)/bins are fixed by its first
// registration.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins);

  // Non-registering lookups: nullptr when the name is absent or is a
  // different kind. Lets a sampler (the overload controller reading the
  // engine's busy-worker gauge, the adaptive planner reading stage-time
  // histograms) observe a metric without creating it.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const HistogramMetric* find_histogram(const std::string& name) const;

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void check_kind(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace dias::obs
