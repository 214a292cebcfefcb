// Mini MapReduce engine with task dropping (paper Section 3.3).
//
// Executes DAGs of map / shuffle-write / reduce stages over partitioned
// datasets on a thread pool. Approximation works exactly like the paper's
// Spark patch: before a droppable stage runs, find_missing_partitions()
// returns only ceil(n (1 - theta)) of its n partitions; the rest are
// dropped before execution and contribute no data. The engine records a
// per-stage log (partition counts, wall time, per-task times) used both
// for accuracy experiments and to parameterize the stochastic models.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancellation.hpp"
#include "common/rng.hpp"
#include "engine/dataset.hpp"
#include "engine/fault.hpp"
#include "engine/shuffle.hpp"
#include "engine/stage_plan.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dias::engine {

enum class EngineStageKind { kMap, kShuffleWrite, kReduce, kResult };

const char* to_string(EngineStageKind kind);

struct StageInfo {
  std::string name;
  EngineStageKind kind = EngineStageKind::kMap;
  std::size_t total_partitions = 0;
  std::size_t executed_partitions = 0;   // successfully executed tasks
  double applied_drop_ratio = 0.0;       // the configured theta
  double duration_s = 0.0;             // wall time of the whole stage
  std::vector<double> task_times_s;    // per executed task

  // --- fault-tolerance accounting -----------------------------------------
  // Partitions whose task completed successfully, sorted ascending.
  std::vector<std::size_t> executed_partition_ids;
  // Partitions whose task exhausted its retry budget. On a droppable stage
  // these were degraded into drops; on a non-droppable stage the first one
  // was raised as TaskFailedError (after this entry was logged).
  std::vector<std::size_t> failed_partition_ids;
  std::size_t attempts = 0;             // total attempts incl. retries + speculative copies
  std::size_t retries = 0;              // primary attempts beyond the first, summed over tasks
  std::size_t speculative_launched = 0; // speculative copies submitted
  std::size_t speculative_wins = 0;     // copies that beat the primary
  // The drop ratio the stage *effectively* ran with: dropped-before-launch
  // plus failed-then-dropped tasks over total. Equals the share of
  // partitions that contributed no data, so the accuracy profile evaluated
  // at this ratio still bounds the result error. For total_partitions > 0
  // this is >= applied_drop_ratio; an *empty* stage (total_partitions == 0)
  // records 0 — no partition contributed no data, vacuously, so the
  // accuracy bound at ratio 0 (exact) applies regardless of the configured
  // theta.
  double effective_drop_ratio = 0.0;

  // --- cancellation accounting --------------------------------------------
  // True when the job's CancellationToken fired while this stage ran: the
  // partitions below were abandoned before their body completed and
  // run_stage raised JobCancelledError right after logging this entry, so
  // the stage's output must be considered garbage (unlike degradation,
  // cancellation makes no accuracy claim).
  bool cancelled = false;
  std::size_t cancelled_partitions = 0;  // selected but abandoned mid-stage

  // --- shuffle accounting -------------------------------------------------
  // Populated on the two stages of a combine_by_key-style shuffle. On the
  // shuffle-write stage: records entering the write path, entries shipped
  // after map-side combining, their estimated byte footprint, and how many
  // combiner flushes the byte budget forced. On the merge stage:
  // shuffle_records_in counts the entries merged (equals the write side's
  // shuffle_records_out unless merge tasks were dropped).
  std::size_t shuffle_records_in = 0;
  std::size_t shuffle_records_out = 0;
  std::size_t shuffle_bytes = 0;
  std::size_t shuffle_flushes = 0;
  // Spill accounting under a finite ShuffleOptions::memory_budget_bytes.
  // On the shuffle-write stage: segments/bytes handed to the spill backend.
  // On the merge stage: spilled segments/bytes streamed back in. Always 0
  // with an unbounded budget.
  std::size_t shuffle_spill_segments = 0;
  std::size_t shuffle_spill_bytes = 0;
  std::size_t shuffle_restored_segments = 0;
  std::size_t shuffle_restored_bytes = 0;
  // Spill-breaker accounting (ISSUE 10 satellite b): segments that stayed
  // resident because the breaker denied the write or the backend failed
  // it, the raw write failures behind them, and whether the engine's
  // breaker was tripped (open/half-open) when the stage finished. Lets
  // callers distinguish "degraded to in-memory under a sick disk" from
  // "retried clean": fallback > 0 means the budget was overshot on
  // purpose, while results stay byte-identical either way.
  std::size_t shuffle_spill_fallback_segments = 0;
  std::size_t shuffle_spill_write_failures = 0;
  bool spill_breaker_open = false;
  // Merge-stage load imbalance: max bucket record count over the mean
  // (1.0 = perfectly even; only meaningful on the merge stage). The
  // adaptive planner reads the exported gauge to resize partition counts.
  double shuffle_merge_skew = 1.0;
};

struct StageOptions {
  std::string name = "stage";
  // Whether the engine may drop this stage's tasks.
  bool droppable = true;
  // Overrides the engine-wide drop ratio when >= 0.
  double drop_ratio_override = -1.0;
  // Adaptive execution overrides (ISSUE 8): when set, run_stage applies
  // the plan's speculation toggle and the shuffle entry points apply its
  // combiner / partition / buffer / spill knobs. Absent (the default),
  // every path is byte-identical to the pre-plan engine.
  std::optional<StagePlan> plan;
};

// The paper's modified Spark hook: which of the n partitions still need to
// be computed under drop ratio theta in [0, 1]. Returns a sorted random
// subset of size ceil(n (1 - theta)); theta == 1 keeps nothing (a fully
// degraded stage) and n == 0 returns empty for any theta.
std::vector<std::size_t> find_missing_partitions(std::size_t n, double theta, Rng& rng);

namespace detail {

// Wraps one spill I/O operation inside a stage body. Backend failures
// (any dias::error) become TaskFailedError for this stage/partition, so
// a fault-tolerant policy retries them like any task failure and the
// inert policy surfaces them as a failed task — while cancellation and
// already-classified task failures pass through untouched. Inactive
// (shuffle without a backend) it is a transparent call, keeping the
// resident shuffle exception-for-exception identical.
template <typename Fn>
decltype(auto) guard_spill_io(bool active, const std::string& stage, std::size_t partition,
                              Fn&& fn) {
  if (!active) return fn();
  try {
    return fn();
  } catch (const JobCancelledError&) {
    throw;
  } catch (const TaskFailedError&) {
    throw;
  } catch (const error& e) {
    throw TaskFailedError(stage, partition, 1, e.what());
  }
}

}  // namespace detail

class Engine {
 public:
  struct Options {
    std::size_t workers = 4;
    // Dormant reserve slots for sprinting: a SprintGovernor (or any caller
    // of pool().lease_extra_workers) can activate them mid-job to widen a
    // running stage. 0 keeps the pool fixed-size.
    std::size_t reserve_workers = 0;
    std::uint64_t seed = 1;
    // Engine-wide drop ratio in [0, 1] applied to droppable stages.
    // theta == 1 drops every task of a droppable stage — the fully
    // degraded extreme that failed-task degradation can also reach.
    double drop_ratio = 0.0;
    // Retry/speculation/degradation policy. Every stage runs as one
    // thread-pool wave whose per-index body is the attempt loop; the
    // default (1 attempt, no speculation) makes that one attempt with no
    // monitor, and a body's exception propagates unchanged instead of
    // degrading the task. Task faults come from the chaos plane's
    // `engine.task` point, which arms the attempt loop whatever the policy.
    FaultToleranceOptions fault;
    // Spill circuit breaker thresholds. The breaker governs every spill
    // write of this engine (see SpillBreaker): after
    // `spill_breaker.failure_threshold` consecutive backend failures the
    // shuffle trips to the in-memory fallback instead of burning task
    // attempts on a dead disk. Shuffle segments always live in per-slot
    // arenas recycled at each shuffle's epoch boundary.
    SpillBreaker::Options spill_breaker;
  };

  explicit Engine(Options options)
      : options_(options),
        pool_(options.workers, options.reserve_workers),
        rng_(options.seed),
        spill_breaker_(options.spill_breaker) {
    DIAS_EXPECTS(options.drop_ratio >= 0.0 && options.drop_ratio <= 1.0,
                 "drop ratio must be in [0,1]");
    options.fault.validate();
    arenas_.reserve(pool_.workers());
    for (std::size_t i = 0; i < pool_.workers(); ++i) {
      arenas_.push_back(std::make_unique<detail::SegmentArena>());
    }
  }

  const Options& options() const { return options_; }
  // The elastic worker pool. Exposed so the sprint governor can lease the
  // reserve slots; per-slot shuffle state is sized by pool().workers()
  // (base + reserve), so leases are safe while stages run.
  ThreadPool& pool() { return pool_; }
  void set_drop_ratio(double theta) {
    DIAS_EXPECTS(theta >= 0.0 && theta <= 1.0, "drop ratio must be in [0,1]");
    options_.drop_ratio = theta;
  }
  // Replaces the fault-tolerance policy. Takes effect from the next stage;
  // the stage sequence counter keeps running, so chaos `engine.task`
  // decisions stay deterministic for a fixed call sequence.
  void set_fault_options(const FaultToleranceOptions& fault) {
    fault.validate();
    options_.fault = fault;
  }

  // --- cooperative cancellation -------------------------------------------
  // Installs the token subsequent stages poll: checked once on stage entry
  // and then between partitions (every lane re-checks before stealing its
  // next index; the attempt loop also checks between attempts and inside
  // retry backoff and injected chaos stalls). Once the token fires, the
  // in-flight task bodies finish, the rest of the stage is abandoned, the
  // stage is logged with `cancelled` accounting, and run_stage raises
  // JobCancelledError — releasing the pool for the next job. Detached (the
  // default) no stage ever polls a token.
  // Not thread-safe against a concurrently running stage: the dispatcher
  // installs the job's token before invoking the job body.
  void set_cancellation(CancellationToken token) { cancel_ = std::move(token); }
  void clear_cancellation() { cancel_.reset(); }

  // --- spill backend -------------------------------------------------------
  // Attaches the engine-wide spill destination used by shuffles whose
  // ShuffleOptions carry a finite memory_budget_bytes but no per-shuffle
  // backend (null detaches). The engine does not own the backend; it must
  // outlive every shuffle that spills through it. Not thread-safe against
  // a concurrently running stage.
  void set_spill_backend(SpillBackend* backend) { spill_ = backend; }
  SpillBackend* spill_backend() const { return spill_; }
  // The engine's spill circuit breaker. State persists across shuffles —
  // a disk that died in stage 3 stays tripped in stage 4 — until the
  // caller resets it (e.g. per job, or after replacing the backend).
  SpillBreaker& spill_breaker() { return spill_breaker_; }
  const SpillBreaker& spill_breaker() const { return spill_breaker_; }

  // --- observability ------------------------------------------------------
  // Attaches metric/trace sinks (either may be null; null detaches). With a
  // registry attached every stage updates cached counter handles (stages,
  // tasks executed/dropped/degraded, attempts, retries, speculation) and
  // task/stage wall-time histograms, and the thread pool reports queue
  // depth and worker utilization. With a tracer attached every stage emits
  // a begin/end span carrying name, kind, sequence, theta and the fault
  // counters. Detached (the default) the engine pays one branch per stage.
  // Not thread-safe against a concurrently running stage.
  void attach_observability(obs::Registry* metrics, obs::Tracer* tracer);

  // --- dataset creation ---------------------------------------------------
  template <typename T>
  Dataset<T> parallelize(std::vector<T> data, std::size_t num_partitions) {
    DIAS_EXPECTS(num_partitions >= 1, "need at least one partition");
    std::vector<std::vector<T>> parts(num_partitions);
    const std::size_t n = data.size();
    for (std::size_t p = 0; p < num_partitions; ++p) {
      const std::size_t lo = n * p / num_partitions;
      const std::size_t hi = n * (p + 1) / num_partitions;
      parts[p].assign(std::make_move_iterator(data.begin() + static_cast<std::ptrdiff_t>(lo)),
                      std::make_move_iterator(data.begin() + static_cast<std::ptrdiff_t>(hi)));
    }
    return Dataset<T>(std::move(parts));
  }

  // --- transformations ----------------------------------------------------
  // Partition-wise map: f(const std::vector<T>&) -> std::vector<U>.
  template <typename T, typename F>
  auto map_partitions(const Dataset<T>& in, F f, StageOptions opts = {})
      -> Dataset<typename std::invoke_result_t<F, const std::vector<T>&>::value_type> {
    using U = typename std::invoke_result_t<F, const std::vector<T>&>::value_type;
    std::vector<std::vector<U>> out(in.partitions());
    run_stage(in.partitions(), opts, EngineStageKind::kMap,
              [&](std::size_t p) { out[p] = f(in.partition(p)); });
    return Dataset<U>(std::move(out));
  }

  // Index-aware partition map: f(std::size_t partition, const std::vector<T>&)
  // -> std::vector<U>. Dropped partitions never invoke f.
  template <typename T, typename F>
  auto map_partitions_indexed(const Dataset<T>& in, F f, StageOptions opts = {})
      -> Dataset<typename std::invoke_result_t<F, std::size_t,
                                               const std::vector<T>&>::value_type> {
    using U =
        typename std::invoke_result_t<F, std::size_t, const std::vector<T>&>::value_type;
    std::vector<std::vector<U>> out(in.partitions());
    run_stage(in.partitions(), opts, EngineStageKind::kMap,
              [&](std::size_t p) { out[p] = f(p, in.partition(p)); });
    return Dataset<U>(std::move(out));
  }

  // Element-wise map: f(const T&) -> U.
  template <typename T, typename F>
  auto map(const Dataset<T>& in, F f, StageOptions opts = {})
      -> Dataset<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    return map_partitions(
        in,
        [&f](const std::vector<T>& part) {
          std::vector<U> out;
          out.reserve(part.size());
          for (const auto& x : part) out.push_back(f(x));
          return out;
        },
        std::move(opts));
  }

  // Element-wise flat map: f(const T&) -> std::vector<U>.
  template <typename T, typename F>
  auto flat_map(const Dataset<T>& in, F f, StageOptions opts = {})
      -> Dataset<typename std::invoke_result_t<F, const T&>::value_type> {
    using U = typename std::invoke_result_t<F, const T&>::value_type;
    return map_partitions(
        in,
        [&f](const std::vector<T>& part) {
          std::vector<U> out;
          for (const auto& x : part) {
            auto ys = f(x);
            out.insert(out.end(), std::make_move_iterator(ys.begin()),
                       std::make_move_iterator(ys.end()));
          }
          return out;
        },
        std::move(opts));
  }

  template <typename T, typename F>
  Dataset<T> filter(const Dataset<T>& in, F pred, StageOptions opts = {}) {
    return map_partitions(
        in,
        [&pred](const std::vector<T>& part) {
          std::vector<T> out;
          for (const auto& x : part) {
            if (pred(x)) out.push_back(x);
          }
          return out;
        },
        std::move(opts));
  }

  // Data-level sampling (ApproxHadoop's second knob: instead of dropping
  // whole tasks, keep each *record* with probability `fraction`). Runs as a
  // non-droppable stage; combine with task dropping for two-stage sampling.
  template <typename T>
  Dataset<T> sample(const Dataset<T>& in, double fraction, StageOptions opts = {}) {
    DIAS_EXPECTS(fraction >= 0.0 && fraction <= 1.0, "sample fraction must be in [0,1]");
    // Derive per-partition seeds up front: stage bodies run concurrently.
    std::vector<std::uint64_t> seeds(in.partitions());
    for (auto& s : seeds) s = rng_();
    opts.droppable = false;
    std::vector<std::vector<T>> out(in.partitions());
    run_stage(in.partitions(), opts, EngineStageKind::kMap, [&](std::size_t p) {
      Rng local(seeds[p]);
      for (const auto& x : in.partition(p)) {
        if (local.bernoulli(fraction)) out[p].push_back(x);
      }
    });
    return Dataset<T>(std::move(out));
  }

  // Per-partition deduplication followed by a parallel per-bucket merge,
  // run on the same two-phase shuffle as combine_by_key (stages "<name>",
  // kShuffleWrite, and "<name>/merge", kReduce; neither droppable). The
  // output is deterministic: bucket b lists its distinct elements in
  // first-appearance order over (input partition, record) position. The
  // per-task dedup map flushes at target_buffer_bytes (duplicates across
  // flushes are re-deduplicated by the merge) and, with combine = false,
  // records ship in raw chunks instead; with a finite memory_budget_bytes
  // the segments can spill like any shuffle. First-appearance order
  // survives all of these, because an element's earliest segment position
  // and its within-segment position are pure functions of the input.
  template <typename T>
  Dataset<T> distinct(const Dataset<T>& in, std::size_t out_partitions,
                      StageOptions opts = {}, ShuffleOptions shuffle = {}) {
    opts.droppable = false;
    StageOptions merge_opts;
    merge_opts.name = opts.name + "/merge";
    merge_opts.droppable = false;
    merge_opts.plan = opts.plan;  // per-stage speculation rides along
    const auto none = [](auto&&...) {};
    return shuffle_core<T, char>(
        in, [](const T& x) -> const T& { return x; }, [](const T&) { return char{0}; },
        /*fold=*/none, /*merge=*/none,
        [](std::vector<std::pair<T, char>>&& entries) {
          std::vector<T> keys;
          keys.reserve(entries.size());
          for (auto& entry : entries) keys.push_back(std::move(entry.first));
          return keys;
        },
        out_partitions, std::move(opts), std::move(merge_opts), shuffle);
  }

  // Concatenates the partitions of two datasets (Spark's union).
  template <typename T>
  Dataset<T> union_datasets(const Dataset<T>& a, const Dataset<T>& b) {
    std::vector<std::vector<T>> parts;
    parts.reserve(a.partitions() + b.partitions());
    for (std::size_t p = 0; p < a.partitions(); ++p) parts.push_back(a.partition(p));
    for (std::size_t p = 0; p < b.partitions(); ++p) parts.push_back(b.partition(p));
    return Dataset<T>(std::move(parts));
  }

  // Groups values per key, like Spark's groupByKey — a thin wrapper over
  // the combining shuffle whose aggregate *is* the value vector. Unlike the
  // old lift-to-vector implementation this allocates one vector per
  // distinct key per combiner flush (not one per record), and the values
  // of each key come out in deterministic (input partition, record) order.
  template <typename K, typename V>
  Dataset<std::pair<K, std::vector<V>>> group_by_key(const Dataset<std::pair<K, V>>& in,
                                                     std::size_t out_partitions,
                                                     StageOptions opts = {},
                                                     ShuffleOptions shuffle = {}) {
    return combine_by_key(
        in, [](const V& v) { return std::vector<V>{v}; },
        [](std::vector<V>& a, const V& v) { a.push_back(v); },
        [](std::vector<V>& a, std::vector<V>&& b) {
          a.insert(a.end(), std::make_move_iterator(b.begin()),
                   std::make_move_iterator(b.end()));
        },
        out_partitions, std::move(opts), shuffle);
  }

  // Shuffle + reduce: groups (K, V) pairs by key hash into `out_partitions`
  // buckets, then reduces per key with `reduce` (V, V) -> V. The reduce
  // side is a separate (optionally droppable) stage. `reduce` must be
  // associative; with map-side combining (the default) it runs both before
  // and after the shuffle, exactly like a Spark combiner.
  template <typename K, typename V, typename R>
  Dataset<std::pair<K, V>> reduce_by_key(const Dataset<std::pair<K, V>>& in, R reduce,
                                         std::size_t out_partitions, StageOptions opts = {},
                                         ShuffleOptions shuffle = {}) {
    return combine_by_key(
        in, [](const V& v) { return v; },
        [&reduce](V& a, const V& v) { a = reduce(a, v); },
        [&reduce](V& a, V&& b) { a = reduce(a, b); }, out_partitions, std::move(opts),
        shuffle);
  }

  // Generalized two-phase shuffle (Spark's combineByKey). Hash-partitions
  // (K, V) pairs into `out_partitions` buckets and aggregates the values of
  // each key through a user aggregator:
  //
  //   create(const V&) -> A   lift the first value seen for a key
  //   fold(A&, const V&)      absorb one more value on the map side
  //   merge(A&, A&&)          combine two partial aggregates
  //
  // Phase 1 ("<name>/shuffle", kShuffleWrite, non-droppable) runs one task
  // per input partition; phase 2 ("<name>/reduce", kReduce, droppable per
  // `opts`) runs one task per bucket. Dropped merge tasks leave empty
  // output partitions; the map side was already subject to dropping when
  // it produced `in`, so drop semantics are unchanged end to end. See
  // shuffle_core for the write, merge and retry contract.
  template <typename K, typename V, typename Create, typename Fold, typename Merge>
  auto combine_by_key(const Dataset<std::pair<K, V>>& in, Create create, Fold fold,
                      Merge merge, std::size_t out_partitions, StageOptions opts = {},
                      ShuffleOptions shuffle = {})
      -> Dataset<std::pair<K, std::invoke_result_t<Create, const V&>>> {
    using A = std::invoke_result_t<Create, const V&>;
    StageOptions write_opts;
    write_opts.name = opts.name + "/shuffle";
    write_opts.droppable = false;
    write_opts.plan = opts.plan;  // per-stage speculation rides along
    StageOptions merge_opts = std::move(opts);
    merge_opts.name += "/reduce";
    return shuffle_core<K, A>(
        in, [](const std::pair<K, V>& kv) -> const K& { return kv.first; },
        [&create](const std::pair<K, V>& kv) { return create(kv.second); },
        [&fold](A& acc, const std::pair<K, V>& kv) { fold(acc, kv.second); }, merge,
        [](std::vector<std::pair<K, A>>&& entries) { return std::move(entries); },
        out_partitions, std::move(write_opts), std::move(merge_opts), shuffle);
  }

  // --- actions -------------------------------------------------------------
  template <typename T, typename F>
  T aggregate(const Dataset<T>& in, T init, F combine, StageOptions opts = {}) {
    std::vector<T> partials(in.partitions(), init);
    run_stage(in.partitions(), opts, EngineStageKind::kResult, [&](std::size_t p) {
      T acc = init;
      for (const auto& x : in.partition(p)) acc = combine(acc, x);
      partials[p] = acc;
    });
    T total = init;
    for (const auto& x : partials) total = combine(total, x);
    return total;
  }

  template <typename T>
  std::size_t count(const Dataset<T>& in) {
    std::size_t n = 0;
    for (std::size_t p = 0; p < in.partitions(); ++p) n += in.partition(p).size();
    return n;
  }

  // --- stage log ------------------------------------------------------------
  const std::vector<StageInfo>& stage_log() const { return stage_log_; }
  void clear_stage_log() { stage_log_.clear(); }
  // Total wall time across logged stages.
  double logged_duration() const {
    double acc = 0.0;
    for (const auto& s : stage_log_) acc += s.duration_s;
    return acc;
  }

 private:
  // Runs one stage over `n` partitions, applying dropping when allowed.
  // The kept partitions run as exactly one pool wave whose per-index body
  // is the attempt loop (chaos faults, retry, backoff); speculation and the
  // stall watchdog run as the wave's monitor on the calling thread.
  //
  // Stage bodies must be idempotent per partition: under retry or
  // speculation a body may be invoked again for the same partition after a
  // failed or superseded attempt (successful executions remain
  // exactly-once — a partition's body never *completes* twice).
  void run_stage(std::size_t n, const StageOptions& opts, EngineStageKind kind,
                 const std::function<void(std::size_t)>& body);

  // Applies an adaptive plan to a shuffle's effective knobs in place.
  // `merge_theta` > 0 suppresses the partition knobs (bucket count is part
  // of drop semantics there); the spill hint is applied only when
  // `entry_spillable` and a backend is reachable, clamped to one record of
  // `entry_bytes`, so a plan can never turn into a config_error.
  void apply_stage_plan(const StagePlan& plan, ShuffleOptions& shuffle,
                        std::size_t& out_partitions, double merge_theta,
                        bool entry_spillable, std::size_t entry_bytes);

  // The drop ratio a stage runs with: 0 unless droppable, else the stage's
  // override when set, else the engine-wide ratio.
  double stage_theta(const StageOptions& opts) const {
    if (!opts.droppable) return 0.0;
    return opts.drop_ratio_override >= 0.0 ? opts.drop_ratio_override : options_.drop_ratio;
  }

  // The one two-phase shuffle under combine_by_key, reduce_by_key,
  // group_by_key and distinct. Records of type In are keyed and folded
  // into (K, A) entries through
  //
  //   key_of(const In&) -> const K&   the record's shuffle key
  //   create(const In&) -> A          lift the first record seen for a key
  //   fold(A&, const In&)             absorb one more record on the map side
  //   merge(A&, A&&)                  combine two partial aggregates
  //   finish(std::vector<(K, A)>&&)   turn a merged bucket into its output
  //
  // The write stage (`write_opts`, kShuffleWrite) runs one task per input
  // partition. Each task writes hash-partitioned segments into buffers
  // owned by its worker slot — no locks on the write path (see
  // shuffle.hpp) — either pre-combining through a per-task open-addressing
  // map flushed at ShuffleOptions::target_buffer_bytes, or (combine =
  // false) shipping raw chunks of the same byte size. The merge stage
  // (`merge_opts`, kReduce) runs one task per bucket, merging that
  // bucket's segments in deterministic (input partition, flush) order and
  // calling `finish` inside the task, so that work stays parallel and
  // inside the stage timer.
  //
  // Both phases tolerate the fault-tolerant retry path: a write task that
  // dies mid-partition leaves complete, deterministic segments behind and
  // the merge collapses duplicate (src, seq) positions to one copy; a
  // merge task that dies mid-bucket (spill I/O error, user functor throw)
  // leaves its segments intact because consume() defers all destructive
  // effects to the post-body commit_bucket() whenever a spill backend is
  // attached — and without one, a re-entered bucket whose segments were
  // already moved out fails loudly instead of merging them as empty.
  template <typename K, typename A, typename In, typename KeyOf, typename Create,
            typename Fold, typename Merge, typename Finish>
  auto shuffle_core(const Dataset<In>& in, KeyOf key_of, Create create, Fold fold, Merge merge,
                    Finish finish, std::size_t out_partitions, StageOptions write_opts,
                    StageOptions merge_opts, ShuffleOptions shuffle)
      -> Dataset<typename std::invoke_result_t<Finish, std::vector<std::pair<K, A>>&&>::
                     value_type> {
    using Entry = std::pair<K, A>;
    using Out = typename std::invoke_result_t<Finish, std::vector<Entry>&&>::value_type;
    DIAS_EXPECTS(out_partitions >= 1, "need at least one output partition");

    if (merge_opts.plan && !merge_opts.plan->is_identity()) {
      // Repartitioning a droppable merge stage running with theta > 0
      // would change which buckets drop; apply_stage_plan skips the
      // partition knobs there (the others stay content-preserving).
      apply_stage_plan(*merge_opts.plan, shuffle, out_partitions, stage_theta(merge_opts),
                       detail::is_spillable<Entry>::value, sizeof(Entry));
    }
    const detail::SpillPolicy spill_policy = make_spill_policy<Entry>(shuffle);
    const bool spill_active = spill_policy.backend != nullptr;
    // Declared before the sink: destroyed after it, so the arenas are
    // recycled only once no segment from this shuffle is alive (merge
    // outputs are heap-backed, so nothing escapes the epoch).
    ArenaEpochGuard arena_guard(*this);
    detail::ShuffleSink<K, A> sink(pool_.workers(), out_partitions, spill_policy);
    std::atomic<std::size_t> records_in{0};
    std::atomic<std::size_t> records_out{0};
    std::atomic<std::size_t> bytes{0};
    std::atomic<std::size_t> flushes{0};

    run_stage(in.partitions(), write_opts, EngineStageKind::kShuffleWrite, [&](std::size_t p) {
      const std::size_t slot = pool_.current_slot();
      std::hash<K> hasher;
      const auto& part = in.partition(p);
      records_in.fetch_add(part.size(), std::memory_order_relaxed);
      std::size_t shipped = 0;
      std::size_t seq = 0;
      detail::RadixScratch radix;
      // Splits a finished combiner scratch (or raw batch) into per-bucket
      // segments and hands them to the sink. The radix split computes the
      // same hasher(key) % buckets assignment and preserves input order
      // per bucket, so segments are byte-identical to a push-one-at-a-time
      // loop.
      auto ship = [&](std::vector<Entry>&& entries) {
        detail::radix_split(
            std::move(entries), out_partitions, hasher, radix, slot_arena(slot),
            [&](std::size_t b, detail::ArenaVector<Entry>&& seg) {
              shipped += seg.size();
              detail::guard_spill_io(spill_active, write_opts.name, p,
                                     [&] { sink.push(slot, b, {p, seq, std::move(seg)}); });
            });
        ++seq;
      };
      if (shuffle.combine) {
        detail::FlatMap<K, A> scratch;
        // Scratch bytes reported to the sink so far; the delta reporting
        // keeps the combiner map inside the budget's accounting without
        // ever spilling the map itself.
        std::size_t accounted_scratch = 0;
        auto account_scratch = [&] {
          if (!spill_active || scratch.approx_bytes() == accounted_scratch) return;
          const auto delta = static_cast<std::ptrdiff_t>(scratch.approx_bytes()) -
                             static_cast<std::ptrdiff_t>(accounted_scratch);
          accounted_scratch = scratch.approx_bytes();
          detail::guard_spill_io(spill_active, write_opts.name, p,
                                 [&] { sink.adjust_scratch(slot, delta); });
        };
        for (const auto& record : part) {
          bool created = false;
          A& acc = scratch.find_or_emplace(
              key_of(record), [&] { return create(record); }, &created);
          if (!created) fold(acc, record);
          account_scratch();
          if (scratch.approx_bytes() > shuffle.target_buffer_bytes) {
            auto full = std::move(scratch.entries());
            scratch.clear();
            ship(std::move(full));
            flushes.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!scratch.empty()) ship(std::move(scratch.entries()));
        if (spill_active && accounted_scratch != 0) {
          sink.adjust_scratch(slot, -static_cast<std::ptrdiff_t>(accounted_scratch));
        }
      } else {
        // Raw ships chunk at target_buffer_bytes too, so segment
        // boundaries stay budget-independent on this path as well.
        const std::size_t chunk_records =
            std::max<std::size_t>(1, shuffle.target_buffer_bytes / sizeof(Entry));
        std::vector<Entry> raw;
        raw.reserve(std::min(part.size(), chunk_records));
        for (const auto& record : part) {
          raw.emplace_back(key_of(record), create(record));
          if (raw.size() >= chunk_records) {
            ship(std::move(raw));
            raw.clear();
          }
        }
        if (!raw.empty()) ship(std::move(raw));
      }
      records_out.fetch_add(shipped, std::memory_order_relaxed);
      bytes.fetch_add(shipped * sizeof(Entry), std::memory_order_relaxed);
    });
    note_shuffle_write(records_in.load(), records_out.load(), bytes.load(), flushes.load(),
                       shuffle.combine, sink.spilled_segments(), sink.spilled_bytes(),
                       sink.fallback_segments(), sink.write_failures());

    std::vector<std::vector<Out>> out(out_partitions);
    std::atomic<std::size_t> merged{0};
    std::atomic<std::uint64_t> restored_segments{0};
    std::atomic<std::uint64_t> restored_bytes{0};
    // Per-bucket seconds spent streaming spilled segments back; one merge
    // task per bucket, so no synchronization needed.
    std::vector<double> stream_s(out_partitions, 0.0);
    std::vector<std::size_t> bucket_records(out_partitions, 0);
    run_stage(out_partitions, merge_opts, EngineStageKind::kReduce, [&](std::size_t b) {
      detail::FlatMap<K, A> acc;
      std::size_t records = 0;
      auto fold_entry = [&](Entry&& entry) {
        bool created = false;
        A& dst = acc.find_or_emplace(
            entry.first, [&] { return std::move(entry.second); }, &created);
        if (!created) merge(dst, std::move(entry.second));
      };
      for (auto* segment : sink.bucket_segments(b)) {
        const bool was_spilled = segment->spilled;
        const auto t0 = was_spilled ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
        records += detail::guard_spill_io(spill_active, merge_opts.name, b,
                                          [&] { return sink.consume(*segment, fold_entry); });
        if (was_spilled) {
          stream_s[b] += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                             .count();
          restored_segments.fetch_add(1, std::memory_order_relaxed);
          restored_bytes.fetch_add(segment->spill_bytes, std::memory_order_relaxed);
        }
      }
      // Every segment consumed: free the bucket (spilled storage included).
      // Never throws, so the completed body cannot be retried half-freed.
      sink.commit_bucket(b);
      bucket_records[b] = records;
      merged.fetch_add(records, std::memory_order_relaxed);
      out[b] = finish(std::move(acc.entries()));
    });
    note_shuffle_merge(merged.load(), restored_segments.load(), restored_bytes.load(),
                       stream_s, bucket_records);
    return Dataset<Out>(std::move(out));
  }

  // The installed cancellation token, or null when detached.
  const CancellationToken* cancel_token() const {
    return cancel_.has_value() ? &*cancel_ : nullptr;
  }

  // --- shuffle segment arenas (ISSUE 9) -----------------------------------
  // One bump-pointer arena per worker slot; shuffle write tasks allocate
  // their segment entry storage from their own slot's arena (single-owner,
  // no lock), and the chunks are recycled once per shuffle via
  // ArenaEpochGuard. Only slotted pool workers run write tasks.
  detail::SegmentArena* slot_arena(std::size_t slot) {
    DIAS_EXPECTS(slot < arenas_.size(), "segment arena requested without a worker slot");
    return arenas_[slot].get();
  }

  // Recycles every slot arena (epoch bump) and publishes arena stats.
  // Callers must guarantee no arena-backed segment is still alive — in
  // practice: the ShuffleSink of the finished shuffle has been destroyed.
  void reset_arenas();

  // Scoped epoch: declared before a shuffle's sink so its destructor runs
  // after the sink's, recycling the arenas exactly when the last segment
  // of that shuffle is gone. run_stage joins its wave and every
  // speculative copy before returning, so no write task can still be
  // allocating when the guard fires.
  class ArenaEpochGuard {
   public:
    explicit ArenaEpochGuard(Engine& engine) : engine_(engine) {}
    ~ArenaEpochGuard() { engine_.reset_arenas(); }
    ArenaEpochGuard(const ArenaEpochGuard&) = delete;
    ArenaEpochGuard& operator=(const ArenaEpochGuard&) = delete;

   private:
    Engine& engine_;
  };

  // Resolves ShuffleOptions into the sink's spill policy for a shuffle
  // whose segment entries have type `Entry`. Unbounded budgets resolve to
  // the inert default policy; an explicit finite budget demands a backend
  // (the per-shuffle override or the engine-wide one), spillable entries,
  // and room for at least one record. A budget inherited from
  // DIAS_SHUFFLE_BUDGET_BYTES (ShuffleOptions::kBudgetFromEnv) is instead
  // ignored on shuffles it cannot apply to — a process-wide env var must
  // not break programs that never opted into spilling.
  template <typename Entry>
  detail::SpillPolicy make_spill_policy(const ShuffleOptions& shuffle) {
    detail::SpillPolicy policy;
    policy.breaker = &spill_breaker_;
    const bool from_env = shuffle.memory_budget_bytes == ShuffleOptions::kBudgetFromEnv;
    const std::size_t budget =
        from_env ? detail::default_shuffle_budget() : shuffle.memory_budget_bytes;
    if (budget == 0) return policy;
    if constexpr (!detail::is_spillable<Entry>::value) {
      if (from_env) return policy;
      throw config_error(
          "shuffle memory_budget_bytes set but the key/aggregate types have no "
          "spill codec");
    } else {
      SpillBackend* backend = shuffle.spill != nullptr ? shuffle.spill : spill_;
      if (backend == nullptr) {
        if (from_env) return policy;
        throw config_error(
            "shuffle memory_budget_bytes set but no spill backend attached "
            "(Engine::set_spill_backend or ShuffleOptions::spill)");
      }
      if (budget < sizeof(Entry)) {
        if (from_env) return policy;
        throw config_error(
            "shuffle memory_budget_bytes (" + std::to_string(budget) +
            ") is smaller than a single record (" + std::to_string(sizeof(Entry)) +
            " bytes)");
      }
      policy.budget_bytes = budget;
      policy.backend = backend;
      return policy;
    }
  }

  // Shuffle accounting: annotate the just-logged shuffle-write / merge
  // stage (stage_log_.back()) and publish metrics + a tracer event.
  void note_shuffle_write(std::size_t records_in, std::size_t records_out,
                          std::size_t bytes, std::size_t flushes, bool combine,
                          std::uint64_t spill_segments, std::uint64_t spill_bytes,
                          std::uint64_t fallback_segments, std::uint64_t write_failures);
  void note_shuffle_merge(std::size_t records, std::uint64_t restored_segments,
                          std::uint64_t restored_bytes,
                          const std::vector<double>& stream_s,
                          const std::vector<std::size_t>& bucket_records);

  // Metric handles cached at attach time; all null when detached.
  struct ObsHooks {
    obs::Tracer* tracer = nullptr;
    obs::Counter* stages = nullptr;
    obs::Counter* tasks_executed = nullptr;
    obs::Counter* tasks_dropped = nullptr;   // dropped before launch (theta)
    obs::Counter* tasks_degraded = nullptr;  // failed -> dropped / fatal
    obs::Counter* tasks_cancelled = nullptr; // abandoned by a fired token
    obs::Counter* attempts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* speculative_launched = nullptr;
    obs::Counter* speculative_wins = nullptr;
    obs::HistogramMetric* task_time_s = nullptr;
    obs::HistogramMetric* stage_time_s = nullptr;
    obs::Counter* shuffle_records_in = nullptr;
    obs::Counter* shuffle_records_out = nullptr;
    obs::Counter* shuffle_bytes = nullptr;
    obs::Counter* shuffle_flushes = nullptr;
    obs::HistogramMetric* shuffle_combine_ratio = nullptr;
    obs::Counter* shuffle_spill_segments = nullptr;
    obs::Counter* shuffle_spill_bytes = nullptr;
    obs::Counter* shuffle_restored_segments = nullptr;
    obs::Counter* shuffle_restored_bytes = nullptr;
    obs::HistogramMetric* shuffle_merge_stream_s = nullptr;
    // Last merge's max/mean bucket load ratio; the planner's skew input.
    obs::Gauge* shuffle_merge_skew = nullptr;
    // Segment-arena telemetry, refreshed at each epoch reset.
    obs::Gauge* arena_chunks = nullptr;
    obs::Gauge* arena_reserved_bytes = nullptr;
    obs::Counter* arena_recycled_chunks = nullptr;
    // Spill-breaker telemetry (ISSUE 10): state gauge (0 closed,
    // 1 half-open, 2 open), cumulative trips, and the shuffle-write
    // fallback accounting.
    obs::Gauge* spill_breaker_state = nullptr;
    obs::Counter* spill_breaker_trips = nullptr;
    obs::Counter* spill_write_failures = nullptr;
    obs::Counter* spill_fallback_segments = nullptr;
  };

  Options options_;
  ThreadPool pool_;
  Rng rng_;
  SpillBackend* spill_ = nullptr;  // engine-wide spill destination, not owned
  std::optional<CancellationToken> cancel_;  // null = cancellation detached
  std::uint64_t stage_seq_ = 0;  // stages run since construction; fault key
  std::vector<StageInfo> stage_log_;
  // Per-slot segment arenas (see slot_arena); indexed by stable slot id.
  std::vector<std::unique_ptr<detail::SegmentArena>> arenas_;
  // recycled_chunks total already published to obs (counters are deltas).
  std::uint64_t published_arena_recycled_ = 0;
  SpillBreaker spill_breaker_;
  // Breaker trip total already published to obs (counters are deltas).
  std::uint64_t published_breaker_trips_ = 0;
  ObsHooks obs_;
};

}  // namespace dias::engine
