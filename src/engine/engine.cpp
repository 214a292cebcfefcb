#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>

#include "chaos/chaos.hpp"

namespace dias::engine {

namespace detail {

std::size_t default_shuffle_budget() {
  static const std::size_t budget = [] {
    const char* env = std::getenv("DIAS_SHUFFLE_BUDGET_BYTES");
    if (env == nullptr || *env == '\0') return std::size_t{0};
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == env || (end != nullptr && *end != '\0')) return std::size_t{0};
    return static_cast<std::size_t>(parsed);
  }();
  return budget;
}

}  // namespace detail

std::string StagePlan::summary() const {
  auto tri = [](const std::optional<bool>& v) {
    return !v.has_value() ? std::string("-") : (*v ? std::string("on") : std::string("off"));
  };
  auto num = [](const std::optional<std::size_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("-");
  };
  return "combine=" + tri(combine) +
         " parts=" + (partitions > 0 ? std::to_string(partitions) : std::string("-")) +
         " spec=" + tri(speculate) + " buf=" + num(target_buffer_bytes) +
         " spill=" + num(spill_budget_bytes);
}

const char* to_string(EngineStageKind kind) {
  switch (kind) {
    case EngineStageKind::kMap:
      return "map";
    case EngineStageKind::kShuffleWrite:
      return "shuffle-write";
    case EngineStageKind::kReduce:
      return "reduce";
    case EngineStageKind::kResult:
      return "result";
  }
  return "?";
}

void Engine::attach_observability(obs::Registry* metrics, obs::Tracer* tracer) {
  obs_ = ObsHooks{};
  obs_.tracer = tracer;
  if (metrics != nullptr) {
    obs_.stages = &metrics->counter("engine.stages");
    obs_.tasks_executed = &metrics->counter("engine.tasks_executed");
    obs_.tasks_dropped = &metrics->counter("engine.tasks_dropped");
    obs_.tasks_degraded = &metrics->counter("engine.tasks_degraded");
    obs_.tasks_cancelled = &metrics->counter("engine.tasks_cancelled");
    obs_.attempts = &metrics->counter("engine.task_attempts");
    obs_.retries = &metrics->counter("engine.task_retries");
    obs_.speculative_launched = &metrics->counter("engine.speculative_launched");
    obs_.speculative_wins = &metrics->counter("engine.speculative_wins");
    obs_.task_time_s = &metrics->histogram("engine.task_time_s", 0.0, 10.0, 200);
    obs_.stage_time_s = &metrics->histogram("engine.stage_time_s", 0.0, 120.0, 240);
    obs_.shuffle_records_in = &metrics->counter("engine.shuffle.records_in");
    obs_.shuffle_records_out = &metrics->counter("engine.shuffle.records_out");
    obs_.shuffle_bytes = &metrics->counter("engine.shuffle.bytes");
    obs_.shuffle_flushes = &metrics->counter("engine.shuffle.flushes");
    obs_.shuffle_combine_ratio =
        &metrics->histogram("engine.shuffle.combine_ratio", 0.0, 1.0, 50);
    obs_.shuffle_spill_segments = &metrics->counter("engine.shuffle.spill_segments");
    obs_.shuffle_spill_bytes = &metrics->counter("engine.shuffle.spill_bytes");
    obs_.shuffle_restored_segments =
        &metrics->counter("engine.shuffle.spill_restored_segments");
    obs_.shuffle_restored_bytes = &metrics->counter("engine.shuffle.spill_restored_bytes");
    obs_.shuffle_merge_stream_s =
        &metrics->histogram("engine.shuffle.merge_stream_s", 0.0, 10.0, 200);
    obs_.shuffle_merge_skew = &metrics->gauge("engine.shuffle.merge_skew");
    obs_.spill_breaker_state = &metrics->gauge("engine.spill.breaker_state");
    obs_.spill_breaker_trips = &metrics->counter("engine.spill.breaker_trips");
    obs_.spill_write_failures = &metrics->counter("engine.spill.write_failures");
    obs_.spill_fallback_segments = &metrics->counter("engine.spill.fallback_segments");
    // Re-base like the arena counter: re-attaching the same registry adds
    // only deltas, a fresh registry gets full history at the next publish.
    published_breaker_trips_ = obs_.spill_breaker_trips->value();
    obs_.spill_breaker_state->set(SpillBreaker::state_value(spill_breaker_.state()));
    obs_.arena_chunks = &metrics->gauge("engine.shuffle.arena_chunks");
    obs_.arena_reserved_bytes = &metrics->gauge("engine.shuffle.arena_reserved_bytes");
    obs_.arena_recycled_chunks = &metrics->counter("engine.shuffle.arena_recycled_chunks");
    // Re-base like the pool does: a re-attach to the same registry must add
    // only future deltas, a fresh registry gets full history at next reset.
    published_arena_recycled_ = obs_.arena_recycled_chunks->value();
    pool_.attach_metrics(*metrics, "engine.pool");
  } else {
    pool_.detach_metrics();
  }
}

void Engine::reset_arenas() {
  double chunks = 0.0;
  double reserved = 0.0;
  std::uint64_t recycled = 0;
  for (auto& arena : arenas_) {
    arena->reset();
    chunks += static_cast<double>(arena->chunk_count());
    reserved += static_cast<double>(arena->reserved_bytes());
    recycled += arena->recycled_chunks();
  }
  if (obs_.arena_chunks != nullptr) {
    obs_.arena_chunks->set(chunks);
    obs_.arena_reserved_bytes->set(reserved);
    if (recycled > published_arena_recycled_) {
      obs_.arena_recycled_chunks->add(recycled - published_arena_recycled_);
    }
    published_arena_recycled_ = recycled;
  }
}

void Engine::note_shuffle_write(std::size_t records_in, std::size_t records_out,
                                std::size_t bytes, std::size_t flushes, bool combine,
                                std::uint64_t spill_segments, std::uint64_t spill_bytes,
                                std::uint64_t fallback_segments,
                                std::uint64_t write_failures) {
  DIAS_EXPECTS(!stage_log_.empty(), "shuffle accounting needs a logged stage");
  StageInfo& info = stage_log_.back();
  info.shuffle_records_in = records_in;
  info.shuffle_records_out = records_out;
  info.shuffle_bytes = bytes;
  info.shuffle_flushes = flushes;
  info.shuffle_spill_segments = static_cast<std::size_t>(spill_segments);
  info.shuffle_spill_bytes = static_cast<std::size_t>(spill_bytes);
  info.shuffle_spill_fallback_segments = static_cast<std::size_t>(fallback_segments);
  info.shuffle_spill_write_failures = static_cast<std::size_t>(write_failures);
  info.spill_breaker_open = spill_breaker_.open();
  // No records in means nothing was combined away; report a neutral 1.0.
  const double ratio =
      records_in == 0
          ? 1.0
          : static_cast<double>(records_out) / static_cast<double>(records_in);
  if (obs_.shuffle_records_in != nullptr) {
    obs_.shuffle_records_in->add(records_in);
    obs_.shuffle_records_out->add(records_out);
    obs_.shuffle_bytes->add(bytes);
    obs_.shuffle_flushes->add(flushes);
    obs_.shuffle_combine_ratio->observe(ratio);
    obs_.shuffle_spill_segments->add(spill_segments);
    obs_.shuffle_spill_bytes->add(spill_bytes);
    obs_.spill_fallback_segments->add(fallback_segments);
    obs_.spill_write_failures->add(write_failures);
    obs_.spill_breaker_state->set(SpillBreaker::state_value(spill_breaker_.state()));
    const std::uint64_t trips = spill_breaker_.trips();
    if (trips > published_breaker_trips_) {
      obs_.spill_breaker_trips->add(trips - published_breaker_trips_);
      published_breaker_trips_ = trips;
    }
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->event("engine.shuffle.write",
                       {{"stage", info.name},
                        {"records_in", std::uint64_t{records_in}},
                        {"records_out", std::uint64_t{records_out}},
                        {"bytes", std::uint64_t{bytes}},
                        {"flushes", std::uint64_t{flushes}},
                        {"combine", combine},
                        {"combine_ratio", ratio},
                        {"spill_segments", spill_segments},
                        {"spill_bytes", spill_bytes},
                        {"spill_fallback_segments", fallback_segments},
                        {"spill_write_failures", write_failures},
                        {"breaker_open", info.spill_breaker_open}});
  }
}

void Engine::note_shuffle_merge(std::size_t records, std::uint64_t restored_segments,
                                std::uint64_t restored_bytes,
                                const std::vector<double>& stream_s,
                                const std::vector<std::size_t>& bucket_records) {
  DIAS_EXPECTS(!stage_log_.empty(), "shuffle accounting needs a logged stage");
  StageInfo& info = stage_log_.back();
  info.shuffle_records_in = records;
  info.shuffle_restored_segments = static_cast<std::size_t>(restored_segments);
  info.shuffle_restored_bytes = static_cast<std::size_t>(restored_bytes);
  // Merge load imbalance: max bucket record count over the mean. 1.0 for
  // empty or perfectly even merges; >= 1.0 otherwise.
  double skew = 1.0;
  if (!bucket_records.empty()) {
    std::size_t total = 0;
    std::size_t heaviest = 0;
    for (const std::size_t r : bucket_records) {
      total += r;
      heaviest = std::max(heaviest, r);
    }
    if (total > 0) {
      skew = static_cast<double>(heaviest) *
             static_cast<double>(bucket_records.size()) / static_cast<double>(total);
    }
  }
  info.shuffle_merge_skew = skew;
  if (obs_.shuffle_restored_segments != nullptr) {
    obs_.shuffle_restored_segments->add(restored_segments);
    obs_.shuffle_restored_bytes->add(restored_bytes);
    obs_.shuffle_merge_skew->set(skew);
    for (const double s : stream_s) {
      if (s > 0.0) obs_.shuffle_merge_stream_s->observe(s);
    }
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->event("engine.shuffle.merge",
                       {{"stage", info.name},
                        {"records", std::uint64_t{records}},
                        {"executed_buckets", std::uint64_t{info.executed_partitions}},
                        {"total_buckets", std::uint64_t{info.total_partitions}},
                        {"restored_segments", restored_segments},
                        {"restored_bytes", restored_bytes},
                        {"merge_skew", skew}});
  }
}

void Engine::apply_stage_plan(const StagePlan& plan, ShuffleOptions& shuffle,
                              std::size_t& out_partitions, double merge_theta,
                              bool entry_spillable, std::size_t entry_bytes) {
  if (plan.combine.has_value()) shuffle.combine = *plan.combine;
  if (plan.target_buffer_bytes.has_value()) {
    // Keep a sane floor so a degenerate plan cannot force per-record ships.
    shuffle.target_buffer_bytes = std::max<std::size_t>(*plan.target_buffer_bytes, 64);
  }
  if (merge_theta <= 0.0 && plan.partitions > 0) out_partitions = plan.partitions;
  if (plan.spill_budget_bytes.has_value()) {
    const std::size_t budget = *plan.spill_budget_bytes;
    if (budget == 0) {
      // Explicit "stay resident" hint.
      shuffle.memory_budget_bytes = 0;
    } else if (entry_spillable &&
               (shuffle.spill != nullptr || spill_ != nullptr)) {
      // Advisory: clamp to one record so the hint passes budget validation.
      shuffle.memory_budget_bytes = std::max(budget, entry_bytes);
    }
    // Unspillable entries or no backend: leave the static budget alone —
    // a hint must never become a config_error.
  }
}

std::vector<std::size_t> find_missing_partitions(std::size_t n, double theta, Rng& rng) {
  DIAS_EXPECTS(theta >= 0.0 && theta <= 1.0, "drop ratio must be in [0,1]");
  const auto keep = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * (1.0 - theta) - 1e-12));
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  // Partial Fisher-Yates: choose `keep` partitions uniformly at random.
  for (std::size_t i = 0; i < keep && i + 1 < n; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(keep);
  std::sort(idx.begin(), idx.end());
  return idx;
}

void Engine::run_stage(std::size_t n, const StageOptions& opts, EngineStageKind kind,
                       const std::function<void(std::size_t)>& body) {
  // A job cancelled between stages never starts the next one (and logs no
  // stage entry for it — nothing ran).
  if (const CancellationToken* cancel = cancel_token(); cancel != nullptr) {
    cancel->throw_if_cancelled("stage '" + opts.name + "' entry");
  }
  StageInfo info;
  info.name = opts.name;
  info.kind = kind;
  info.total_partitions = n;
  const std::uint64_t stage_seq = stage_seq_++;

  const double theta = stage_theta(opts);
  info.applied_drop_ratio = theta;

  std::vector<std::size_t> selected;
  if (theta > 0.0) {
    selected = find_missing_partitions(n, theta, rng_);
  } else {
    selected.resize(n);
    std::iota(selected.begin(), selected.end(), std::size_t{0});
  }
  const std::size_t dropped_upfront = n - selected.size();

  obs::Tracer::SpanId span = 0;
  if (obs_.tracer != nullptr) {
    std::vector<obs::Field> fields{{"stage", opts.name},
                                   {"kind", to_string(kind)},
                                   {"seq", stage_seq},
                                   {"total_partitions", n},
                                   {"theta", theta},
                                   {"droppable", opts.droppable}};
    if (opts.plan && !opts.plan->is_identity()) {
      fields.push_back({"plan", opts.plan->summary()});
    }
    span = obs_.tracer->begin_span("engine.stage", std::move(fields));
  }

  // Stage-effective fault policy: a StagePlan may toggle speculation for
  // this stage only. Exactly-once body completion keeps the toggle
  // content-preserving, so plans may flip it freely.
  FaultToleranceOptions ft = options_.fault;
  if (opts.plan && opts.plan->speculate.has_value()) {
    ft.speculation = *opts.plan->speculate;
  }

  const CancellationToken* cancel = cancel_token();
  // An armed chaos plane may fail or stall any task body, so the stage
  // absorbs failures even when the policy itself is inert. Disarmed cost:
  // one relaxed load. Without either, a body's exception is the stage's.
  const bool tolerant = ft.active() || chaos::ChaosPlane::instance().armed();
  // Chaos engine.task point, the engine's one source of task faults: fires
  // per primary attempt on scheduling-independent (stage, partition,
  // attempt) coordinates.
  static chaos::InjectionPoint& chaos_task =
      chaos::ChaosPlane::instance().point(chaos::points::kEngineTask);
  const auto cancel_requested = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };
  const auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  const auto stage_start = std::chrono::steady_clock::now();

  // Per-task state shared between the primary attempt loop and an optional
  // speculative copy. `exec_mu` serializes body execution so a partition's
  // body can never complete twice: the first copy through wins, the loser
  // observes `done` and backs off.
  struct TaskState {
    std::mutex exec_mu;
    std::atomic<bool> done{false};              // body completed successfully
    std::atomic<bool> primary_finished{false};  // primary loop returned
    std::atomic<int> attempts{0};               // all copies
    std::atomic<int> primary_attempts{0};
    std::atomic<bool> spec_launched{false};
    std::atomic<bool> spec_won{false};
    std::atomic<bool> failed{false};            // primary exhausted its budget
    // steady_clock ns of the current primary attempt's start; -1 before the
    // first attempt. The stall watchdog measures elapsed time against it.
    std::atomic<std::int64_t> attempt_start_ns{-1};
    double task_time_s = 0.0;                   // winner's time, under exec_mu
  };
  const std::size_t n_sel = selected.size();
  std::vector<TaskState> tasks(n_sel);

  std::mutex progress_mu;
  std::condition_variable progress_cv;
  std::size_t primaries_done = 0;
  std::size_t succeeded = 0;

  // Runs the body for task `idx` unless another copy already completed it.
  // Throws whatever the body throws; the caller accounts a failed attempt.
  auto execute_body = [&](std::size_t idx, bool speculative) {
    TaskState& st = tasks[idx];
    std::lock_guard guard(st.exec_mu);
    if (st.done.load(std::memory_order_acquire)) return;
    const auto t0 = std::chrono::steady_clock::now();
    body(selected[idx]);
    const auto t1 = std::chrono::steady_clock::now();
    st.task_time_s = std::chrono::duration<double>(t1 - t0).count();
    if (speculative) st.spec_won.store(true, std::memory_order_relaxed);
    st.done.store(true, std::memory_order_release);
    {
      std::lock_guard plock(progress_mu);
      ++succeeded;
    }
    progress_cv.notify_all();
  };

  // The wave's per-index body: the primary attempt loop. Under the inert
  // policy it is one attempt whose exception propagates unchanged.
  auto primary = [&](std::size_t idx) {
    TaskState& st = tasks[idx];
    const std::size_t part = selected[idx];
    for (int attempt = 1; attempt <= ft.max_attempts; ++attempt) {
      if (st.done.load(std::memory_order_acquire)) break;  // speculation won
      // Cancellation point between attempts: an abandoned task is neither
      // done nor failed, and is classified as cancelled after the join.
      if (cancel_requested()) break;
      st.attempts.fetch_add(1, std::memory_order_relaxed);
      st.primary_attempts.fetch_add(1, std::memory_order_relaxed);
      st.attempt_start_ns.store(now_ns(), std::memory_order_relaxed);
      bool attempt_failed = false;
      if (chaos_task.armed()) {
        try {
          // kThrow is absorbed here as a failed attempt; kStall sleeps
          // (bounded, ended early by a cancel or by a speculative copy
          // completing the partition) and leaves the attempt healthy, so
          // speculation — not the retry budget — rescues a stalled task.
          chaos_task.inject(stage_seq, part, static_cast<std::uint64_t>(attempt),
                            cancel, &st.done);
        } catch (const chaos::ChaosError&) {
          attempt_failed = true;
        }
      }
      if (!attempt_failed) {
        try {
          execute_body(idx, /*speculative=*/false);
          break;  // the partition is complete (by us or a faster copy)
        } catch (...) {
          if (!tolerant) throw;
          // User-code failure: retried exactly like a chaos fault. The
          // body must be idempotent (see run_stage contract).
          attempt_failed = true;
        }
      }
      if (attempt == ft.max_attempts) {
        st.failed.store(true, std::memory_order_release);
      } else {
        const double backoff =
            backoff_delay_ms(ft, options_.seed, stage_seq, part, attempt);
        if (backoff > 0.0) interruptible_sleep_ms(backoff, cancel, &st.done);
      }
    }
    st.primary_finished.store(true, std::memory_order_release);
    {
      std::lock_guard plock(progress_mu);
      ++primaries_done;
    }
    progress_cv.notify_all();
  };

  // A speculative copy models re-execution on a healthy node: no chaos
  // fault or stall, single attempt. Copies are the only tasks a stage
  // submits outside its wave.
  std::vector<std::future<void>> copies;
  auto speculative = [&](std::size_t idx) {
    TaskState& st = tasks[idx];
    if (st.done.load(std::memory_order_acquire) || cancel_requested()) return;
    st.attempts.fetch_add(1, std::memory_order_relaxed);
    try {
      execute_body(idx, /*speculative=*/true);
    } catch (...) {
      // Copy died on user code; the primary keeps retrying (or already
      // declared the task dead).
    }
  };
  // At most one copy per task, launched only while its primary is still
  // in flight.
  auto launch_copy = [&](std::size_t i) {
    TaskState& st = tasks[i];
    if (st.done.load(std::memory_order_acquire) ||
        st.primary_finished.load(std::memory_order_acquire) ||
        st.spec_launched.load(std::memory_order_relaxed)) {
      return;
    }
    st.spec_launched.store(true, std::memory_order_relaxed);
    copies.push_back(pool_.submit([&speculative, i] { speculative(i); }));
  };

  // The wave's monitor, run on the waiting thread: quantile speculation
  // (Spark-style tail copies once the quantile of tasks succeeded) and the
  // stall watchdog (an immediate copy for any task whose current attempt
  // exceeds the stall threshold) share one 5 ms ticker. Exactly-once body
  // completion makes both launches content-preserving, so their timing
  // never changes result bytes.
  std::function<bool()> monitor;
  if (ft.speculation || ft.stall_watchdog) {
    const auto threshold = std::min(
        n_sel, static_cast<std::size_t>(std::ceil(
                   ft.speculation_quantile * static_cast<double>(n_sel) - 1e-12)));
    monitor = [&, threshold, quantile_fired = !ft.speculation]() mutable {
      std::size_t done_now = 0;
      std::size_t succ_now = 0;
      {
        std::unique_lock lock(progress_mu);
        progress_cv.wait_for(lock, std::chrono::milliseconds(5), [&] {
          return primaries_done == n_sel || (!quantile_fired && succeeded >= threshold);
        });
        done_now = primaries_done;
        succ_now = succeeded;
      }
      if (!quantile_fired && succ_now >= threshold) {
        quantile_fired = true;
        for (std::size_t i = 0; i < n_sel; ++i) launch_copy(i);
      }
      if (ft.stall_watchdog) {
        // Live threshold: the larger of the absolute floor and a multiple
        // of the observed task-time p95 (cold or detached histograms
        // contribute nothing, leaving the floor). A slow-but-uniform stage
        // raises its own bar; a wedged outlier trips it.
        double stall_ms = ft.stall_threshold_ms;
        if (obs_.task_time_s != nullptr && ft.stall_p95_multiplier > 0.0) {
          const auto hstats = obs_.task_time_s->stats();
          if (hstats.count > 0) {
            stall_ms = std::max(stall_ms, ft.stall_p95_multiplier * hstats.p95 * 1e3);
          }
        }
        if (stall_ms > 0.0) {
          const std::int64_t now = now_ns();
          for (std::size_t i = 0; i < n_sel; ++i) {
            const std::int64_t t0 = tasks[i].attempt_start_ns.load(std::memory_order_relaxed);
            if (t0 < 0) continue;
            if (static_cast<double>(now - t0) * 1e-6 >= stall_ms) launch_copy(i);
          }
        }
      }
      // Without the watchdog nothing is left to watch once the quantile
      // pass fired.
      return done_now < n_sel && (!quantile_fired || ft.stall_watchdog);
    };
  }

  std::exception_ptr wave_error;
  try {
    pool_.run_indexed(n_sel, primary, cancel, monitor);
  } catch (...) {
    wave_error = std::current_exception();
  }
  // Copies swallow their own failures; join them before the task state
  // they borrow goes out of scope.
  for (auto& f : copies) f.get();
  if (wave_error) std::rethrow_exception(wave_error);

  info.executed_partition_ids.reserve(n_sel);
  info.task_times_s.reserve(n_sel);
  for (std::size_t i = 0; i < n_sel; ++i) {
    TaskState& st = tasks[i];
    info.attempts += static_cast<std::size_t>(st.attempts.load(std::memory_order_relaxed));
    const int primary_attempts = st.primary_attempts.load(std::memory_order_relaxed);
    if (primary_attempts > 1) info.retries += static_cast<std::size_t>(primary_attempts - 1);
    if (st.spec_launched.load(std::memory_order_relaxed)) ++info.speculative_launched;
    if (st.spec_won.load(std::memory_order_relaxed)) ++info.speculative_wins;
    if (st.done.load(std::memory_order_acquire)) {
      // `selected` is sorted, so the executed ids come out sorted too.
      info.executed_partition_ids.push_back(selected[i]);
      info.task_times_s.push_back(st.task_time_s);
    } else if (st.failed.load(std::memory_order_acquire)) {
      info.failed_partition_ids.push_back(selected[i]);
    } else {
      // Neither completed nor out of budget: the cancellation token fired
      // and the task was abandoned.
      ++info.cancelled_partitions;
    }
  }
  info.executed_partitions = info.executed_partition_ids.size();
  const auto stage_end = std::chrono::steady_clock::now();
  info.duration_s = std::chrono::duration<double>(stage_end - stage_start).count();
  // An empty stage (n == 0) effectively dropped nothing; see StageInfo.
  info.effective_drop_ratio =
      n == 0 ? 0.0
             : 1.0 - static_cast<double>(info.executed_partitions) / static_cast<double>(n);
  info.cancelled = cancel != nullptr && cancel->cancelled();

  if (obs_.stages != nullptr) {
    obs_.stages->add();
    obs_.tasks_executed->add(info.executed_partitions);
    obs_.tasks_dropped->add(dropped_upfront);
    obs_.tasks_degraded->add(info.failed_partition_ids.size());
    obs_.tasks_cancelled->add(info.cancelled_partitions);
    obs_.attempts->add(info.attempts);
    obs_.retries->add(info.retries);
    obs_.speculative_launched->add(info.speculative_launched);
    obs_.speculative_wins->add(info.speculative_wins);
    for (const double t : info.task_times_s) obs_.task_time_s->observe(t);
    obs_.stage_time_s->observe(info.duration_s);
  }
  if (obs_.tracer != nullptr) {
    obs_.tracer->end_span(span, {{"executed", info.executed_partitions},
                                 {"dropped", dropped_upfront},
                                 {"degraded", info.failed_partition_ids.size()},
                                 {"cancelled", info.cancelled_partitions},
                                 {"attempts", info.attempts},
                                 {"retries", info.retries},
                                 {"speculative_launched", info.speculative_launched},
                                 {"speculative_wins", info.speculative_wins},
                                 {"effective_theta", info.effective_drop_ratio},
                                 {"duration_s", info.duration_s}});
  }

  // A fired token outranks task failure: the whole job is being abandoned,
  // so log the stage (for post-mortems) and surface the cancellation. On a
  // non-droppable stage a dead task is otherwise fatal: log, then raise
  // the typed task error.
  const bool was_cancelled = info.cancelled;
  std::optional<TaskFailedError> fatal;
  if (!was_cancelled && !opts.droppable && !info.failed_partition_ids.empty()) {
    const std::size_t part = info.failed_partition_ids.front();
    fatal.emplace(opts.name, part, options_.fault.max_attempts);
  }
  stage_log_.push_back(std::move(info));
  if (was_cancelled) throw JobCancelledError("stage '" + opts.name + "'");
  if (fatal) throw *fatal;
}

}  // namespace dias::engine
