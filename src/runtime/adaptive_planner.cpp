#include "runtime/adaptive_planner.hpp"

#include <algorithm>
#include <set>

namespace dias::runtime {

namespace {

// EWMA fold with first-sample snap: the first observation seeds the
// average directly instead of blending against the neutral initial value.
void blend(double& ewma, double sample, double alpha, bool have_prior) {
  ewma = have_prior ? (1.0 - alpha) * ewma + alpha * sample : sample;
}

std::uint64_t counter_value(const obs::Registry* reg, const char* name) {
  if (reg == nullptr) return 0;
  const obs::Counter* c = reg->find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double gauge_value(const obs::Registry* reg, const char* name, double fallback) {
  if (reg == nullptr) return fallback;
  const obs::Gauge* g = reg->find_gauge(name);
  return g == nullptr ? fallback : g->value();
}

// Smallest power of two >= demand, capped at the largest power of two
// <= max_partitions. Both the decision path and reachable_plans() use
// this, which is what keeps every emitted width inside the enumerated set.
std::size_t quantize_width(double demand, std::size_t max_partitions) {
  std::size_t cap = 1;
  while (cap * 2 <= max_partitions) cap *= 2;
  std::size_t width = 1;
  while (static_cast<double>(width) < demand && width < cap) width *= 2;
  return width;
}

}  // namespace

AdaptivePlanner::AdaptivePlanner(const obs::Registry* source, AdaptivePlannerConfig config,
                                 obs::Registry* metrics, obs::Tracer* tracer)
    : source_(source), config_(std::move(config)), metrics_(metrics), tracer_(tracer) {
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0) config_.ewma_alpha = 1.0;
  if (config_.workers == 0) config_.workers = 1;
  if (config_.min_hold_decisions == 0) config_.min_hold_decisions = 1;
  if (metrics_ != nullptr) {
    decisions_counter_ = &metrics_->counter("planner.decisions");
    switches_counter_ = &metrics_->counter("planner.switches");
  }
}

PlannerMetricSnapshot AdaptivePlanner::observe() {
  PlannerMetricSnapshot snap;
  const std::uint64_t in = counter_value(source_, "engine.shuffle.records_in");
  const std::uint64_t out = counter_value(source_, "engine.shuffle.records_out");
  const std::uint64_t bytes = counter_value(source_, "engine.shuffle.bytes");
  const std::uint64_t spill = counter_value(source_, "engine.shuffle.spill_bytes");

  std::lock_guard lock(mu_);
  snap.shuffle_records_in = in - std::min(in, last_records_in_);
  snap.shuffle_records_out = out - std::min(out, last_records_out_);
  snap.shuffle_bytes = bytes - std::min(bytes, last_bytes_);
  snap.spill_bytes = spill - std::min(spill, last_spill_bytes_);
  last_records_in_ = in;
  last_records_out_ = out;
  last_bytes_ = bytes;
  last_spill_bytes_ = spill;

  snap.merge_skew = gauge_value(source_, "engine.shuffle.merge_skew", 1.0);
  snap.queue_depth = gauge_value(source_, "engine.pool.queue_depth", 0.0);
  if (source_ != nullptr) {
    if (const obs::HistogramMetric* h = source_->find_histogram("engine.task_time_s")) {
      const auto stats = h->stats();
      snap.task_time_p50 = stats.p50;
      snap.task_time_p95 = stats.p95;
    }
  }
  return snap;
}

template <typename T>
bool AdaptivePlanner::flip_locked(StageState& st, Knob knob, T& cur, const T& want) {
  if (cur == want) return false;
  if (st.last_switch[knob] != 0 &&
      st.decisions - st.last_switch[knob] < config_.min_hold_decisions) {
    return false;  // hold window still open: keep the previous decision
  }
  cur = want;
  st.last_switch[knob] = st.decisions;
  ++switches_;
  if (switches_counter_ != nullptr) switches_counter_->add(1);
  return true;
}

engine::StagePlan AdaptivePlanner::decide(const PlannerMetricSnapshot& snap,
                                          const engine::StageTraits& traits) {
  std::lock_guard lock(mu_);
  return decide_locked(snap, traits);
}

engine::StagePlan AdaptivePlanner::decide_locked(const PlannerMetricSnapshot& snap,
                                                 const engine::StageTraits& traits) {
  StageState& st = stages_[traits.name];
  ++st.decisions;
  const double alpha = config_.ewma_alpha;

  // Fold the snapshot into the engine-wide smoothed signals.
  if (snap.has_shuffle_sample()) {
    const double collapse = static_cast<double>(snap.shuffle_records_out) /
                            static_cast<double>(snap.shuffle_records_in);
    blend(signals_.ewma_collapse, collapse, alpha, signals_.have_shuffle);
    blend(signals_.ewma_bytes, static_cast<double>(snap.shuffle_bytes), alpha,
          signals_.have_shuffle);
    blend(signals_.ewma_spill, static_cast<double>(snap.spill_bytes), alpha,
          signals_.have_shuffle);
    signals_.have_shuffle = true;
    if (snap.merge_skew >= 1.0) {
      blend(signals_.ewma_skew, snap.merge_skew, alpha, signals_.have_skew);
      signals_.have_skew = true;
    }
  }
  if (snap.has_task_sample()) {
    blend(signals_.ewma_tail, snap.task_time_p95 / snap.task_time_p50, alpha,
          signals_.have_tail);
    signals_.have_tail = true;
  }

  // Combiner: pay for the map-side pass only when keys actually collapse.
  // Gated on order-insensitivity (stage_plan.hpp determinism contract).
  if (traits.order_insensitive && signals_.have_shuffle) {
    std::optional<bool> want = st.combine;
    if (signals_.ewma_collapse <= config_.combine_enable_ratio) {
      want = true;
    } else if (signals_.ewma_collapse >= config_.combine_disable_ratio) {
      want = false;
    }
    flip_locked(st, kCombine, st.combine, want);
  }

  // Route: width 1 for small shuffles (sticky until the volume reaches
  // the band's top), else the skew-indexed volume width.
  if (traits.allow_repartition && signals_.have_shuffle) {
    std::size_t want = 0;  // keep the default when the volume ladder is off
    if (config_.target_partition_bytes > 0) {
      // Volume-proportional width (one bucket per target_partition_bytes
      // of shipped data), multiplied by the largest ladder rung the
      // smoothed skew has reached — the ~1.05 skew every finite sample
      // shows stays on rung 1 and adds nothing.
      double rung = 1.0;
      for (const double m : config_.partition_ladder) {
        if (m <= signals_.ewma_skew) rung = m;
      }
      const double demand =
          signals_.ewma_bytes / static_cast<double>(config_.target_partition_bytes) * rung;
      want = quantize_width(demand, config_.max_partitions);
    }
    const double bytes = signals_.ewma_bytes;
    const bool small = st.partitions == 1
                           ? bytes < static_cast<double>(config_.small_shuffle_high_bytes)
                           : bytes <= static_cast<double>(config_.small_shuffle_low_bytes);
    if (small) want = 1;
    flip_locked(st, kRoute, st.partitions, want);
  }

  // Speculation: engage on a heavy task-time tail. Content-preserving by
  // exactly-once body completion, so only gated on the traits switch.
  if (traits.allow_speculation && signals_.have_tail) {
    std::optional<bool> want = st.speculate;
    if (signals_.ewma_tail >= config_.speculation_tail_high) {
      want = true;
    } else if (signals_.ewma_tail <= config_.speculation_tail_low) {
      want = false;
    }
    flip_locked(st, kSpeculate, st.speculate, want);
  }

  // Spill budget hint: advisory cap once the engine is observed spilling.
  if (traits.allow_spill_hint && config_.spill_budget_bytes > 0 &&
      signals_.have_shuffle) {
    bool want = st.spill_hint;
    if (signals_.ewma_spill >= static_cast<double>(config_.spill_high_bytes)) {
      want = true;
    } else if (signals_.ewma_spill <= static_cast<double>(config_.spill_low_bytes)) {
      want = false;
    }
    flip_locked(st, kSpill, st.spill_hint, want);
  }

  engine::StagePlan plan;
  plan.decision_seq = ++decision_seq_;
  if (traits.order_insensitive) plan.combine = st.combine;
  if (st.partitions != traits.default_partitions) plan.partitions = st.partitions;
  if (traits.allow_speculation) plan.speculate = st.speculate;
  if (st.spill_hint) plan.spill_budget_bytes = config_.spill_budget_bytes;
  return plan;
}

engine::StagePlan AdaptivePlanner::plan_for(const engine::StageTraits& traits) {
  const PlannerMetricSnapshot snap = observe();
  std::lock_guard lock(mu_);
  const engine::StagePlan plan = decide_locked(snap, traits);
  if (decisions_counter_ != nullptr) decisions_counter_->add(1);
  export_locked(traits, plan);
  return plan;
}

void AdaptivePlanner::export_locked(const engine::StageTraits& traits,
                                    const engine::StagePlan& plan) {
  const auto tri = [](const std::optional<bool>& v) {
    return !v.has_value() ? -1.0 : (*v ? 1.0 : 0.0);
  };
  if (metrics_ != nullptr) {
    const std::string prefix = "planner." + traits.name + ".";
    metrics_->gauge(prefix + "combine").set(tri(plan.combine));
    metrics_->gauge(prefix + "partitions")
        .set(static_cast<double>(plan.partitions != 0 ? plan.partitions
                                                      : traits.default_partitions));
    metrics_->gauge(prefix + "speculate").set(tri(plan.speculate));
    metrics_->gauge(prefix + "spill_budget")
        .set(static_cast<double>(plan.spill_budget_bytes.value_or(0)));
  }
  if (tracer_ != nullptr) {
    tracer_->event("planner.decide",
                   {{"stage", traits.name},
                    {"plan", plan.summary()},
                    {"seq", plan.decision_seq},
                    {"collapse", signals_.ewma_collapse},
                    {"bytes", signals_.ewma_bytes},
                    {"skew", signals_.ewma_skew},
                    {"tail", signals_.ewma_tail},
                    {"spill", signals_.ewma_spill}});
  }
}

std::vector<engine::StagePlan> AdaptivePlanner::reachable_plans(
    const AdaptivePlannerConfig& config, const engine::StageTraits& traits) {
  std::vector<std::optional<bool>> combine_opts = {std::nullopt};
  if (traits.order_insensitive) {
    combine_opts.push_back(true);
    combine_opts.push_back(false);
  }

  // Partition widths; 0 = keep the default.
  std::vector<std::size_t> route_opts = {0};
  if (traits.allow_repartition) {
    // Width 1 (the small-shuffle band) plus every power of two
    // quantize_width() can produce when the volume ladder is on.
    const std::size_t top = config.target_partition_bytes > 0
                                ? quantize_width(static_cast<double>(config.max_partitions),
                                                 config.max_partitions)
                                : 1;
    for (std::size_t parts = 1; parts <= top; parts *= 2) {
      if (parts != traits.default_partitions) route_opts.push_back(parts);
    }
  }

  std::vector<std::optional<bool>> spec_opts = {std::nullopt};
  if (traits.allow_speculation) {
    spec_opts.push_back(true);
    spec_opts.push_back(false);
  }

  std::vector<std::optional<std::size_t>> spill_opts = {std::nullopt};
  if (traits.allow_spill_hint && config.spill_budget_bytes > 0) {
    spill_opts.push_back(config.spill_budget_bytes);
  }

  std::vector<engine::StagePlan> out;
  std::set<std::string> seen;
  for (const auto& combine : combine_opts) {
    for (const std::size_t parts : route_opts) {
      for (const auto& spec : spec_opts) {
        for (const auto& spill : spill_opts) {
          engine::StagePlan plan;
          plan.combine = combine;
          plan.partitions = parts;
          plan.speculate = spec;
          if (spill.has_value()) plan.spill_budget_bytes = *spill;
          if (seen.insert(plan.summary()).second) out.push_back(plan);
        }
      }
    }
  }
  return out;
}

AdaptivePlanner::Status AdaptivePlanner::status() const {
  std::lock_guard lock(mu_);
  Status s;
  s.decisions = decision_seq_;
  s.switches = switches_;
  return s;
}

}  // namespace dias::runtime
