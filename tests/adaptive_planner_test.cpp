// Unit and property tests for runtime::AdaptivePlanner (ISSUE 8).
//
// The planner's contract has three parts, each pinned here:
//   1. knob semantics — each smoothed signal drives exactly one knob
//      through a two-sided band, and traits mask knobs the stage forbids;
//   2. stability — min-hold plus the bands mean an input oscillating
//      around a threshold flips a knob at most once per hold window (the
//      flap regression of the ISSUE satellite list);
//   3. determinism — decide() is a pure function of the snapshot sequence
//      (fixed stream => fixed plan sequence), and every emitted plan is a
//      member of reachable_plans(), which the determinism battery sweeps.
#include "runtime/adaptive_planner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dias::runtime {
namespace {

using engine::StagePlan;
using engine::StageTraits;

AdaptivePlannerConfig test_config() {
  AdaptivePlannerConfig cfg;
  cfg.workers = 4;
  cfg.ewma_alpha = 1.0;  // no smoothing: thresholds act on raw samples
  cfg.min_hold_decisions = 1;
  cfg.small_shuffle_low_bytes = 1000;
  cfg.small_shuffle_high_bytes = 4000;
  // One output bucket per 50 kB of shipped data; the default snap() volume
  // of 2000 bytes quantizes to width 1.
  cfg.target_partition_bytes = 50000;
  cfg.spill_budget_bytes = 0;
  return cfg;
}

StageTraits open_traits() {
  StageTraits t;
  t.name = "stage";
  t.default_partitions = 4;
  t.order_insensitive = true;
  return t;
}

// Snapshot helper: `collapse` sets records_out/records_in, `bytes` the
// shuffle volume; tail/skew/spill default to neutral.
PlannerMetricSnapshot snap(double collapse, std::uint64_t bytes = 2000) {
  PlannerMetricSnapshot s;
  s.shuffle_records_in = 1000;
  s.shuffle_records_out = static_cast<std::uint64_t>(collapse * 1000.0);
  s.shuffle_bytes = bytes;
  return s;
}

TEST(AdaptivePlannerTest, NoSignalsMeansIdentityPlan) {
  AdaptivePlanner planner(nullptr, test_config());
  const StagePlan plan = planner.plan_for(open_traits());
  EXPECT_TRUE(plan.is_identity()) << plan.summary();
}

TEST(AdaptivePlannerTest, CombinerFollowsCollapseRatioWithDeadBand) {
  AdaptivePlanner planner(nullptr, test_config());
  const StageTraits traits = open_traits();
  // Strong collapse: combiner pays.
  EXPECT_EQ(planner.decide(snap(0.1), traits).combine, std::optional<bool>(true));
  // Dead band between enable (0.5) and disable (0.75): keep the decision.
  EXPECT_EQ(planner.decide(snap(0.6), traits).combine, std::optional<bool>(true));
  // No collapse: combiner is overhead.
  EXPECT_EQ(planner.decide(snap(0.95), traits).combine, std::optional<bool>(false));
  // Dead band again: stays off.
  EXPECT_EQ(planner.decide(snap(0.6), traits).combine, std::optional<bool>(false));
}

TEST(AdaptivePlannerTest, OrderSensitiveStageNeverGetsCombinerKnob) {
  AdaptivePlanner planner(nullptr, test_config());
  StageTraits traits = open_traits();
  traits.order_insensitive = false;  // e.g. a double sum
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(planner.decide(snap(0.05), traits).combine.has_value());
  }
}

TEST(AdaptivePlannerTest, SmallShufflesRouteSingleThreaded) {
  AdaptivePlannerConfig cfg = test_config();
  // A 1 kB volume target would widen any shuffle above the band; the
  // band alone holds the width at 1 until the volume reaches its top.
  cfg.target_partition_bytes = 1000;
  AdaptivePlanner planner(nullptr, cfg);
  const StageTraits traits = open_traits();  // default width 4
  EXPECT_EQ(planner.decide(snap(0.7, 500), traits).partitions, 1u);
  // Sticky inside the band (the volume ladder alone would ask for 2)...
  EXPECT_EQ(planner.decide(snap(0.7, 2000), traits).partitions, 1u);
  // ...and released above it: 5 kB / 1 kB -> width 8.
  EXPECT_EQ(planner.decide(snap(0.7, 5000), traits).partitions, 8u);
  // Re-entering the band from above follows the volume ladder: 2 kB -> 2.
  EXPECT_EQ(planner.decide(snap(0.7, 2000), traits).partitions, 2u);
}

TEST(AdaptivePlannerTest, SingleThreadMaskedByTraits) {
  AdaptivePlanner planner(nullptr, test_config());
  StageTraits traits = open_traits();
  traits.allow_repartition = false;
  const StagePlan plan = planner.decide(snap(0.7, 10), traits);
  EXPECT_EQ(plan.partitions, 0u) << plan.summary();
}

TEST(AdaptivePlannerTest, PartitionWidthTracksShippedVolumeTimesSkewRung) {
  AdaptivePlanner planner(nullptr, test_config());
  const StageTraits traits = open_traits();  // default width 4
  auto skewed = [](double skew, std::uint64_t bytes) {
    PlannerMetricSnapshot s = snap(0.7, bytes);
    s.merge_skew = skew;
    return s;
  };
  // 175 kB / 50 kB target = demand 3.5, quantized up to width 4 ==
  // default -> no override emitted. Mild skew sits on rung 1.0 and adds
  // nothing (the ladder rounds *down*, so 1.8 stays on rung 1 too).
  EXPECT_EQ(planner.decide(skewed(1.0, 175000), traits).partitions, 0u);
  EXPECT_EQ(planner.decide(skewed(1.8, 175000), traits).partitions, 0u);
  // Small shipped volume narrows below the default: demand 0.4 -> width 1
  // (from the volume ladder — 20 kB is above the small-shuffle band).
  EXPECT_EQ(planner.decide(skewed(1.0, 20000), traits).partitions, 1u);
  // Heavy skew multiplies the width: demand 3.5 * rung 4.0 -> 16.
  EXPECT_EQ(planner.decide(skewed(4.5, 175000), traits).partitions, 16u);
  // Middle rung: 3.5 * 2.0 -> 8 partitions.
  EXPECT_EQ(planner.decide(skewed(2.6, 175000), traits).partitions, 8u);
  // Repartition masked by traits.
  AdaptivePlanner masked(nullptr, test_config());
  StageTraits no_repart = open_traits();
  no_repart.allow_repartition = false;
  EXPECT_EQ(masked.decide(skewed(4.5, 175000), no_repart).partitions, 0u);
}

TEST(AdaptivePlannerTest, SpeculationFollowsTailRatio) {
  AdaptivePlanner planner(nullptr, test_config());
  const StageTraits traits = open_traits();
  auto tailed = [](double p50, double p95) {
    PlannerMetricSnapshot s;
    s.task_time_p50 = p50;
    s.task_time_p95 = p95;
    return s;
  };
  // Heavy tail (p95/p50 = 6 >= 4): speculate.
  EXPECT_EQ(planner.decide(tailed(0.1, 0.6), traits).speculate, std::optional<bool>(true));
  // Band interior (ratio 3): hold.
  EXPECT_EQ(planner.decide(tailed(0.1, 0.3), traits).speculate, std::optional<bool>(true));
  // Tight distribution (ratio 1.5 <= 2): stop speculating.
  EXPECT_EQ(planner.decide(tailed(0.1, 0.15), traits).speculate,
            std::optional<bool>(false));
  // Masked by traits.
  AdaptivePlanner masked(nullptr, test_config());
  StageTraits no_spec = open_traits();
  no_spec.allow_speculation = false;
  EXPECT_FALSE(masked.decide(tailed(0.1, 0.6), no_spec).speculate.has_value());
}

TEST(AdaptivePlannerTest, SpillHintNeedsBudgetAndObservedSpill) {
  // Budget 0 disables the knob outright.
  AdaptivePlanner off(nullptr, test_config());
  PlannerMetricSnapshot spilling = snap(0.7);
  spilling.spill_bytes = 1 << 20;
  EXPECT_FALSE(off.decide(spilling, open_traits()).spill_budget_bytes.has_value());

  AdaptivePlannerConfig cfg = test_config();
  cfg.spill_budget_bytes = 64 * 1024;
  AdaptivePlanner on(nullptr, cfg);
  EXPECT_EQ(on.decide(spilling, open_traits()).spill_budget_bytes,
            std::optional<std::size_t>(64 * 1024));
  // No spill activity: hint retracts.
  EXPECT_FALSE(on.decide(snap(0.7), open_traits()).spill_budget_bytes.has_value());
}

// Satellite: flap regression. A metric stream oscillating across both
// combiner thresholds every decision must not flip the knob more than once
// per min-hold window.
TEST(AdaptivePlannerTest, OscillatingSignalSwitchesAtMostOncePerHoldWindow) {
  AdaptivePlannerConfig cfg = test_config();
  cfg.min_hold_decisions = 5;
  AdaptivePlanner planner(nullptr, cfg);
  const StageTraits traits = open_traits();

  std::vector<std::size_t> switch_points;
  std::optional<bool> prev;
  constexpr std::size_t kDecisions = 60;
  for (std::size_t i = 0; i < kDecisions; ++i) {
    // Alternates 0.2 (below enable) / 1.0 (above disable) every call.
    const StagePlan plan = planner.decide(snap(i % 2 == 0 ? 0.2 : 1.0), traits);
    if (plan.combine != prev) switch_points.push_back(i);
    prev = plan.combine;
  }
  ASSERT_FALSE(switch_points.empty());  // the knob does engage
  for (std::size_t i = 1; i < switch_points.size(); ++i) {
    EXPECT_GE(switch_points[i] - switch_points[i - 1], cfg.min_hold_decisions)
        << "flapped between decisions " << switch_points[i - 1] << " and "
        << switch_points[i];
  }
  // And the global switch budget holds: at most one per window.
  EXPECT_LE(switch_points.size(), kDecisions / cfg.min_hold_decisions + 1);
}

// Determinism: identical snapshot streams yield identical plan sequences.
TEST(AdaptivePlannerTest, FixedSnapshotStreamYieldsFixedPlanSequence) {
  const auto run = [] {
    AdaptivePlannerConfig cfg = test_config();
    cfg.ewma_alpha = 0.4;
    cfg.min_hold_decisions = 3;
    cfg.spill_budget_bytes = 4096;
    AdaptivePlanner planner(nullptr, cfg);
    StageTraits traits = open_traits();
    Rng rng(2024);
    std::ostringstream seq;
    for (int i = 0; i < 200; ++i) {
      PlannerMetricSnapshot s;
      s.shuffle_records_in = 1000;
      s.shuffle_records_out = rng.uniform_int(1000) + 1;
      s.shuffle_bytes = rng.uniform_int(100000);
      s.spill_bytes = rng.uniform_int(3) == 0 ? rng.uniform_int(10000) : 0;
      s.merge_skew = 1.0 + rng.uniform() * 4.0;
      s.task_time_p50 = 0.01;
      s.task_time_p95 = 0.01 * (1.0 + rng.uniform() * 6.0);
      seq << planner.decide(s, traits).summary() << "\n";
    }
    return seq.str();
  };
  EXPECT_EQ(run(), run());
}

// Every plan decide() emits is a member of reachable_plans() — the closure
// the determinism battery sweeps. A plan outside the set would mean the
// battery proves nothing about live behaviour.
TEST(AdaptivePlannerTest, EmittedPlansAreAlwaysReachable) {
  AdaptivePlannerConfig cfg = test_config();
  cfg.ewma_alpha = 0.5;
  cfg.min_hold_decisions = 2;
  cfg.spill_budget_bytes = 32 * 1024;
  for (const bool order_insensitive : {true, false}) {
    StageTraits traits = open_traits();
    traits.order_insensitive = order_insensitive;
    std::set<std::string> reachable;
    for (const StagePlan& p : AdaptivePlanner::reachable_plans(cfg, traits)) {
      reachable.insert(p.summary());
    }
    AdaptivePlanner planner(nullptr, cfg);
    Rng rng(order_insensitive ? 7u : 8u);
    for (int i = 0; i < 500; ++i) {
      PlannerMetricSnapshot s;
      s.shuffle_records_in = rng.uniform_int(2) == 0 ? 0 : 1000;
      s.shuffle_records_out = rng.uniform_int(1001);
      s.shuffle_bytes = rng.uniform_int(200000);
      s.spill_bytes = rng.uniform_int(4) == 0 ? rng.uniform_int(100000) : 0;
      s.merge_skew = 1.0 + rng.uniform() * 5.0;
      s.task_time_p50 = rng.uniform_int(2) == 0 ? 0.0 : 0.01;
      s.task_time_p95 = 0.01 * (1.0 + rng.uniform() * 8.0);
      const StagePlan plan = planner.decide(s, traits);
      EXPECT_EQ(reachable.count(plan.summary()), 1u)
          << "unreachable plan emitted: " << plan.summary();
    }
  }
}

TEST(AdaptivePlannerTest, ReachablePlansRespectTraitMasks) {
  AdaptivePlannerConfig cfg = test_config();
  cfg.spill_budget_bytes = 1024;
  StageTraits locked;
  locked.name = "locked";
  locked.default_partitions = 4;
  locked.order_insensitive = false;
  locked.allow_repartition = false;
  locked.allow_speculation = false;
  locked.allow_spill_hint = false;
  const auto plans = AdaptivePlanner::reachable_plans(cfg, locked);
  ASSERT_EQ(plans.size(), 1u);  // only the identity remains
  EXPECT_TRUE(plans[0].is_identity());

  const StageTraits traits = open_traits();
  const auto open = AdaptivePlanner::reachable_plans(cfg, traits);
  EXPECT_GT(open.size(), 10u);
  std::set<std::string> seen;
  for (const StagePlan& p : open) {
    EXPECT_TRUE(seen.insert(p.summary()).second) << "duplicate " << p.summary();
  }
  // No two reachable plans may configure the shuffle identically: the
  // battery would sweep the same behaviour twice. The applied shuffle is
  // the combiner, the output width (0 keeps the stage default), the
  // speculation toggle, the buffer and the spill budget.
  std::set<std::string> applied;
  for (const StagePlan& p : open) {
    std::ostringstream key;
    key << (p.combine.has_value() ? int{*p.combine} : -1) << ' '
        << (p.partitions != 0 ? p.partitions : traits.default_partitions) << ' '
        << (p.speculate.has_value() ? int{*p.speculate} : -1) << ' '
        << p.target_buffer_bytes.value_or(0) << ' ' << p.spill_budget_bytes.value_or(0);
    EXPECT_TRUE(applied.insert(key.str()).second)
        << "plan " << p.summary() << " applies the same shuffle as an earlier plan";
  }
}

// plan_for = observe + decide + export: deltas come from the source
// registry, decisions land in the export registry and tracer.
TEST(AdaptivePlannerTest, PlanForReadsSourceAndExportsDecisions) {
  obs::Registry source;
  source.counter("engine.shuffle.records_in").add(1000);
  source.counter("engine.shuffle.records_out").add(100);  // collapse 0.1
  source.counter("engine.shuffle.bytes").add(500);        // tiny shuffle
  source.gauge("engine.shuffle.merge_skew").set(1.0);
  auto& task_hist = source.histogram("engine.task_time_s", 0.0, 10.0, 200);
  for (int i = 0; i < 99; ++i) task_hist.observe(0.05);
  task_hist.observe(0.9);  // heavy tail

  obs::Registry exported;
  obs::Tracer tracer;
  AdaptivePlanner planner(&source, test_config(), &exported, &tracer);

  const StagePlan plan = planner.plan_for(open_traits());
  EXPECT_EQ(plan.combine, std::optional<bool>(true));
  EXPECT_EQ(plan.partitions, 1u);
  EXPECT_EQ(plan.decision_seq, 1u);

  EXPECT_EQ(exported.counter("planner.decisions").value(), 1u);
  EXPECT_GE(exported.counter("planner.switches").value(), 2u);
  EXPECT_DOUBLE_EQ(exported.gauge("planner.stage.combine").value(), 1.0);
  EXPECT_DOUBLE_EQ(exported.gauge("planner.stage.partitions").value(), 1.0);
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("planner.decide"), std::string::npos);
  EXPECT_NE(jsonl.str().find("combine=on"), std::string::npos);

  // Deltas: a second plan_for with no new counter traffic sees no shuffle
  // sample and keeps (does not re-derive) its decisions.
  const StagePlan second = planner.plan_for(open_traits());
  EXPECT_EQ(second.combine, std::optional<bool>(true));
  EXPECT_EQ(planner.status().decisions, 2u);
}

TEST(AdaptivePlannerTest, ObserveComputesCounterDeltas) {
  obs::Registry source;
  auto& in = source.counter("engine.shuffle.records_in");
  auto& out = source.counter("engine.shuffle.records_out");
  in.add(500);
  out.add(400);
  AdaptivePlanner planner(&source, test_config());
  auto first = planner.observe();
  EXPECT_EQ(first.shuffle_records_in, 500u);
  EXPECT_EQ(first.shuffle_records_out, 400u);
  in.add(250);
  out.add(10);
  auto second = planner.observe();
  EXPECT_EQ(second.shuffle_records_in, 250u);
  EXPECT_EQ(second.shuffle_records_out, 10u);
  auto third = planner.observe();
  EXPECT_FALSE(third.has_shuffle_sample());
}

}  // namespace
}  // namespace dias::runtime
