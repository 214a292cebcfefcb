// FairShareLedger (ISSUE 7): per-tenant EWMA usage, burst credits, the
// over-quota ladder, weights, and Jain's fairness index. All clock inputs
// are caller-provided seconds, so every scenario here is deterministic.
#include "core/tenant.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace dias::core {
namespace {

// halflife 5 s => decaying by exactly 0.25 over 10 s, and
// tau = 5 / ln2 ~= 7.2135 s.
FairShareOptions strict_options() {
  FairShareOptions opts;
  opts.capacity_slots = 1.0;
  opts.usage_halflife_s = 5.0;
  opts.burst_credit_s = 0.5;
  opts.credit_refill_per_s = 0.05;
  opts.deprioritize_ratio = 2.0;
  opts.shed_ratio = 4.0;
  return opts;
}

TEST(TenantTest, WithinFairShareIsNone) {
  FairShareLedger ledger(strict_options());
  const TenantId t1{1};
  ledger.note_completion(t1, 1.0, 0.0);  // rate ~0.14 << capacity 1.0
  EXPECT_EQ(ledger.on_submit(t1, 0.0), TenantAction::kNone);
  const auto summary = ledger.summary(0.0);
  EXPECT_EQ(summary.tracked, 1u);
  EXPECT_EQ(summary.active, 1u);
  EXPECT_EQ(summary.over_quota, 0u);
  EXPECT_DOUBLE_EQ(summary.fairness_index, 1.0);  // < 2 active tenants
}

TEST(TenantTest, AloneGetsFullCapacityAsFairShare) {
  FairShareLedger ledger(strict_options());
  const TenantId t1{1};
  ledger.note_completion(t1, 5.0, 0.0);  // rate ~0.69 < capacity 1.0
  // A lone active tenant's fair share is the whole plant, so a rate under
  // capacity never triggers the ladder even though 0.69 > 1/n for any n>1.
  EXPECT_EQ(ledger.on_submit(t1, 0.0), TenantAction::kNone);
  EXPECT_DOUBLE_EQ(ledger.fair_rate(1.0), 1.0);
}

TEST(TenantTest, BurstCoveredByCreditsThenLadderEngages) {
  FairShareLedger ledger(strict_options());
  const TenantId t1{1}, t2{2};
  ledger.note_completion(t2, 1.0, 0.0);   // second active tenant: fair = 0.5
  ledger.note_completion(t1, 20.0, 0.0);  // rate ~2.77, way over fair
  // dt = 0 since creation: the initial 0.5 s credit balance is untouched,
  // so the burst is still covered.
  EXPECT_EQ(ledger.on_submit(t1, 0.0), TenantAction::kBurst);
  // 10 s later the over-share excess has charged (rate - fair) * dt >> 0.5,
  // the credits are gone, and the decayed rate 20*0.25/tau ~= 0.693 sits in
  // (fair, 2*fair] => deflate-first.
  EXPECT_EQ(ledger.on_submit(t1, 10.0), TenantAction::kDeflate);
}

TEST(TenantTest, LadderEscalatesWithOverQuotaRatio) {
  FairShareLedger ledger(strict_options());
  const TenantId deflate{1}, deprioritize{2}, shed{3}, small{4};
  ledger.note_completion(small, 1.0, 0.0);
  ledger.note_completion(deflate, 10.0, 0.0);
  ledger.note_completion(deprioritize, 20.0, 0.0);
  ledger.note_completion(shed, 40.0, 0.0);
  // Four active equal-weight tenants: fair = 0.25. After 10 s (decay 0.25,
  // credits exhausted by the charge), the rates are ~0.347, ~0.693 and
  // ~1.386: one in (fair, 2*fair], one in (2*fair, 4*fair], one beyond.
  EXPECT_EQ(ledger.on_submit(deflate, 10.0), TenantAction::kDeflate);
  EXPECT_EQ(ledger.on_submit(deprioritize, 10.0), TenantAction::kDeprioritize);
  EXPECT_EQ(ledger.on_submit(shed, 10.0), TenantAction::kShed);
  EXPECT_EQ(ledger.on_submit(small, 10.0), TenantAction::kNone);
  const auto summary = ledger.summary(10.0);
  EXPECT_EQ(summary.over_quota, 3u);
  EXPECT_GT(summary.fairness_index, 0.0);
  EXPECT_LT(summary.fairness_index, 1.0);
}

TEST(TenantTest, CreditsRefillWhileUnderShare) {
  FairShareLedger ledger(strict_options());
  const TenantId t1{1}, t2{2};
  ledger.note_completion(t2, 1.0, 0.0);
  ledger.note_completion(t1, 20.0, 0.0);
  ASSERT_EQ(ledger.on_submit(t1, 10.0), TenantAction::kDeflate);  // credits spent
  // 20 idle seconds decay the rate to ~0.043 << fair; the refill at
  // 0.05 credits/s restores the full 0.5 s balance (capped).
  EXPECT_EQ(ledger.on_submit(t1, 30.0), TenantAction::kNone);
  for (const auto& stat : ledger.stats(30.0)) {
    if (stat.tenant == t1) {
      EXPECT_DOUBLE_EQ(stat.credits_s, 0.5);
      EXPECT_EQ(stat.level, TenantAction::kNone);
    }
  }
}

TEST(TenantTest, SummaryAndStatsAreNonMutating) {
  FairShareLedger ledger(strict_options());
  const TenantId t1{1}, t2{2};
  ledger.note_completion(t2, 1.0, 0.0);
  ledger.note_completion(t1, 120.0, 0.0);
  // Sampling must not perturb credit accounting: the projected view at
  // t=10 says "shed", and the authoritative on_submit at t=10 agrees no
  // matter how often the view was taken.
  for (int i = 0; i < 5; ++i) {
    const auto summary = ledger.summary(10.0);
    EXPECT_EQ(summary.over_quota, 1u);
    (void)ledger.stats(10.0);
  }
  EXPECT_EQ(ledger.on_submit(t1, 10.0), TenantAction::kShed);
}

TEST(TenantTest, WeightsShiftFairShares) {
  FairShareLedger ledger(strict_options());
  const TenantId heavy{1}, light{2};
  ledger.set_weight(heavy, 3.0);
  ledger.note_completion(heavy, 1.0, 0.0);
  ledger.note_completion(light, 1.0, 0.0);
  // Active weights 3 + 1: the heavy tenant owns 3/4 of the plant.
  EXPECT_DOUBLE_EQ(ledger.fair_rate(3.0), 0.75);
  EXPECT_DOUBLE_EQ(ledger.fair_rate(1.0), 0.25);
}

TEST(TenantTest, JainIndex) {
  const std::array<double, 4> even{1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(FairShareLedger::jain_index(even), 1.0);
  const std::array<double, 4> skewed{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(FairShareLedger::jain_index(skewed), 0.25);
  const std::array<double, 2> half{1.0, 3.0};
  EXPECT_DOUBLE_EQ(FairShareLedger::jain_index(half), 16.0 / 20.0);
  EXPECT_DOUBLE_EQ(FairShareLedger::jain_index(std::array<double, 1>{2.0}), 1.0);
  EXPECT_DOUBLE_EQ(FairShareLedger::jain_index({}), 1.0);
  const std::array<double, 3> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(FairShareLedger::jain_index(zeros), 1.0);
}

void construct_ledger(void (*mutate)(FairShareOptions&)) {
  FairShareOptions opts = strict_options();
  mutate(opts);
  FairShareLedger ledger(opts);
}

TEST(TenantTest, Validation) {
  EXPECT_THROW(construct_ledger([](FairShareOptions& o) { o.capacity_slots = 0.0; }),
               dias::precondition_error);
  EXPECT_THROW(construct_ledger([](FairShareOptions& o) { o.usage_halflife_s = 0.0; }),
               dias::precondition_error);
  EXPECT_THROW(construct_ledger([](FairShareOptions& o) { o.shed_ratio = 1.5; }),
               dias::precondition_error);
  FairShareLedger ledger(strict_options());
  EXPECT_THROW(ledger.on_submit(TenantId{}, 0.0), dias::precondition_error);
  EXPECT_THROW(ledger.set_weight(TenantId{1}, 0.0), dias::precondition_error);
  EXPECT_THROW(ledger.note_completion(TenantId{1}, -1.0, 0.0), dias::precondition_error);
}

TEST(TenantTest, OneLockTableHandlesConcurrentTenants) {
  FairShareLedger ledger(strict_options());
  constexpr int kThreads = 8;
  constexpr int kTenantsPerThread = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTenantsPerThread; ++i) {
        const TenantId id{static_cast<std::uint64_t>(t * kTenantsPerThread + i + 1)};
        ledger.note_completion(id, 0.01, 0.0);
        (void)ledger.on_submit(id, 0.001);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto summary = ledger.summary(0.001);
  EXPECT_EQ(summary.tracked, static_cast<std::size_t>(kThreads * kTenantsPerThread));
  // Identical tiny usage everywhere: near-perfect fairness.
  EXPECT_GT(summary.fairness_index, 0.99);
}

}  // namespace
}  // namespace dias::core
