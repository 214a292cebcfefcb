#include "core/tenant.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dias::core {
namespace {

constexpr double kLn2 = 0.6931471805599453;

}  // namespace

const char* to_string(TenantAction action) {
  switch (action) {
    case TenantAction::kNone: return "none";
    case TenantAction::kBurst: return "burst";
    case TenantAction::kDeflate: return "deflate";
    case TenantAction::kDeprioritize: return "deprioritize";
    case TenantAction::kShed: return "shed";
  }
  return "unknown";
}

FairShareLedger::FairShareLedger(FairShareOptions options)
    : options_(std::move(options)) {
  DIAS_EXPECTS(options_.capacity_slots > 0.0, "ledger capacity must be positive");
  DIAS_EXPECTS(options_.usage_halflife_s > 0.0, "usage half-life must be positive");
  DIAS_EXPECTS(options_.burst_credit_s >= 0.0, "burst credits must be >= 0");
  DIAS_EXPECTS(options_.credit_refill_per_s >= 0.0, "credit refill must be >= 0");
  DIAS_EXPECTS(options_.deprioritize_ratio >= 1.0 &&
                   options_.shed_ratio >= options_.deprioritize_ratio,
               "ladder ratios must satisfy 1 <= deprioritize <= shed");
  DIAS_EXPECTS(options_.default_weight > 0.0, "default weight must be positive");
  tau_s_ = options_.usage_halflife_s / kLn2;
}

FairShareLedger::TenantState& FairShareLedger::get_or_create_locked(TenantId tenant,
                                                                    double now_s) {
  auto [it, inserted] = tenants_.try_emplace(tenant.value);
  if (inserted) {
    it->second.weight = options_.default_weight;
    it->second.credits = options_.burst_credit_s;
    it->second.last_s = now_s;
  }
  return it->second;
}

double FairShareLedger::fair_rate(double weight) const {
  std::lock_guard lock(mu_);
  return fair_rate_locked(weight);
}

double FairShareLedger::fair_rate_locked(double weight) const {
  // Alone (or nearly): full share.
  if (total_active_weight_ <= weight) return options_.capacity_slots;
  return options_.capacity_slots * weight / total_active_weight_;
}

void FairShareLedger::set_active_locked(TenantState& state, bool active) {
  if (state.active == active) return;
  state.active = active;
  total_active_weight_ += active ? state.weight : -state.weight;
}

void FairShareLedger::refresh_locked(TenantState& state, double now_s) {
  const double dt = now_s - state.last_s;
  if (dt <= 0.0) return;
  state.usage *= std::exp(-dt / tau_s_);
  const double rate = state.usage / tau_s_;
  const double fair = fair_rate_locked(state.weight);
  if (rate > fair) {
    // Spending the burst: charge the excess slot-time over the interval.
    state.credits = std::max(0.0, state.credits - (rate - fair) * dt);
  } else {
    state.credits = std::min(options_.burst_credit_s,
                             state.credits + options_.credit_refill_per_s * dt);
  }
  state.last_s = now_s;
  set_active_locked(state, rate > options_.activity_floor * options_.capacity_slots);
}

void FairShareLedger::project(const TenantState& state, double now_s, double& rate,
                              double& credits) const {
  const double dt = std::max(0.0, now_s - state.last_s);
  const double usage = state.usage * std::exp(-dt / tau_s_);
  rate = usage / tau_s_;
  const double fair = fair_rate_locked(state.weight);
  credits = rate > fair
                ? std::max(0.0, state.credits - (rate - fair) * dt)
                : std::min(options_.burst_credit_s,
                           state.credits + options_.credit_refill_per_s * dt);
}

TenantAction FairShareLedger::ladder(double rate, double credits, double weight) const {
  const double fair = fair_rate_locked(weight);
  if (rate <= fair) return TenantAction::kNone;
  if (credits > 0.0) return TenantAction::kBurst;
  if (rate > options_.shed_ratio * fair) return TenantAction::kShed;
  if (rate > options_.deprioritize_ratio * fair) return TenantAction::kDeprioritize;
  return TenantAction::kDeflate;
}

void FairShareLedger::set_weight(TenantId tenant, double weight) {
  DIAS_EXPECTS(tenant.has_value(), "tenant id 0 is reserved for 'no tenant'");
  DIAS_EXPECTS(weight > 0.0, "tenant weight must be positive");
  std::lock_guard lock(mu_);
  TenantState& state = get_or_create_locked(tenant, 0.0);
  if (state.active) total_active_weight_ += weight - state.weight;
  state.weight = weight;
}

TenantAction FairShareLedger::on_submit(TenantId tenant, double now_s) {
  DIAS_EXPECTS(tenant.has_value(), "tenant id 0 is reserved for 'no tenant'");
  std::lock_guard lock(mu_);
  TenantState& state = get_or_create_locked(tenant, now_s);
  refresh_locked(state, now_s);
  return ladder(state.usage / tau_s_, state.credits, state.weight);
}

void FairShareLedger::note_completion(TenantId tenant, double service_s, double now_s) {
  DIAS_EXPECTS(tenant.has_value(), "tenant id 0 is reserved for 'no tenant'");
  DIAS_EXPECTS(service_s >= 0.0, "service time must be >= 0");
  std::lock_guard lock(mu_);
  TenantState& state = get_or_create_locked(tenant, now_s);
  refresh_locked(state, now_s);
  state.usage += service_s;
  set_active_locked(state,
                    state.usage / tau_s_ >
                        options_.activity_floor * options_.capacity_slots);
}

FairShareLedger::Summary FairShareLedger::summary(double now_s) const {
  Summary out;
  std::vector<double> shares;  // usage_rate / weight of active tenants
  std::lock_guard lock(mu_);
  out.tracked = tenants_.size();
  for (const auto& [id, state] : tenants_) {
    double rate = 0.0, credits = 0.0;
    project(state, now_s, rate, credits);
    if (rate <= options_.activity_floor * options_.capacity_slots) continue;
    ++out.active;
    shares.push_back(rate / state.weight);
    if (rate > fair_rate_locked(state.weight) && credits <= 0.0) ++out.over_quota;
  }
  out.fairness_index = jain_index(shares);
  return out;
}

std::vector<FairShareLedger::TenantStat> FairShareLedger::stats(double now_s) const {
  std::vector<TenantStat> out;
  std::lock_guard lock(mu_);
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) {
    TenantStat stat;
    stat.tenant = TenantId{id};
    stat.weight = state.weight;
    project(state, now_s, stat.usage_rate, stat.credits_s);
    stat.level = ladder(stat.usage_rate, stat.credits_s, state.weight);
    out.push_back(stat);
  }
  return out;
}

double FairShareLedger::jain_index(std::span<const double> xs) {
  if (xs.size() < 2) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace dias::core
