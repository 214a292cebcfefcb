// Multi-tenant fair-share accounting for the sharded dispatcher (ISSUE 7).
//
// A tenant is an opaque id layered *over* priority classes: one tenant may
// submit jobs of several classes, and one class serves many tenants. The
// FairShareLedger tracks, per tenant, the long-term consumed slot-time as a
// decaying integral (an EWMA rate) and a refillable burst-credit balance,
// following the burstiness-fairness tradeoff of BoPF (Chen et al.) and the
// multi-user Spark fairness study (PAPERS.md): a tenant whose long-term
// rate stays within its fair share keeps full credits and zero-penalty
// latency; a tenant bursting *above* its share spends credits while the
// burst lasts (still zero penalty — that is the point of credits); only
// when the credits are gone does the over-quota ladder engage, and it
// escalates in the differential-approximation spirit — degrade before you
// drop:
//
//   kDeflate      -> the job still runs, at a raised drop ratio (theta
//                    floor), so the tenant pays in accuracy first;
//   kDeprioritize -> the job is queued behind its class's compliant work;
//   kShed         -> the job is turned away with a terminal kShed record.
//
// Thread-safety: one mutex guards the tenant table and the total active
// weight. The ledger keeps its own lock (the dispatcher consults it
// outside its own mutex, and callers may set weights through
// tenant_ledger() while jobs run). All clock inputs are caller-provided
// seconds (the dispatcher passes its epoch-relative now_s()), which keeps
// the ledger deterministic under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace dias::core {

// Opaque tenant identity. value == 0 is "no tenant": such jobs bypass the
// ledger entirely (the PR-5/6 single-tenant behavior).
struct TenantId {
  std::uint64_t value = 0;
  constexpr bool has_value() const { return value != 0; }
  friend constexpr bool operator==(TenantId a, TenantId b) { return a.value == b.value; }
  friend constexpr bool operator!=(TenantId a, TenantId b) { return a.value != b.value; }
};

// What the ledger decided for one submission (the over-quota ladder).
// kNone: within fair share. kBurst: above share but covered by credits —
// treated exactly like kNone by the dispatcher, recorded for observability.
enum class TenantAction { kNone, kBurst, kDeflate, kDeprioritize, kShed };

const char* to_string(TenantAction action);

struct FairShareOptions {
  // Slot-seconds per second the plant offers (1.0 = the dispatcher's
  // single non-preemptive runner). Fair share of a tenant with weight w is
  // capacity_slots * w / (total weight of active tenants).
  double capacity_slots = 1.0;
  // Half-life of the consumed-slot-time integral; the tenant's "long-term
  // rate" is the integral divided by the mean lifetime tau = T½/ln2.
  double usage_halflife_s = 5.0;
  // Burst-credit balance ceiling (slot-seconds of *excess over fair
  // share*), also the initial balance of a new tenant.
  double burst_credit_s = 0.5;
  // Credits regained per second while the tenant is at or under its share.
  double credit_refill_per_s = 0.05;
  // Ladder thresholds once credits are exhausted, as multiples of the fair
  // rate: (fair, deprioritize_ratio*fair] -> kDeflate;
  // (deprioritize_ratio*fair, shed_ratio*fair] -> kDeprioritize;
  // above shed_ratio*fair -> kShed.
  double deprioritize_ratio = 2.0;
  double shed_ratio = 4.0;
  // A tenant counts as "active" (and its weight in the fair-share
  // denominator) while its rate exceeds this fraction of capacity.
  double activity_floor = 1e-4;
  // Weight assigned to tenants never seen by set_weight().
  double default_weight = 1.0;
};

class FairShareLedger {
 public:
  explicit FairShareLedger(FairShareOptions options = {});
  FairShareLedger(const FairShareLedger&) = delete;
  FairShareLedger& operator=(const FairShareLedger&) = delete;

  // Declares a tenant's relative weight (creates the tenant if new).
  void set_weight(TenantId tenant, double weight);

  // Admission-time consult: refreshes decay and credits, then returns the
  // ladder action for a job arriving now. tenant must have a value.
  TenantAction on_submit(TenantId tenant, double now_s);

  // Charges `service_s` consumed slot-seconds to the tenant.
  void note_completion(TenantId tenant, double service_s, double now_s);

  struct TenantStat {
    TenantId tenant;
    double weight = 1.0;
    double usage_rate = 0.0;  // consumed slot-time per second, decayed
    double credits_s = 0.0;
    TenantAction level = TenantAction::kNone;
  };
  struct Summary {
    std::size_t tracked = 0;      // tenants ever seen
    std::size_t active = 0;       // rate above the activity floor
    std::size_t over_quota = 0;   // over fair share with credits exhausted
    // Jain fairness index of usage_rate/weight across active tenants
    // (1.0 when fewer than two are active).
    double fairness_index = 1.0;
  };

  // Aggregate view (walks every tenant; intended for sampler cadence, not
  // per-submit). Non-mutating: decay is applied to the *returned* values
  // only, so a summary never perturbs credit accounting.
  Summary summary(double now_s) const;
  // Per-tenant view, same staleness contract. Order is unspecified.
  std::vector<TenantStat> stats(double now_s) const;

  // Fair consumed-slot-time rate for a tenant of `weight` right now.
  double fair_rate(double weight) const;

  const FairShareOptions& options() const { return options_; }

  // Jain's fairness index (sum x)^2 / (n * sum x^2); 1.0 for n < 2 or all
  // zeros. Values in (0, 1], 1 = perfectly even.
  static double jain_index(std::span<const double> xs);

 private:
  struct TenantState {
    double weight = 1.0;
    double usage = 0.0;    // decayed integral of consumed slot-seconds
    double credits = 0.0;
    double last_s = 0.0;
    bool active = false;
  };
  TenantState& get_or_create_locked(TenantId tenant, double now_s);
  double fair_rate_locked(double weight) const;
  // Applies decay + credit charge/refill for the interval since last_s.
  void refresh_locked(TenantState& state, double now_s);
  // Rate/credits as refresh_locked would leave them, without mutating.
  void project(const TenantState& state, double now_s, double& rate,
               double& credits) const;
  TenantAction ladder(double rate, double credits, double weight) const;
  void set_active_locked(TenantState& state, bool active);

  FairShareOptions options_;
  double tau_s_ = 1.0;  // usage mean lifetime = halflife / ln2
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, TenantState> tenants_;  // guarded by mu_
  double total_active_weight_ = 0.0;                         // guarded by mu_
};

}  // namespace dias::core
