// Extension: multi-tenant dispatcher with burst-credit fairness.
//
// Two phases:
//   1. Fairness sweep: 10k tenants (9000 steady + 1000 aggressive + a few
//      outright hogs) through the fair-share ledger. The ladder deflates,
//      deprioritizes, and sheds the over-quota cohorts; Jain's index over
//      each equal-demand cohort's achieved service must stay >= 0.9, and
//      per-class p99 response is reported.
//   2. Burst credits: a tenant whose burst stays within its credit balance
//      rides the normal queues (p99 close to the steady tenants); the same
//      burst with zero credits walks the deprioritize ladder instead.
//
// Each configuration emits one machine-readable line:
//   BENCH {"bench":"ext_multitenant","phase":"fairness",...}
// Exit status: non-zero when the phase-1 fairness index drops below 0.9
// (the CI quick-mode gate).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/scenarios.hpp"
#include "core/dispatcher.hpp"
#include "core/tenant.hpp"
#include "obs/json.hpp"

namespace {

using namespace dias;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Busy-spin for `s` seconds: sleep granularity on the test hosts is far
// coarser than the sub-millisecond services these phases need.
void spin_for(double s) {
  const auto until = Clock::now() + std::chrono::duration<double>(s);
  while (Clock::now() < until) {
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

// --- phase 1: 10k-tenant fairness sweep -------------------------------------

struct FairnessResult {
  double jain_steady = 0.0;
  double jain_aggressive = 0.0;
  double ledger_fairness = 1.0;
  double p99_low_s = 0.0;   // class 0: aggressive + hogs
  double p99_high_s = 0.0;  // class 1: steady
  std::uint64_t deflated = 0, deprioritized = 0, shed = 0, bursts = 0;
  double duration_s = 0.0;
};

FairnessResult run_fairness_config(std::size_t steady_n, std::size_t aggressive_n,
                                   std::size_t hog_n, double window_s,
                                   double aggressive_service) {
  // Cohort tenant ids: hogs, then aggressive, then steady.
  const std::size_t first_aggressive = hog_n + 1;
  const std::size_t first_steady = hog_n + aggressive_n + 1;
  constexpr double kSteadyService = 100e-6;
  constexpr std::size_t kAggressiveJobs = 8;
  constexpr double kHogService = 2e-3;
  constexpr std::size_t kHogJobs = 40;
  constexpr std::size_t kHogChunks = 4;

  core::DispatcherOptions opts;
  opts.tenant.enabled = true;
  // A 1 s usage halflife matches the few-second window; near-zero credits
  // so the ladder reacts inside it. The ledger budget is a quarter of the
  // plant (operators keep fair shares below raw capacity for headroom),
  // which puts each aggressive tenant ~2.5-3x over its 1/N share — the
  // deflate/deprioritize rungs — while the hogs (>10x) reach shedding.
  // The activity floor is raised so the steady cohort (far below share)
  // does not dilute the fair-share denominator.
  opts.tenant.ledger.capacity_slots = 0.25;
  opts.tenant.ledger.usage_halflife_s = 1.0;
  opts.tenant.ledger.burst_credit_s = 2e-4;
  opts.tenant.ledger.credit_refill_per_s = 1e-3;
  opts.tenant.ledger.activity_floor = 5e-4;
  opts.tenant.ledger.deprioritize_ratio = 1.5;
  opts.tenant.ledger.shed_ratio = 4.0;
  core::DiasDispatcher dispatcher({0.0, 0.0}, opts);

  const auto t0 = Clock::now();
  const auto job = [](double service) {
    return [service](double theta) { spin_for(service * (1.0 - theta)); };
  };

  // Submissions are paced across `window_s` in passes: later passes see the
  // usage that earlier completions fed into the ledger, which is what lets
  // admission-time ladder decisions engage at all. Hogs front-load their
  // demand in a few chunks instead (that is what makes them hogs).
  const std::size_t threads = 4;
  const auto pass_gap =
      std::chrono::duration<double>(window_s / (kAggressiveJobs + 1));
  std::vector<std::thread> submitters;
  submitters.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t pass = 0; pass < kAggressiveJobs; ++pass) {
        if (pass < kHogChunks) {
          for (std::size_t id = 1 + t; id <= hog_n; id += threads) {
            for (std::size_t j = 0; j < kHogJobs / kHogChunks; ++j) {
              dispatcher.submit(0, core::TenantId{id}, job(kHogService));
            }
          }
        }
        for (std::size_t id = first_aggressive + t; id < first_steady; id += threads) {
          dispatcher.submit(0, core::TenantId{id}, job(aggressive_service));
        }
        for (std::size_t i = pass; i < steady_n; i += kAggressiveJobs) {
          const std::size_t id = first_steady + i;
          if (id % threads == t % threads) {
            dispatcher.submit(1, core::TenantId{id}, job(kSteadyService));
          }
        }
        std::this_thread::sleep_for(pass_gap);
      }
    });
  }
  for (auto& th : submitters) th.join();
  const auto records = dispatcher.drain();

  FairnessResult r;
  r.duration_s = seconds_since(t0);
  const auto snap = dispatcher.load_snapshot();
  r.ledger_fairness = snap.tenant_fairness_index;
  r.deflated = snap.tenant_deflated;
  r.deprioritized = snap.tenant_deprioritized;
  r.shed = snap.tenant_shed;
  r.bursts = snap.tenant_bursts;

  // Achieved service per tenant is the *nominal* work each completed job
  // represents, service * (1 - theta): deterministic under scheduler noise,
  // and it is exactly what deflation and shedding take away.
  std::map<std::uint64_t, double> service;
  std::vector<double> low_resp, high_resp;
  for (const auto& rec : records) {
    if (rec.outcome != core::JobOutcome::kCompleted) continue;
    const double nominal = rec.tenant.value < first_aggressive ? kHogService
                           : rec.tenant.value < first_steady   ? aggressive_service
                                                               : kSteadyService;
    service[rec.tenant.value] += nominal * (1.0 - rec.theta);
    (rec.priority == 0 ? low_resp : high_resp).push_back(rec.response_s());
  }
  r.p99_low_s = percentile(low_resp, 0.99);
  r.p99_high_s = percentile(high_resp, 0.99);

  // Jain over each *equal-demand* cohort's achieved service: steady tenants
  // must be untouched, aggressive tenants must be degraded evenly.
  std::vector<double> steady_service, aggressive_service_totals;
  for (std::size_t i = 0; i < steady_n; ++i) {
    steady_service.push_back(service[first_steady + i]);
  }
  for (std::size_t i = 0; i < aggressive_n; ++i) {
    aggressive_service_totals.push_back(service[first_aggressive + i]);
  }
  r.jain_steady = core::FairShareLedger::jain_index(steady_service);
  r.jain_aggressive = core::FairShareLedger::jain_index(aggressive_service_totals);
  return r;
}

double run_fairness(bool quick) {
  const std::size_t steady_n = quick ? 900 : 9000;
  const std::size_t aggressive_n = quick ? 100 : 1000;
  const std::size_t hog_n = quick ? 5 : 20;
  // Sized so the aggressive cohort's combined demand oversubscribes the
  // single-slot plant ~1.6x inside the window — each tenant individually
  // over its 1/N fair share.
  const double window_s = quick ? 1.0 : 3.0;
  const double aggressive_service = quick ? 2e-3 : 6e-4;
  const auto r =
      run_fairness_config(steady_n, aggressive_n, hog_n, window_s, aggressive_service);
  const double fairness = std::min(r.jain_steady, r.jain_aggressive);
  std::printf("  fairness, %zu tenants (%zu aggressive, %zu hogs): "
              "Jain steady %.4f, aggressive %.4f, ledger %.4f\n"
              "    ladder: %llu deflated, %llu deprioritized, %llu shed, "
              "%llu credit bursts; p99 low %.1f ms, high %.1f ms (%.2f s)\n",
              steady_n + aggressive_n + hog_n, aggressive_n, hog_n, r.jain_steady,
              r.jain_aggressive, r.ledger_fairness,
              static_cast<unsigned long long>(r.deflated),
              static_cast<unsigned long long>(r.deprioritized),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.bursts), r.p99_low_s * 1e3,
              r.p99_high_s * 1e3, r.duration_s);
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "ext_multitenant");
  w.field("phase", "fairness");
  w.field("tenants", std::uint64_t{steady_n + aggressive_n + hog_n});
  w.field("aggressive", std::uint64_t{aggressive_n});
  w.field("hogs", std::uint64_t{hog_n});
  w.field("jain_steady", r.jain_steady);
  w.field("jain_aggressive", r.jain_aggressive);
  w.field("fairness_index", fairness);
  w.field("ledger_fairness_index", r.ledger_fairness);
  w.field("deflated", r.deflated);
  w.field("deprioritized", r.deprioritized);
  w.field("shed", r.shed);
  w.field("credit_bursts", r.bursts);
  w.field("p99_low_s", r.p99_low_s);
  w.field("p99_high_s", r.p99_high_s);
  w.field("duration_s", r.duration_s);
  w.end_object();
  std::printf("BENCH %s\n", std::move(w).str().c_str());
  return fairness;
}

// --- phase 2: burst credits -------------------------------------------------

struct BurstResult {
  double p99_steady_s = 0.0;
  double p99_bursty_s = 0.0;
  std::uint64_t bursts = 0, deflated = 0, deprioritized = 0;
};

BurstResult run_burst_config(double burst_credit_s) {
  constexpr std::size_t kSteadyTenants = 4;
  constexpr double kService = 0.7e-3;
  constexpr double kSteadyGap = 1.5e-3;  // rotating: each tenant every 6 ms
  constexpr std::size_t kSteadyJobs = 600;
  constexpr std::size_t kBurstJobs = 60;
  constexpr double kBurstGap = 1.0e-3;
  const core::TenantId bursty{99};

  core::DispatcherOptions opts;
  opts.tenant.enabled = true;
  // A 50 ms usage halflife makes the ladder see a ~60 ms burst at all;
  // with credits covering the over-share charge the burst is tolerated,
  // with zero credits it is deprioritized mid-flight.
  opts.tenant.ledger.usage_halflife_s = 0.05;
  opts.tenant.ledger.burst_credit_s = burst_credit_s;
  opts.tenant.ledger.credit_refill_per_s = burst_credit_s;
  opts.tenant.ledger.deprioritize_ratio = 1.5;
  opts.tenant.ledger.shed_ratio = 100.0;  // sheds would hide the latency story
  core::DiasDispatcher dispatcher({0.0}, opts);

  std::thread burster([&] {
    // Fire the burst a third of the way into the steady stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    for (std::size_t i = 0; i < kBurstJobs; ++i) {
      dispatcher.submit(0, bursty, [](double theta) {
        spin_for(kService * (1.0 - theta));
      });
      spin_for(kBurstGap);
    }
  });
  for (std::size_t i = 0; i < kSteadyJobs; ++i) {
    dispatcher.submit(0, core::TenantId{1 + i % kSteadyTenants},
                      [](double theta) { spin_for(kService * (1.0 - theta)); });
    spin_for(kSteadyGap);
  }
  burster.join();
  const auto records = dispatcher.drain();

  BurstResult r;
  const auto snap = dispatcher.load_snapshot();
  r.bursts = snap.tenant_bursts;
  r.deflated = snap.tenant_deflated;
  r.deprioritized = snap.tenant_deprioritized;
  std::vector<double> steady_resp, bursty_resp;
  for (const auto& rec : records) {
    if (rec.outcome != core::JobOutcome::kCompleted) continue;
    (rec.tenant == bursty ? bursty_resp : steady_resp).push_back(rec.response_s());
  }
  r.p99_steady_s = percentile(steady_resp, 0.99);
  r.p99_bursty_s = percentile(bursty_resp, 0.99);
  return r;
}

void run_burst_credits() {
  const auto with_credits = run_burst_config(0.05);
  const auto no_credits = run_burst_config(0.0);
  const double covered_ratio = with_credits.p99_bursty_s /
                               std::max(with_credits.p99_steady_s, 1e-9);
  const double uncovered_ratio =
      no_credits.p99_bursty_s / std::max(no_credits.p99_steady_s, 1e-9);
  std::printf("  burst within credits: bursty p99 %.2f ms vs steady %.2f ms "
              "(%.2fx); %llu credit-covered admissions\n",
              with_credits.p99_bursty_s * 1e3, with_credits.p99_steady_s * 1e3,
              covered_ratio, static_cast<unsigned long long>(with_credits.bursts));
  std::printf("  same burst, zero credits: bursty p99 %.2f ms vs steady %.2f ms "
              "(%.2fx); %llu deflated, %llu deprioritized\n",
              no_credits.p99_bursty_s * 1e3, no_credits.p99_steady_s * 1e3,
              uncovered_ratio, static_cast<unsigned long long>(no_credits.deflated),
              static_cast<unsigned long long>(no_credits.deprioritized));
  obs::JsonWriter w;
  w.begin_object();
  w.field("bench", "ext_multitenant");
  w.field("phase", "burst_credits");
  w.field("covered_p99_bursty_s", with_credits.p99_bursty_s);
  w.field("covered_p99_steady_s", with_credits.p99_steady_s);
  w.field("covered_p99_ratio", covered_ratio);
  w.field("covered_credit_bursts", with_credits.bursts);
  w.field("uncovered_p99_bursty_s", no_credits.p99_bursty_s);
  w.field("uncovered_p99_steady_s", no_credits.p99_steady_s);
  w.field("uncovered_p99_ratio", uncovered_ratio);
  w.field("uncovered_deflated", no_credits.deflated);
  w.field("uncovered_deprioritized", no_credits.deprioritized);
  w.end_object();
  std::printf("BENCH %s\n", std::move(w).str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::print_header(
      "Extension: multi-tenant dispatcher + burst-credit fairness");
  const double fairness = run_fairness(quick);
  std::printf("\n");
  if (!quick) run_burst_credits();

  if (fairness < 0.9) {
    std::printf("\n  FAILED: fairness index %.4f < 0.9\n", fairness);
    return 1;
  }
  std::printf("\n  expectation: the ladder keeps equal-demand cohorts\n"
              "  even (Jain >= 0.9) while degrading over-quota tenants in\n"
              "  deflate -> deprioritize -> shed order; a burst inside the\n"
              "  credit balance rides the normal queues.\n");
  return 0;
}
