// Concurrent submission into the one-lock dispatcher + the multi-tenant
// ladder.
//
// Covers:
//   * drain-ordering property: round-robin submits from several threads,
//     mixed tenancy or one tenant per thread, drain byte-identically to the
//     same sequence submitted from one thread, in the predicted order
//     (highest class first, FCFS by admit seq);
//   * lost-wakeup regression for the gated cv notifies: every blocked
//     submitter is eventually admitted and every job completes;
//   * load_snapshot() during a submit storm is race-free (run under the
//     tsan label) and exact: at most the running job is in no count;
//   * the FairShareLedger over-quota ladder wired into submit():
//     deflate -> deprioritize -> shed, visible in records and metrics.
#include "core/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/tenant.hpp"
#include "obs/metrics.hpp"

namespace dias::core {
namespace {

using namespace std::chrono_literals;

struct JobKey {
  std::size_t priority;
  std::uint64_t seq;
  std::uint64_t tenant;
  bool operator==(const JobKey&) const = default;
};

std::vector<JobKey> keys_of(const std::vector<DiasDispatcher::JobRecord>& records) {
  std::vector<JobKey> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back({r.priority, r.seq, r.tenant.value});
  return out;
}

// Submits the same randomized sequence into two dispatchers (runners
// plugged so everything queues): concurrently from round-robin threads into
// one, and from this thread alone -- a single submission lane -- into the
// other. With `tenant_affine` every job carries its submitter's tenant;
// otherwise tenanted and untenanted jobs are mixed at random. Asserts the drains are byte-identical and match the documented
// order: the plug first, then highest class first, FCFS by admit seq within
// a class.
void run_drain_order_round(unsigned seed, bool tenant_affine) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kJobsPerThread = 30;
  constexpr std::size_t kClasses = 3;

  DiasDispatcher concurrent({0.1, 0.2, 0.3});
  DiasDispatcher single({0.1, 0.2, 0.3});

  // Plug both runners with a top-class job so every later submission is
  // still queued when the interleaving finishes.
  std::atomic<bool> release{false};
  std::atomic<int> plugs_running{0};
  for (DiasDispatcher* d : {&concurrent, &single}) {
    d->submit(kClasses - 1, [&](double) {
      plugs_running.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(100us);
    });
  }
  while (plugs_running.load() < 2) std::this_thread::sleep_for(100us);

  // Pre-generated random priorities; the interleaving itself is a strict
  // round-robin over the submitter threads, so both dispatchers see the
  // identical global submission order (and assign identical admit seqs).
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick_class(0, kClasses - 1);
  std::bernoulli_distribution tenanted(0.5);
  std::vector<std::size_t> priorities(kThreads * kJobsPerThread);
  std::vector<bool> with_tenant(kThreads * kJobsPerThread);
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    priorities[i] = pick_class(rng);
    with_tenant[i] = tenant_affine || tenanted(rng);
  }
  // Tenanted jobs carry their submitter thread's tenant (no ledger: id only).
  const auto tenant_of = [&](std::size_t turn) {
    return with_tenant[turn] ? TenantId{turn % kThreads + 1} : TenantId{};
  };

  std::atomic<std::size_t> turn{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kJobsPerThread; ++i) {
        const std::size_t my_turn = i * kThreads + t;
        while (turn.load(std::memory_order_acquire) != my_turn) {
          std::this_thread::yield();
        }
        concurrent.submit(priorities[my_turn], tenant_of(my_turn), [](double) {});
        turn.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (std::size_t k = 0; k < priorities.size(); ++k) {
    single.submit(priorities[k], tenant_of(k), [](double) {});
  }
  for (auto& th : submitters) th.join();
  release = true;

  const auto concurrent_records = concurrent.drain();
  const auto single_records = single.drain();
  ASSERT_EQ(concurrent_records.size(), kThreads * kJobsPerThread + 1);
  ASSERT_EQ(single_records.size(), kThreads * kJobsPerThread + 1);

  const auto concurrent_keys = keys_of(concurrent_records);
  const auto single_keys = keys_of(single_records);
  EXPECT_EQ(concurrent_keys, single_keys)
      << "concurrent drain diverged from single-lane, seed " << seed;

  // Both must equal the predicted order outright. The k-th submission drew
  // admit seq k + 1 (the plug has 0); the plug completes first, and the
  // rest were all queued at release, so they execute highest class first,
  // FCFS by admit seq within the class.
  std::vector<JobKey> predicted;
  predicted.push_back({kClasses - 1, 0, 0});
  for (std::size_t k = 0; k < priorities.size(); ++k) {
    predicted.push_back({priorities[k], k + 1, tenant_of(k).value});
  }
  std::sort(predicted.begin() + 1, predicted.end(), [](const JobKey& a, const JobKey& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq < b.seq;
  });
  EXPECT_EQ(concurrent_keys, predicted) << "seed " << seed;
}

TEST(DispatcherShardTest, DrainOrderIsByteIdenticalToSingleLane) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    run_drain_order_round(seed, /*tenant_affine=*/false);
  }
}

TEST(DispatcherShardTest, DrainOrderIsByteIdenticalWithTenantAffineLanes) {
  for (unsigned seed = 11; seed <= 14; ++seed) {
    run_drain_order_round(seed, /*tenant_affine=*/true);
  }
}

// Satellite: the completion path notifies space/drain cvs only when the
// corresponding predicate can have flipped. A lost wakeup would leave a
// blocked submitter waiting forever; this hammers tight queue, total, and
// memory caps from many threads and requires every job to be admitted
// (kBlock never rejects) and to complete.
TEST(DispatcherShardTest, BlockedSubmittersAllEventuallyAdmitted) {
  DispatcherOptions opts;
  opts.admission = AdmissionPolicy::kBlock;
  opts.total_capacity = 4;
  opts.classes = {ClassPolicy{2, std::numeric_limits<double>::infinity()},
                  ClassPolicy{3, std::numeric_limits<double>::infinity()}};
  opts.memory_capacity_bytes = 4096;
  DiasDispatcher dispatcher({0.0, 0.0}, opts);

  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 50;
  std::atomic<int> runs{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        // Heterogeneous footprints so several blocked submitters wait on
        // different memory predicates at once (the notify_all-for-space
        // case).
        const std::size_t mem = static_cast<std::size_t>(((t + i) % 3) * 512);
        if (dispatcher.submit(static_cast<std::size_t>(i % 2),
                              [&](double) { runs.fetch_add(1); },
                              mem) == Admission::kAdmitted) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto records = dispatcher.drain();
  EXPECT_EQ(admitted.load(), kThreads * kJobsPerThread);
  EXPECT_EQ(runs.load(), kThreads * kJobsPerThread);
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kThreads * kJobsPerThread));
  for (const auto& r : records) EXPECT_EQ(r.outcome, JobOutcome::kCompleted);
}

// Satellite: load_snapshot() under a submit storm. Under tsan this asserts
// the snapshot races with nothing. Every snapshot is exact: each arrival
// is either in a terminal count, still queued, or the one running job;
// and the queued jobs' declared footprints are part of the memory in use
// (which also covers the running job's).
TEST(DispatcherShardTest, SnapshotDuringSubmitStormIsConsistent) {
  DiasDispatcher dispatcher({0.0, 0.0});

  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 400;
  std::atomic<bool> storm_done{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        dispatcher.submit(static_cast<std::size_t>(i % 2),
                          TenantId{static_cast<std::uint64_t>(t % 3 + 1)},
                          [](double) {}, static_cast<std::size_t>(64 + i % 7));
      }
    });
  }
  while (!storm_done.load()) {
    const auto snap = dispatcher.load_snapshot();
    std::uint64_t arrivals = 0;
    std::uint64_t accounted = 0;
    std::size_t queued_memory = 0;
    for (const auto& c : snap.classes) {
      arrivals += c.arrivals;
      accounted += c.completed + c.shed + c.cancelled + c.failed + c.queue_depth;
      queued_memory += c.queued_memory_bytes;
    }
    ASSERT_GE(arrivals, accounted);
    EXPECT_LE(arrivals - accounted, 1u) << "only the running job may be uncounted";
    EXPECT_LE(queued_memory, snap.memory_in_use_bytes);
    EXPECT_LE(arrivals, static_cast<std::uint64_t>(kThreads) * kJobsPerThread);
    if (arrivals >= static_cast<std::uint64_t>(kThreads) * kJobsPerThread) {
      storm_done = true;
    }
  }
  for (auto& th : threads) th.join();
  dispatcher.drain();

  const auto snap = dispatcher.load_snapshot();
  std::uint64_t completed = 0;
  for (const auto& c : snap.classes) completed += c.completed;
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kThreads) * kJobsPerThread);
  EXPECT_EQ(snap.total_queue_depth(), 0u);
  EXPECT_EQ(snap.memory_in_use_bytes, 0u);
}

// Tentpole integration: the ledger's over-quota ladder degrades before it
// drops — deflate (theta floor), then deprioritize (behind compliant work
// of the class), then shed — and the decisions land in JobRecords,
// snapshot counters, and metrics.
TEST(DispatcherShardTest, TenantLadderDeflatesDeprioritizesShedsInOrder) {
  DispatcherOptions opts;
  opts.tenant.enabled = true;
  opts.tenant.deflate_theta = 0.5;
  opts.tenant.ledger.capacity_slots = 1.0;
  opts.tenant.ledger.usage_halflife_s = 5.0;
  opts.tenant.ledger.burst_credit_s = 0.0;  // ladder engages immediately
  opts.tenant.ledger.deprioritize_ratio = 2.0;
  opts.tenant.ledger.shed_ratio = 4.0;
  DiasDispatcher dispatcher({0.2}, opts);
  obs::Registry registry;
  dispatcher.attach_observability(&registry, nullptr);

  FairShareLedger* ledger = dispatcher.tenant_ledger();
  ASSERT_NE(ledger, nullptr);
  const TenantId shed_t{10}, deprio_t{11}, deflate_t{12}, small_t{13};
  // Four active equal-weight tenants => fair rate 0.25 slot/s
  // (tau = 5/ln2 ~= 7.21 s): 10/tau ~= 1.39 > 4*fair -> shed;
  // 5/tau ~= 0.69 in (2*fair, 4*fair] -> deprioritize;
  // 3/tau ~= 0.42 in (fair, 2*fair] -> deflate; 0.01/tau -> within share.
  ledger->note_completion(small_t, 0.01, 0.0);
  ledger->note_completion(deflate_t, 3.0, 0.0);
  ledger->note_completion(deprio_t, 5.0, 0.0);
  ledger->note_completion(shed_t, 10.0, 0.0);

  // Plug the runner so queue order is observable.
  std::atomic<bool> release{false};
  std::atomic<bool> plug_running{false};
  dispatcher.submit(0, [&](double) {
    plug_running = true;
    while (!release.load()) std::this_thread::sleep_for(100us);
  });
  while (!plug_running.load()) std::this_thread::sleep_for(100us);

  std::mutex order_mutex;
  std::vector<std::string> order;
  auto tracked = [&](std::string name) {
    return [&, name = std::move(name)](double) {
      std::lock_guard lock(order_mutex);
      order.push_back(name);
    };
  };

  // Over the shed threshold: turned away, terminal kShed record.
  EXPECT_EQ(dispatcher.submit(0, shed_t, tracked("shed")), Admission::kRejected);
  // Deflated: runs, but at the theta floor instead of the class's 0.2.
  std::atomic<double> deflate_theta_seen{-1.0};
  EXPECT_EQ(dispatcher.submit(0, deflate_t,
                              [&](double theta) { deflate_theta_seen = theta; }),
            Admission::kAdmitted);
  // Deprioritized: admitted, but queued behind the class's compliant work
  // even though its admit seq is earlier.
  EXPECT_EQ(dispatcher.submit(0, deprio_t, tracked("deprio")), Admission::kAdmitted);
  EXPECT_EQ(dispatcher.submit(0, small_t, tracked("small")), Admission::kAdmitted);
  EXPECT_EQ(dispatcher.submit(0, tracked("untenanted")), Admission::kAdmitted);

  const auto queued_snap = dispatcher.load_snapshot();
  EXPECT_EQ(queued_snap.classes[0].penalized_depth, 1u);
  EXPECT_EQ(queued_snap.tenants_tracked, 4u);
  EXPECT_EQ(queued_snap.tenant_shed, 1u);
  EXPECT_EQ(queued_snap.tenant_deflated, 1u);
  EXPECT_EQ(queued_snap.tenant_deprioritized, 1u);
  EXPECT_GT(queued_snap.tenant_fairness_index, 0.0);
  EXPECT_LT(queued_snap.tenant_fairness_index, 1.0);

  release = true;
  const auto records = dispatcher.drain();
  ASSERT_EQ(records.size(), 6u);  // plug + shed + 4 admitted

  // The penalized job ran last despite its earlier admit seq.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "small");
  EXPECT_EQ(order[1], "untenanted");
  EXPECT_EQ(order[2], "deprio");
  EXPECT_DOUBLE_EQ(deflate_theta_seen.load(), 0.5);

  for (const auto& r : records) {
    if (r.tenant == shed_t) {
      EXPECT_EQ(r.outcome, JobOutcome::kShed);
      EXPECT_EQ(r.tenant_action, TenantAction::kShed);
    } else if (r.tenant == deflate_t) {
      EXPECT_EQ(r.outcome, JobOutcome::kCompleted);
      EXPECT_EQ(r.tenant_action, TenantAction::kDeflate);
      EXPECT_DOUBLE_EQ(r.theta, 0.5);
    } else if (r.tenant == deprio_t) {
      EXPECT_EQ(r.outcome, JobOutcome::kCompleted);
      EXPECT_EQ(r.tenant_action, TenantAction::kDeprioritize);
      EXPECT_DOUBLE_EQ(r.theta, 0.5);  // deprioritized still runs deflated
    } else if (r.tenant == small_t) {
      EXPECT_EQ(r.outcome, JobOutcome::kCompleted);
      EXPECT_EQ(r.tenant_action, TenantAction::kNone);
      EXPECT_DOUBLE_EQ(r.theta, 0.2);
    }
  }

  EXPECT_EQ(registry.counter("dispatcher.tenant.shed").value(), 1u);
  EXPECT_EQ(registry.counter("dispatcher.tenant.deflated").value(), 1u);
  EXPECT_EQ(registry.counter("dispatcher.tenant.deprioritized").value(), 1u);
  EXPECT_GT(registry.gauge("dispatcher.tenant.fairness_index").value(), 0.0);
}

}  // namespace
}  // namespace dias::core
