// Real-time DiAS dispatcher (paper Section 3.3, the Go prototype).
//
// The production prototype keeps one buffer per priority and a dispatcher
// thread that launches the job at the head of the highest non-empty buffer
// into the processing engine, non-preemptively, passing it the class's
// approximation level. This C++ port drives in-process jobs (callables
// that receive their drop ratio) instead of external Spark processes, and
// records arrival / start / completion timestamps per job.
//
// Overload protection (ISSUE 5) extends the lifecycle: per-class queues
// can be bounded with an admission policy (block / reject / shed), every
// class can carry a response-time deadline enforced by cooperative
// cancellation, and every submitted job — whether it ran or not — ends in
// exactly one terminal JobOutcome recorded in its JobRecord.
//
// One lock. Every piece of dispatcher state — the per-class normal and
// penalized queues, the completed records, the per-class counters, the
// admit sequence, the queued / in-flight / memory accounting, the memory
// profile, and the running-job state the deadline watchdog reads — sits
// behind one mutex, with four condition variables on it (runner work,
// submitter space, drain, deadline). Job bodies run outside the lock on
// the single runner thread, which is the paper's one-server model. Only
// the per-class drop ratios are atomics, so the overload controller's
// set_theta() never waits on a submission. The fair-share ledger keeps
// its own locks and is never called with the dispatcher lock held.
//
// Multi-tenancy (ISSUE 7): submit() overloads take a TenantId; with
// DispatcherOptions::tenant.enabled a FairShareLedger (core/tenant.hpp)
// tracks per-tenant long-term usage and burst credits and the dispatcher
// applies its over-quota ladder — deflate (theta floor) before
// deprioritize (behind the class's compliant work) before shed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "core/tenant.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/sprint_governor.hpp"

namespace dias::core {

// Terminal state of a submitted job. Every job reaches exactly one.
enum class JobOutcome {
  kCompleted,  // job body returned normally
  kShed,       // dropped by admission control; the body never ran
  kCancelled,  // cancelled cooperatively (deadline or explicit), body may
               // have partially run
  kFailed,     // body threw a non-cancellation exception
};

const char* to_string(JobOutcome outcome);

// What submit() does when the target queue (or the dispatcher-wide cap)
// is full.
enum class AdmissionPolicy {
  // Backpressure: submit() blocks until space frees. Lossless; callers
  // absorb the overload.
  kBlock,
  // Fail fast: the incoming job is shed immediately (recorded with
  // outcome kShed) and submit() returns kRejected.
  kReject,
  // Load-shedding: drop the oldest queued job of the lowest priority that
  // does not exceed the incoming job's priority, then admit the newcomer.
  // If every queued job outranks the newcomer, the newcomer is shed
  // instead (an overloaded system keeps its most important work).
  kShedOldestLowest,
};

// What submit() reported for one job.
enum class Admission {
  kAdmitted,  // queued (possibly after shedding a victim)
  kRejected,  // shed at the door; its JobRecord (outcome kShed) is still
              // emitted through drain()
};

// Per-priority-class lifecycle policy.
struct ClassPolicy {
  // Maximum queued (not yet started) jobs of this class; 0 = unbounded.
  std::size_t queue_capacity = 0;
  // Response-time deadline in seconds since arrival; infinity = none. A
  // queued job past its deadline is cancelled instead of started; a
  // running job past its deadline has its cancellation token fired so it
  // unwinds at the next cooperative check.
  double deadline_s = std::numeric_limits<double>::infinity();
};

// Multi-tenant fairness policy (ISSUE 7).
struct MultiTenantOptions {
  // When false, TenantId arguments are recorded in JobRecords but no
  // ledger runs and no over-quota response fires.
  bool enabled = false;
  FairShareOptions ledger;
  // Drop-ratio floor applied to jobs of a tenant at the kDeflate (or
  // deeper) ladder stage: the job runs with
  // max(class theta, deflate_theta). Keep it at or below the class's
  // accuracy-derived ceiling (Deflator::plan constraints) so the tenant
  // response never violates an accuracy contract.
  double deflate_theta = 0.5;
};

struct DispatcherOptions {
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Cap on total queued jobs across all classes; 0 = unbounded.
  std::size_t total_capacity = 0;
  // Cap on the aggregate memory footprint of queued + running jobs, in
  // bytes; 0 = unbounded. A job's footprint is what it declared at
  // submit(), or the class's profiled EWMA when it declared nothing (0
  // until the class has a profile, so undeclared workloads are admitted
  // exactly as before). A job too big for an *idle* dispatcher is still
  // admitted — rejecting it could never succeed later, and blocking it
  // would deadlock.
  std::size_t memory_capacity_bytes = 0;
  // EWMA weight for the per-class memory profile learned from declared
  // footprints. The profile is seeded by the *first declared sample at
  // submission time* (not first completion), so the cold-start window in
  // which undeclared jobs were admitted with a near-zero estimate closes
  // as soon as any job of the class declares a footprint.
  double memory_profile_alpha = 0.3;
  // Per-tenant fair-share policy; see MultiTenantOptions.
  MultiTenantOptions tenant;
  // Per-class policy; classes beyond the vector use the defaults
  // (unbounded, no deadline). Sized/padded to the theta vector on
  // construction.
  std::vector<ClassPolicy> classes;
};

class DiasDispatcher {
 public:
  // A job receives the drop ratio the deflator assigned to its class.
  using JobFn = std::function<void(double theta)>;

  // Context handed to lifecycle-aware jobs. The token is the job's own
  // cancellation flag: the dispatcher fires it when the class deadline
  // passes, and the job is expected to poll it (or hand it to
  // Engine::set_cancellation) and unwind with JobCancelledError.
  struct JobContext {
    double theta = 0.0;
    std::size_t priority = 0;
    TenantId tenant{};
    // The footprint admission accounted for this job (declared, or the
    // class profile) — e.g. a sensible ShuffleOptions::memory_budget_bytes.
    std::size_t memory_bytes = 0;
    CancellationToken token;
  };
  using ContextJobFn = std::function<void(const JobContext&)>;

  struct JobRecord {
    std::size_t priority = 0;
    std::uint64_t seq = 0;      // arrival sequence number (global, 0-based)
    TenantId tenant{};          // 0 = untenanted
    // Ladder stage the fair-share ledger assigned at admission (kNone
    // without a ledger or for untenanted jobs).
    TenantAction tenant_action = TenantAction::kNone;
    double arrival_s = 0.0;     // seconds since dispatcher start
    double start_s = 0.0;       // when the engine picked it up (0 if never ran)
    double completion_s = 0.0;  // when it reached its terminal outcome
    JobOutcome outcome = JobOutcome::kCompleted;
    std::string error;      // what() for kFailed/kCancelled, reason for kShed
    double theta = 0.0;     // drop ratio the job actually received
    // Memory footprint admission accounted for this job: the declared
    // value, or the class's profiled EWMA when nothing was declared.
    std::size_t memory_bytes = 0;
    // Boost windows the sprint governor granted this job, in seconds since
    // dispatcher start (empty without a governor or when it never fired).
    std::vector<runtime::SprintInterval> sprint_intervals;
    double response_s() const { return completion_s - arrival_s; }
    double queueing_s() const { return start_s - arrival_s; }
    double execution_s() const { return completion_s - start_s; }
    double sprint_s() const {
      double acc = 0.0;
      for (const auto& iv : sprint_intervals) acc += iv.duration_s();
      return acc;
    }
  };

  // Point-in-time load view for the adaptive overload controller.
  struct ClassLoad {
    std::size_t queue_depth = 0;   // queued, not yet started (both subqueues)
    std::size_t penalized_depth = 0;  // deprioritized within the class
    std::uint64_t arrivals = 0;    // cumulative submits (admitted or not)
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    std::size_t queued_memory_bytes = 0;    // accounted footprint of queued jobs
    std::size_t profiled_memory_bytes = 0;  // EWMA of declared footprints
  };
  struct LoadSnapshot {
    double uptime_s = 0.0;
    // Cumulative seconds the dispatcher thread spent inside job bodies;
    // delta(busy_s)/delta(uptime_s) is the single-runner utilization.
    double busy_s = 0.0;
    // Accounted footprint of queued + running jobs, and the configured cap
    // (0 = unbounded). The overload controller reads these as its memory
    // pressure signal.
    std::size_t memory_in_use_bytes = 0;
    std::size_t memory_capacity_bytes = 0;
    // Tenant-plane aggregates (all zero / 1.0 without a ledger).
    std::size_t tenants_tracked = 0;
    std::size_t tenants_active = 0;
    std::size_t tenants_over_quota = 0;
    double tenant_fairness_index = 1.0;
    std::uint64_t tenant_bursts = 0;        // admissions covered by credits
    std::uint64_t tenant_deflated = 0;      // jobs given the deflate theta floor
    std::uint64_t tenant_deprioritized = 0;
    std::uint64_t tenant_shed = 0;          // jobs shed by the ladder
    std::vector<ClassLoad> classes;
    std::size_t total_queue_depth() const {
      std::size_t d = 0;
      for (const auto& c : classes) d += c.queue_depth;
      return d;
    }
  };

  // `theta[k]` is the drop ratio in [0, 1] handed to priority-k jobs; the
  // number of priorities equals theta.size(). theta[k] == 1 is the fully
  // degraded class (every droppable stage drops all of its tasks).
  explicit DiasDispatcher(std::vector<double> theta);
  DiasDispatcher(std::vector<double> theta, DispatcherOptions options);
  ~DiasDispatcher();
  DiasDispatcher(const DiasDispatcher&) = delete;
  DiasDispatcher& operator=(const DiasDispatcher&) = delete;

  std::size_t priorities() const { return priorities_; }

  // Enqueues a job. Returns kAdmitted unless admission control turned it
  // away (kReject policy, kShedOldestLowest with nothing to shed, or the
  // tenant ladder's kShed stage); a turned-away job still yields a
  // terminal JobRecord with outcome kShed. Under kBlock this call blocks
  // while the target queue is full. `memory_bytes` declares the job's
  // expected memory footprint (0 = not declared: admission falls back to
  // the class's profiled EWMA). The TenantId overloads attribute the job
  // to a tenant; with MultiTenantOptions::enabled the fair-share ledger's
  // over-quota ladder applies.
  Admission submit(std::size_t priority, JobFn job, std::size_t memory_bytes = 0);
  Admission submit(std::size_t priority, ContextJobFn job, std::size_t memory_bytes = 0);
  Admission submit(std::size_t priority, TenantId tenant, JobFn job,
                   std::size_t memory_bytes = 0);
  Admission submit(std::size_t priority, TenantId tenant, ContextJobFn job,
                   std::size_t memory_bytes = 0);

  // Blocks until every admitted job reached a terminal outcome, then
  // returns the records. Ordering is stable and documented: ascending
  // completion time, ties broken by arrival time, then by arrival
  // sequence number — so two zero-duration jobs (or a shed burst stamped
  // with one clock reading) always drain in submission order. The
  // dispatcher stays usable afterwards.
  std::vector<JobRecord> drain();

  // Replaces class k's drop ratio for jobs dispatched from now on (the
  // running job keeps the theta it started with). Thread-safe; this is
  // the knob the adaptive overload controller turns.
  void set_theta(std::size_t priority, double theta);
  double theta(std::size_t priority) const;

  // Cheap, thread-safe snapshot of queue depths and cumulative outcome
  // counts; the overload controller samples this to estimate arrival
  // rates and utilization. Exact: every per-class figure is read under the
  // one dispatcher lock, so at most the running job is in no count yet.
  LoadSnapshot load_snapshot() const;

  // The fair-share ledger, or nullptr when MultiTenantOptions::enabled is
  // false. Callers may set per-tenant weights or sample per-tenant stats;
  // the ledger lives exactly as long as the dispatcher.
  FairShareLedger* tenant_ledger() { return ledger_.get(); }
  const FairShareLedger* tenant_ledger() const { return ledger_.get(); }

  // Attaches metric/trace sinks (either may be null; null detaches). Every
  // dispatched job then emits a "dispatcher.job" span (priority, theta,
  // queueing/response times, outcome) and bumps per-class outcome
  // counters and queue-depth gauges; with a ledger, tenant ladder counters
  // and a fairness-index gauge (refreshed by load_snapshot()) are exported
  // too. Attach before the first submit; not synchronized with the
  // dispatcher thread beyond the submit ordering.
  void attach_observability(obs::Registry* metrics, obs::Tracer* tracer);

  // Attaches a sprint governor (null detaches): every dispatched job then
  // runs between job_started/job_finished hooks, so its class's Tk timer
  // can grant the engine's reserve slots mid-job, and the resulting boost
  // windows land in the JobRecord. The hooks are held by an exception-safe
  // RAII guard, so a job that throws or is cancelled mid-boost still
  // revokes its lease. The governor must outlive the dispatcher; attach
  // before the first submit.
  void attach_sprint_governor(runtime::SprintGovernor* governor);

 private:
  struct Pending {
    ContextJobFn fn;
    JobRecord record;
    CancellationToken token;
    // The footprint the submitter declared (0 = none); feeds the class
    // profile when the job finishes. record.memory_bytes holds what
    // admission actually accounted.
    std::size_t declared_memory = 0;
    bool penalized = false;    // queued behind the class's compliant work
  };

  void dispatcher_loop();
  void deadline_loop();
  double now_s() const;

  // Every *_locked helper runs with mu_ held.
  // Stamps the admit seq and counts the arrival.
  void stamp_arrival_locked(Pending& pending);
  // Pushes an admitted (seq-stamped) job and updates the accounting.
  void enqueue_locked(Pending&& pending);
  // Pops the front of one of class `cls`'s subqueues (non-empty).
  Pending take_front_locked(std::size_t cls, bool penalized);
  // Terminal record for a job that never ran.
  void finish_without_running_locked(Pending&& pending, JobOutcome outcome,
                                     std::string why);
  // Turns a newcomer away at the door: stamps its arrival, records it as
  // shed with `why`, and returns kRejected.
  Admission reject_locked(Pending&& pending, std::string why);
  void note_outcome_locked(const JobRecord& record);
  // Drops `bytes` from the accounted memory in use.
  void release_memory_locked(std::size_t bytes);
  // Retires one in-flight job; wakes drain() when it was the last.
  void retire_in_flight_locked();
  // Capacity admission check for a newcomer of `priority` and footprint.
  bool queue_has_space_locked(std::size_t priority, std::size_t memory_bytes) const;
  // Pops the oldest queued job of `cls`: the older head of its two
  // subqueues. The class must be non-empty.
  Pending pop_oldest_of_class_locked(std::size_t cls);
  std::size_t class_depth_locked(std::size_t cls) const {
    return normal_[cls].size() + penalized_[cls].size();
  }
  // Wakes blocked submitters iff any are registered.
  void notify_space_if_blocked_locked();
  // Folds a declared footprint into the class profile.
  void update_memory_profile_locked(std::size_t priority, std::size_t declared);
  double effective_theta(const Pending& pending) const;

  std::size_t priorities_ = 0;
  std::unique_ptr<std::atomic<double>[]> theta_;  // per class, lock-free
  DispatcherOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<FairShareLedger> ledger_;  // null unless tenant.enabled

  // Everything below up to the obs sinks is guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;      // runner: a job was queued, or stopping
  std::condition_variable space_cv_;     // blocked submitters: capacity freed
  std::condition_variable drain_cv_;     // drain(): in-flight reached zero
  std::condition_variable deadline_cv_;  // watchdog: a finite deadline started
  std::vector<std::deque<Pending>> normal_;     // per class, seq-ordered
  std::vector<std::deque<Pending>> penalized_;  // per class, seq-ordered
  std::vector<JobRecord> completed_;
  // Per-class cumulative counters and queued memory; load_snapshot() adds
  // the depths and the profile.
  std::vector<ClassLoad> loads_;
  std::vector<double> memory_profile_;  // per class EWMA of declared footprints
  std::uint64_t next_seq_ = 0;
  std::size_t queued_total_ = 0;
  std::size_t in_flight_ = 0;  // queued + running
  std::size_t memory_in_use_ = 0;
  bool stopping_ = false;
  int blocked_submitters_ = 0;
  std::uint64_t tenant_bursts_ = 0;
  std::uint64_t tenant_deflated_ = 0;
  std::uint64_t tenant_deprioritized_ = 0;
  std::uint64_t tenant_shed_ = 0;
  bool running_active_ = false;
  CancellationToken running_token_;
  double running_deadline_abs_s_ = std::numeric_limits<double>::infinity();
  double running_start_s_ = 0.0;
  double busy_accum_s_ = 0.0;

  obs::Tracer* tracer_ = nullptr;                  // set before first submit
  runtime::SprintGovernor* governor_ = nullptr;    // set before first submit
  std::vector<obs::Counter*> completed_counters_;  // one per class, or empty
  std::vector<obs::Counter*> shed_counters_;
  std::vector<obs::Counter*> cancelled_counters_;
  std::vector<obs::Counter*> failed_counters_;
  std::vector<obs::Gauge*> depth_gauges_;
  std::vector<obs::Gauge*> theta_gauges_;
  obs::HistogramMetric* response_hist_ = nullptr;
  obs::HistogramMetric* queueing_hist_ = nullptr;
  obs::Gauge* memory_gauge_ = nullptr;
  obs::Counter* tenant_burst_counter_ = nullptr;
  obs::Counter* tenant_deflated_counter_ = nullptr;
  obs::Counter* tenant_deprioritized_counter_ = nullptr;
  obs::Counter* tenant_shed_counter_ = nullptr;
  obs::Gauge* tenant_fairness_gauge_ = nullptr;
  obs::Gauge* tenant_over_quota_gauge_ = nullptr;

  std::thread dispatcher_;
  std::thread deadline_watchdog_;
};

}  // namespace dias::core
