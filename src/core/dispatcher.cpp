#include "core/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <tuple>
#include <utility>

#include "chaos/chaos.hpp"
#include "common/error.hpp"

namespace dias::core {

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kShed: return "shed";
    case JobOutcome::kCancelled: return "cancelled";
    case JobOutcome::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

DiasDispatcher::DiasDispatcher(std::vector<double> theta)
    : DiasDispatcher(std::move(theta), DispatcherOptions{}) {}

DiasDispatcher::DiasDispatcher(std::vector<double> theta, DispatcherOptions options)
    : priorities_(theta.size()), options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {
  DIAS_EXPECTS(priorities_ > 0, "dispatcher needs at least one priority class");
  theta_ = std::make_unique<std::atomic<double>[]>(priorities_);
  for (std::size_t k = 0; k < priorities_; ++k) {
    DIAS_EXPECTS(theta[k] >= 0.0 && theta[k] <= 1.0, "drop ratios must be in [0,1]");
    theta_[k].store(theta[k], std::memory_order_relaxed);
  }
  DIAS_EXPECTS(options_.classes.size() <= priorities_,
               "more class policies than priority classes");
  DIAS_EXPECTS(options_.memory_profile_alpha > 0.0 && options_.memory_profile_alpha <= 1.0,
               "memory profile alpha must be in (0,1]");
  DIAS_EXPECTS(options_.tenant.deflate_theta >= 0.0 && options_.tenant.deflate_theta <= 1.0,
               "tenant deflate theta must be in [0,1]");
  options_.classes.resize(priorities_);
  for (const auto& cp : options_.classes) {
    DIAS_EXPECTS(cp.deadline_s > 0.0, "class deadlines must be positive");
  }

  normal_.resize(priorities_);
  penalized_.resize(priorities_);
  loads_.resize(priorities_);
  memory_profile_.assign(priorities_, 0.0);

  if (options_.tenant.enabled) {
    ledger_ = std::make_unique<FairShareLedger>(options_.tenant.ledger);
  }

  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  deadline_watchdog_ = std::thread([this] { deadline_loop(); });
}

void DiasDispatcher::attach_observability(obs::Registry* metrics, obs::Tracer* tracer) {
  {
    std::lock_guard lock(mu_);
    DIAS_EXPECTS(in_flight_ == 0, "attach observability before submitting jobs");
  }
  tracer_ = tracer;
  completed_counters_.clear();
  shed_counters_.clear();
  cancelled_counters_.clear();
  failed_counters_.clear();
  depth_gauges_.clear();
  theta_gauges_.clear();
  response_hist_ = nullptr;
  queueing_hist_ = nullptr;
  memory_gauge_ = nullptr;
  tenant_burst_counter_ = nullptr;
  tenant_deflated_counter_ = nullptr;
  tenant_deprioritized_counter_ = nullptr;
  tenant_shed_counter_ = nullptr;
  tenant_fairness_gauge_ = nullptr;
  tenant_over_quota_gauge_ = nullptr;
  if (metrics != nullptr) {
    for (std::size_t k = 0; k < priorities_; ++k) {
      const std::string prefix = "dispatcher.class" + std::to_string(k);
      completed_counters_.push_back(&metrics->counter(prefix + ".completed"));
      shed_counters_.push_back(&metrics->counter(prefix + ".shed"));
      cancelled_counters_.push_back(&metrics->counter(prefix + ".cancelled"));
      failed_counters_.push_back(&metrics->counter(prefix + ".failed"));
      depth_gauges_.push_back(&metrics->gauge(prefix + ".queue_depth"));
      theta_gauges_.push_back(&metrics->gauge(prefix + ".theta"));
      theta_gauges_.back()->set(theta_[k].load(std::memory_order_relaxed));
    }
    response_hist_ = &metrics->histogram("dispatcher.response_s", 0.0, 600.0, 240);
    queueing_hist_ = &metrics->histogram("dispatcher.queueing_s", 0.0, 600.0, 240);
    memory_gauge_ = &metrics->gauge("dispatcher.memory_in_use_bytes");
    if (ledger_ != nullptr) {
      tenant_burst_counter_ = &metrics->counter("dispatcher.tenant.bursts");
      tenant_deflated_counter_ = &metrics->counter("dispatcher.tenant.deflated");
      tenant_deprioritized_counter_ = &metrics->counter("dispatcher.tenant.deprioritized");
      tenant_shed_counter_ = &metrics->counter("dispatcher.tenant.shed");
      tenant_fairness_gauge_ = &metrics->gauge("dispatcher.tenant.fairness_index");
      tenant_fairness_gauge_->set(1.0);
      tenant_over_quota_gauge_ = &metrics->gauge("dispatcher.tenant.over_quota");
    }
  }
}

void DiasDispatcher::attach_sprint_governor(runtime::SprintGovernor* governor) {
  {
    std::lock_guard lock(mu_);
    DIAS_EXPECTS(in_flight_ == 0, "attach the sprint governor before submitting jobs");
  }
  governor_ = governor;
}

DiasDispatcher::~DiasDispatcher() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  deadline_cv_.notify_all();
  space_cv_.notify_all();
  dispatcher_.join();
  deadline_watchdog_.join();
}

double DiasDispatcher::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void DiasDispatcher::stamp_arrival_locked(Pending& pending) {
  pending.record.seq = next_seq_++;
  ++loads_[pending.record.priority].arrivals;
}

void DiasDispatcher::note_outcome_locked(const JobRecord& record) {
  ClassLoad& load = loads_[record.priority];
  obs::Counter* counter = nullptr;
  switch (record.outcome) {
    case JobOutcome::kCompleted:
      ++load.completed;
      if (!completed_counters_.empty()) counter = completed_counters_[record.priority];
      break;
    case JobOutcome::kShed:
      ++load.shed;
      if (!shed_counters_.empty()) counter = shed_counters_[record.priority];
      break;
    case JobOutcome::kCancelled:
      ++load.cancelled;
      if (!cancelled_counters_.empty()) counter = cancelled_counters_[record.priority];
      break;
    case JobOutcome::kFailed:
      ++load.failed;
      if (!failed_counters_.empty()) counter = failed_counters_[record.priority];
      break;
  }
  if (counter != nullptr) counter->add();
}

void DiasDispatcher::finish_without_running_locked(Pending&& pending, JobOutcome outcome,
                                                   std::string why) {
  pending.token.request_cancel();
  pending.record.outcome = outcome;
  pending.record.error = std::move(why);
  pending.record.completion_s = now_s();
  // Never ran: stamp start at the terminal instant so execution_s() is 0
  // and response_s() still measures the time spent queued.
  pending.record.start_s = pending.record.completion_s;
  pending.record.theta = theta_[pending.record.priority].load(std::memory_order_relaxed);
  note_outcome_locked(pending.record);
  completed_.push_back(std::move(pending.record));
}

Admission DiasDispatcher::reject_locked(Pending&& pending, std::string why) {
  stamp_arrival_locked(pending);
  finish_without_running_locked(std::move(pending), JobOutcome::kShed, std::move(why));
  return Admission::kRejected;
}

void DiasDispatcher::enqueue_locked(Pending&& pending) {
  const std::size_t cls = pending.record.priority;
  const std::size_t accounted = pending.record.memory_bytes;
  (pending.penalized ? penalized_ : normal_)[cls].push_back(std::move(pending));
  ++queued_total_;
  ++in_flight_;
  loads_[cls].queued_memory_bytes += accounted;
  memory_in_use_ += accounted;
  if (memory_gauge_ != nullptr) memory_gauge_->set(static_cast<double>(memory_in_use_));
  if (!depth_gauges_.empty()) depth_gauges_[cls]->set(static_cast<double>(class_depth_locked(cls)));
}

DiasDispatcher::Pending DiasDispatcher::take_front_locked(std::size_t cls, bool penalized) {
  auto& queue = (penalized ? penalized_ : normal_)[cls];
  Pending out = std::move(queue.front());
  queue.pop_front();
  --queued_total_;
  loads_[cls].queued_memory_bytes -= out.record.memory_bytes;
  if (!depth_gauges_.empty()) depth_gauges_[cls]->set(static_cast<double>(class_depth_locked(cls)));
  return out;
}

void DiasDispatcher::release_memory_locked(std::size_t bytes) {
  memory_in_use_ -= bytes;
  if (memory_gauge_ != nullptr) memory_gauge_->set(static_cast<double>(memory_in_use_));
}

void DiasDispatcher::retire_in_flight_locked() {
  if (--in_flight_ == 0) drain_cv_.notify_all();
}

bool DiasDispatcher::queue_has_space_locked(std::size_t priority,
                                            std::size_t memory_bytes) const {
  const ClassPolicy& cp = options_.classes[priority];
  if (cp.queue_capacity != 0 && class_depth_locked(priority) >= cp.queue_capacity) {
    return false;
  }
  if (options_.total_capacity != 0 && queued_total_ >= options_.total_capacity) {
    return false;
  }
  // Aggregate-footprint admission. An over-budget job is still admitted
  // when nothing else holds memory: no amount of waiting or shedding could
  // ever make it fit, so refusing it would starve (kBlock) or shed the
  // whole queue for nothing (kShedOldestLowest).
  if (options_.memory_capacity_bytes != 0 && memory_in_use_ > 0 &&
      memory_in_use_ + memory_bytes > options_.memory_capacity_bytes) {
    return false;
  }
  return true;
}

DiasDispatcher::Pending DiasDispatcher::pop_oldest_of_class_locked(std::size_t cls) {
  const auto& normal = normal_[cls];
  const auto& penalized = penalized_[cls];
  const bool take_penalized =
      !penalized.empty() &&
      (normal.empty() || penalized.front().record.seq < normal.front().record.seq);
  return take_front_locked(cls, take_penalized);
}

void DiasDispatcher::notify_space_if_blocked_locked() {
  // notify_all, not notify_one: waiters block on heterogeneous memory
  // footprints, so the freed capacity may fit any subset of them.
  if (blocked_submitters_ > 0) space_cv_.notify_all();
}

void DiasDispatcher::update_memory_profile_locked(std::size_t priority,
                                                  std::size_t declared) {
  if (declared == 0) return;
  const double sample = static_cast<double>(declared);
  double& profile = memory_profile_[priority];
  profile = profile == 0.0 ? sample  // first declared sample seeds the profile
                           : (1.0 - options_.memory_profile_alpha) * profile +
                                 options_.memory_profile_alpha * sample;
}

double DiasDispatcher::effective_theta(const Pending& pending) const {
  double theta = theta_[pending.record.priority].load(std::memory_order_relaxed);
  if (ledger_ != nullptr && (pending.record.tenant_action == TenantAction::kDeflate ||
                             pending.record.tenant_action == TenantAction::kDeprioritize)) {
    // Over-quota tenants pay in accuracy first: their jobs run at least at
    // the configured deflation floor.
    theta = std::min(1.0, std::max(theta, options_.tenant.deflate_theta));
  }
  return theta;
}

Admission DiasDispatcher::submit(std::size_t priority, JobFn job, std::size_t memory_bytes) {
  return submit(priority, TenantId{}, std::move(job), memory_bytes);
}

Admission DiasDispatcher::submit(std::size_t priority, ContextJobFn job,
                                 std::size_t memory_bytes) {
  return submit(priority, TenantId{}, std::move(job), memory_bytes);
}

Admission DiasDispatcher::submit(std::size_t priority, TenantId tenant, JobFn job,
                                 std::size_t memory_bytes) {
  DIAS_EXPECTS(static_cast<bool>(job), "job callable must be non-empty");
  return submit(priority, tenant,
                ContextJobFn([fn = std::move(job)](const JobContext& ctx) {
                  fn(ctx.theta);
                }),
                memory_bytes);
}

Admission DiasDispatcher::submit(std::size_t priority, TenantId tenant, ContextJobFn job,
                                 std::size_t memory_bytes) {
  DIAS_EXPECTS(priority < priorities_, "priority out of range");
  DIAS_EXPECTS(static_cast<bool>(job), "job callable must be non-empty");
  Pending pending;
  pending.fn = std::move(job);
  pending.record.priority = priority;
  pending.record.tenant = tenant;
  pending.declared_memory = memory_bytes;
  pending.record.arrival_s = now_s();

  // dispatcher.admit chaos point. kStall delays admission (bounded — no
  // token exists yet at this point); kThrow sheds the job through the same
  // terminal path as the tenant ladder, so chaos never leaks a job that
  // ends in no JobOutcome.
  static chaos::InjectionPoint& chaos_admit =
      chaos::ChaosPlane::instance().point(chaos::points::kDispatcherAdmit);
  bool chaos_shed = false;
  if (chaos_admit.armed()) {
    try {
      chaos_admit.inject(priority, 0, chaos_admit.next_op());
    } catch (const chaos::ChaosError&) {
      chaos_shed = true;
    }
  }

  // Tenant over-quota ladder, consulted outside the dispatcher lock (the
  // ledger has its own) and before admission, so a kShed verdict never
  // consumes queue capacity.
  if (!chaos_shed && ledger_ != nullptr && tenant.has_value()) {
    pending.record.tenant_action = ledger_->on_submit(tenant, now_s());
  }

  std::unique_lock lock(mu_);
  DIAS_EXPECTS(!stopping_, "submit on a stopping dispatcher");
  if (chaos_shed) {
    return reject_locked(std::move(pending), "shed by chaos injection at admission");
  }

  // Cold-start fix: the first *declared* footprint of a class seeds the
  // profile at submission time, so concurrently arriving undeclared jobs
  // of the class stop being admitted with a near-zero estimate. The EWMA
  // fold at completion is idempotent for this first sample.
  if (memory_bytes > 0 && memory_profile_[priority] == 0.0) {
    memory_profile_[priority] = static_cast<double>(memory_bytes);
  }

  switch (pending.record.tenant_action) {
    case TenantAction::kNone:
      break;
    case TenantAction::kBurst:
      ++tenant_bursts_;
      if (tenant_burst_counter_ != nullptr) tenant_burst_counter_->add();
      break;
    case TenantAction::kDeflate:
      ++tenant_deflated_;
      if (tenant_deflated_counter_ != nullptr) tenant_deflated_counter_->add();
      break;
    case TenantAction::kDeprioritize:
      ++tenant_deprioritized_;
      if (tenant_deprioritized_counter_ != nullptr) tenant_deprioritized_counter_->add();
      pending.penalized = true;
      break;
    case TenantAction::kShed:
      ++tenant_shed_;
      if (tenant_shed_counter_ != nullptr) tenant_shed_counter_->add();
      return reject_locked(std::move(pending),
                           "shed by tenant fair-share ladder: sustained usage beyond fair "
                           "share with burst credits exhausted");
  }

  // Accounted footprint: what the submitter declared, else the class's
  // learned profile (0 when nothing of this class ever declared one).
  const std::size_t accounted =
      memory_bytes > 0 ? memory_bytes : static_cast<std::size_t>(memory_profile_[priority]);
  pending.record.memory_bytes = accounted;

  if (!queue_has_space_locked(priority, accounted)) {
    switch (options_.admission) {
      case AdmissionPolicy::kBlock:
        ++blocked_submitters_;
        space_cv_.wait(lock, [&] {
          return stopping_ || queue_has_space_locked(priority, accounted);
        });
        --blocked_submitters_;
        DIAS_EXPECTS(!stopping_, "submit on a stopping dispatcher");
        break;
      case AdmissionPolicy::kReject:
        return reject_locked(std::move(pending),
                             "rejected at admission: queue or memory full");
      case AdmissionPolicy::kShedOldestLowest: {
        // Memory feasibility first: queued jobs of classes the newcomer
        // outranks (or ties) are the only reclaimable footprint — the
        // running job and higher-priority queues stay. If evicting all
        // of them still cannot fit the newcomer, reject it up front
        // instead of shedding the whole queue for nothing.
        if (options_.memory_capacity_bytes != 0) {
          std::size_t reclaimable = 0;
          for (std::size_t k = 0; k <= priority; ++k) {
            reclaimable += loads_[k].queued_memory_bytes;
          }
          const std::size_t rest = memory_in_use_ - std::min(memory_in_use_, reclaimable);
          // rest == 0 falls under the oversized-runs-alone rule (see
          // queue_has_space_locked): with nothing else holding memory the
          // newcomer is admissible no matter its footprint.
          if (rest > 0 && rest + accounted > options_.memory_capacity_bytes) {
            return reject_locked(std::move(pending),
                                 "rejected at admission: footprint cannot fit "
                                 "even after shedding every job it outranks");
          }
        }
        // Shed until the newcomer fits. One victim suffices when a queue
        // cap binds; under the memory cap several small jobs may have to
        // go to make room for one big footprint.
        while (!queue_has_space_locked(priority, accounted)) {
          // Prefer shedding within the class whose cap was hit; when only
          // a dispatcher-wide cap binds, shed the oldest job of the
          // lowest non-empty class the newcomer does not outrank.
          const ClassPolicy& cp = options_.classes[priority];
          std::size_t victim_class = priorities_;
          if (cp.queue_capacity != 0 && class_depth_locked(priority) >= cp.queue_capacity) {
            victim_class = priority;
          } else {
            for (std::size_t k = 0; k <= priority; ++k) {
              if (class_depth_locked(k) > 0) {
                victim_class = k;
                break;
              }
            }
          }
          if (victim_class == priorities_) {
            return reject_locked(std::move(pending),
                                 "rejected at admission: no queued job to shed "
                                 "that it outranks");
          }
          Pending victim = pop_oldest_of_class_locked(victim_class);
          release_memory_locked(victim.record.memory_bytes);
          finish_without_running_locked(std::move(victim), JobOutcome::kShed,
                                        "shed for arriving priority-" +
                                            std::to_string(priority) + " job");
          retire_in_flight_locked();
        }
        break;
      }
    }
  }
  stamp_arrival_locked(pending);
  enqueue_locked(std::move(pending));
  lock.unlock();
  work_cv_.notify_one();  // the runner is the only waiter
  return Admission::kAdmitted;
}

std::vector<DiasDispatcher::JobRecord> DiasDispatcher::drain() {
  std::vector<JobRecord> out;
  {
    std::unique_lock lock(mu_);
    drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
    out.swap(completed_);
  }
  // Records are appended in lock order, which can differ from completion
  // order by a clock read; the sort restores the documented order.
  std::stable_sort(out.begin(), out.end(), [](const JobRecord& a, const JobRecord& b) {
    return std::tie(a.completion_s, a.arrival_s, a.seq) <
           std::tie(b.completion_s, b.arrival_s, b.seq);
  });
  return out;
}

void DiasDispatcher::set_theta(std::size_t priority, double theta) {
  DIAS_EXPECTS(priority < priorities_, "priority out of range");
  DIAS_EXPECTS(theta >= 0.0 && theta <= 1.0, "drop ratios must be in [0,1]");
  theta_[priority].store(theta, std::memory_order_seq_cst);
  if (!theta_gauges_.empty()) theta_gauges_[priority]->set(theta);
}

double DiasDispatcher::theta(std::size_t priority) const {
  DIAS_EXPECTS(priority < priorities_, "priority out of range");
  return theta_[priority].load(std::memory_order_seq_cst);
}

DiasDispatcher::LoadSnapshot DiasDispatcher::load_snapshot() const {
  LoadSnapshot snap;
  {
    std::lock_guard lock(mu_);
    snap.uptime_s = now_s();
    snap.busy_s = busy_accum_s_;
    if (running_active_) snap.busy_s += snap.uptime_s - running_start_s_;
    snap.classes = loads_;
    for (std::size_t k = 0; k < priorities_; ++k) {
      ClassLoad& c = snap.classes[k];
      c.queue_depth = class_depth_locked(k);
      c.penalized_depth = penalized_[k].size();
      c.profiled_memory_bytes = static_cast<std::size_t>(memory_profile_[k]);
    }
    snap.memory_in_use_bytes = memory_in_use_;
    snap.tenant_bursts = tenant_bursts_;
    snap.tenant_deflated = tenant_deflated_;
    snap.tenant_deprioritized = tenant_deprioritized_;
    snap.tenant_shed = tenant_shed_;
  }
  snap.memory_capacity_bytes = options_.memory_capacity_bytes;
  if (ledger_ != nullptr) {
    const FairShareLedger::Summary summary = ledger_->summary(snap.uptime_s);
    snap.tenants_tracked = summary.tracked;
    snap.tenants_active = summary.active;
    snap.tenants_over_quota = summary.over_quota;
    snap.tenant_fairness_index = summary.fairness_index;
    if (tenant_fairness_gauge_ != nullptr) {
      tenant_fairness_gauge_->set(summary.fairness_index);
    }
    if (tenant_over_quota_gauge_ != nullptr) {
      tenant_over_quota_gauge_->set(static_cast<double>(summary.over_quota));
    }
  }
  return snap;
}

void DiasDispatcher::dispatcher_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || queued_total_ > 0; });
    if (queued_total_ == 0) return;  // stopping, and everything queued ran
    // Highest class first; within a class, compliant work before
    // penalized, FCFS by admit seq.
    std::size_t cls = priorities_ - 1;
    while (class_depth_locked(cls) == 0) --cls;
    Pending job = take_front_locked(cls, normal_[cls].empty());
    // The dequeue freed a queue slot (memory stays accounted while the job
    // runs); only submitters actually waiting are woken.
    notify_space_if_blocked_locked();

    const double deadline_abs = job.record.arrival_s + options_.classes[cls].deadline_s;
    if (now_s() >= deadline_abs) {
      // Expired while queued: terminal kCancelled, the body never runs.
      release_memory_locked(job.record.memory_bytes);
      finish_without_running_locked(std::move(job), JobOutcome::kCancelled,
                                    "deadline exceeded before start");
      notify_space_if_blocked_locked();
      retire_in_flight_locked();
      continue;
    }

    const double theta = effective_theta(job);
    job.record.theta = theta;
    job.record.start_s = now_s();
    running_active_ = true;
    running_token_ = job.token;
    running_deadline_abs_s_ = deadline_abs;
    running_start_s_ = job.record.start_s;
    // Only a finite deadline can flip the watchdog's wait predicate, and
    // the watchdog is the cv's only waiter.
    if (deadline_abs != kInf) deadline_cv_.notify_one();
    lock.unlock();

    // Non-preemptive: the job runs to completion (or its terminal outcome)
    // before the next dispatch.
    obs::Tracer::SpanId span = 0;
    if (tracer_ != nullptr) {
      span = tracer_->begin_span("dispatcher.job",
                                 {{"priority", job.record.priority},
                                  {"theta", theta},
                                  {"arrival_s", job.record.arrival_s}});
    }
    // RAII guard: a job that throws (failure or deadline cancellation)
    // still revokes its sprint boost and re-arms the governor.
    std::optional<runtime::SprintJobGuard> guard;
    if (governor_ != nullptr) guard.emplace(*governor_, job.record.priority);
    JobContext ctx;
    ctx.theta = theta;
    ctx.priority = job.record.priority;
    ctx.tenant = job.record.tenant;
    ctx.token = job.token;
    ctx.memory_bytes = job.record.memory_bytes;
    try {
      job.fn(ctx);
      job.record.outcome = JobOutcome::kCompleted;
    } catch (const JobCancelledError& e) {
      job.record.outcome = JobOutcome::kCancelled;
      job.record.error = e.what();
    } catch (const std::exception& e) {
      job.record.outcome = JobOutcome::kFailed;
      job.record.error = e.what();
    }
    job.record.completion_s = now_s();
    if (guard) {
      // The governor reports boost windows relative to the job start;
      // rebase them onto the dispatcher epoch for the record.
      job.record.sprint_intervals = guard->finish();
      for (auto& iv : job.record.sprint_intervals) {
        iv.begin_s += job.record.start_s;
        iv.end_s += job.record.start_s;
      }
    }
    if (tracer_ != nullptr) {
      tracer_->end_span(span, {{"queueing_s", job.record.queueing_s()},
                               {"response_s", job.record.response_s()},
                               {"sprint_s", job.record.sprint_s()},
                               {"outcome", to_string(job.record.outcome)}});
    }
    if (response_hist_ != nullptr) {
      response_hist_->observe(job.record.response_s());
      queueing_hist_->observe(job.record.queueing_s());
    }

    if (ledger_ != nullptr && job.record.tenant.has_value()) {
      ledger_->note_completion(job.record.tenant, job.record.execution_s(), now_s());
    }
    job.fn = nullptr;  // release the body's captures outside the lock

    lock.lock();
    busy_accum_s_ += job.record.completion_s - job.record.start_s;
    running_active_ = false;
    running_deadline_abs_s_ = kInf;
    running_token_ = CancellationToken{};
    release_memory_locked(job.record.memory_bytes);
    update_memory_profile_locked(cls, job.declared_memory);
    note_outcome_locked(job.record);
    completed_.push_back(std::move(job.record));
    // Gated notifies: space only when a submitter is registered as
    // blocked; drain only when this was the last in-flight job; the
    // deadline cv not at all — the watchdog re-arms from the *next* job's
    // start, and a stale wait_until deadline wakes it into a no-op check.
    notify_space_if_blocked_locked();
    retire_in_flight_locked();
  }
}

void DiasDispatcher::deadline_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    if (stopping_) return;
    if (!running_active_ || running_deadline_abs_s_ == kInf) {
      deadline_cv_.wait(lock);
      continue;
    }
    const auto until =
        epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(running_deadline_abs_s_));
    if (deadline_cv_.wait_until(lock, until) == std::cv_status::timeout) {
      if (running_active_ && now_s() >= running_deadline_abs_s_) {
        // Fire the running job's token; the job unwinds cooperatively at
        // its next cancellation point. One shot per job.
        running_token_.request_cancel();
        running_deadline_abs_s_ = kInf;
      }
    }
  }
}

}  // namespace dias::core
