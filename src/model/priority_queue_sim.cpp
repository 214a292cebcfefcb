#include "model/priority_queue_sim.hpp"

#include <deque>
#include <limits>

#include "common/error.hpp"

namespace dias::model {
namespace {

struct Job {
  std::size_t job_class = 0;  // 0-based
  double arrival = 0.0;
  double work_total = 0.0;      // sampled service requirement
  double work_remaining = 0.0;  // under resume; reset under repeat
  double first_start = -1.0;    // -1 = never served yet
  bool needs_resample = false;  // repeat-resample: draw new work at restart
};

}  // namespace

PriorityQueueSimResult simulate_priority_queue(const Mmap& arrivals,
                                               std::span<const PhaseType> services,
                                               SimDiscipline discipline,
                                               const PriorityQueueSimOptions& options) {
  DIAS_EXPECTS(services.size() == arrivals.classes(),
               "one service distribution per arrival class required");
  DIAS_EXPECTS(options.jobs > options.warmup, "need more jobs than warmup");

  const std::size_t k = services.size();
  Rng rng(options.seed);
  Rng service_rng = rng.split();
  auto sampler = arrivals.sampler(rng);

  PriorityQueueSimResult result;
  result.response.resize(k);
  result.waiting.resize(k);
  result.generated.assign(k, 0);
  result.completed.assign(k, 0);

  std::vector<std::deque<Job>> queues(k);
  // The job in service, valid while `busy` (a plain Job rather than
  // std::optional<Job>, whose payload GCC 12 -O2 flags as maybe-uninitialized).
  Job active;
  bool busy = false;
  double active_since = 0.0;  // when the current service quantum began

  double t = 0.0;
  std::size_t generated = 0;
  std::size_t completed = 0;
  std::size_t backlog = 0;
  double next_arrival = 0.0;
  std::size_t next_class = 0;
  bool arrival_pending = false;

  const auto draw_arrival = [&] {
    if (generated >= options.jobs) {
      arrival_pending = false;
      return;
    }
    const auto a = sampler.next();
    next_arrival = t + a.inter_arrival;
    next_class = a.job_class - 1;
    arrival_pending = true;
  };

  const auto dispatch = [&] {
    DIAS_EXPECTS(!busy, "dispatch with a job in service");
    for (std::size_t c = k; c-- > 0;) {
      if (queues[c].empty()) continue;
      active = queues[c].front();
      busy = true;
      queues[c].pop_front();
      --backlog;
      break;
    }
    if (!busy) return;
    if (active.needs_resample) {
      active.work_total = services[active.job_class].sample(service_rng);
      active.work_remaining = active.work_total;
      active.needs_resample = false;
    }
    if (active.first_start < 0.0) {
      active.first_start = t;
      if (completed >= options.warmup) {
        result.waiting[active.job_class].add(t - active.arrival);
      }
    }
    active_since = t;
  };

  draw_arrival();
  // Drain-time fairness: arrivals stop after options.jobs; we run to empty.
  for (;;) {
    const double completion_at =
        busy ? active_since + active.work_remaining : std::numeric_limits<double>::infinity();
    const double arrival_at =
        arrival_pending ? next_arrival : std::numeric_limits<double>::infinity();
    if (!busy && !arrival_pending) break;

    if (arrival_at < completion_at) {
      // --- arrival ---------------------------------------------------------
      t = arrival_at;
      Job job;
      job.job_class = next_class;
      job.arrival = t;
      job.work_total = services[next_class].sample(service_rng);
      job.work_remaining = job.work_total;
      ++generated;
      ++result.generated[job.job_class];
      draw_arrival();

      const bool preempts = discipline != SimDiscipline::kNonPreemptive && busy &&
                            job.job_class > active.job_class;
      if (preempts) {
        result.busy_time += t - active_since;
        Job evicted = active;
        busy = false;
        switch (discipline) {
          case SimDiscipline::kPreemptiveResume:
            evicted.work_remaining -= t - active_since;
            break;
          case SimDiscipline::kPreemptiveRepeatIdentical:
            evicted.work_remaining = evicted.work_total;
            break;
          case SimDiscipline::kPreemptiveRepeatResample:
            evicted.needs_resample = true;
            break;
          case SimDiscipline::kNonPreemptive:
            break;
        }
        queues[evicted.job_class].push_front(std::move(evicted));
        ++backlog;
      }
      queues[job.job_class].push_back(std::move(job));
      ++backlog;
      if (!busy) dispatch();
      if (backlog > options.max_backlog) {
        result.truncated = true;
        break;
      }
    } else {
      // --- completion ------------------------------------------------------
      t = completion_at;
      result.busy_time += t - active_since;
      ++completed;
      ++result.completed[active.job_class];
      if (completed > options.warmup) {
        result.response[active.job_class].add(t - active.arrival);
      }
      busy = false;
      dispatch();
      if (!options.drain_after_arrivals && !arrival_pending) break;
    }
  }
  result.horizon = t;
  return result;
}

}  // namespace dias::model
