// dias_cli: command-line experiment runner for the simulated cluster.
//
//   $ ./dias_cli --policy dias --theta 0.2,0 --load 0.8 --jobs 10000
//
// A downstream-user-facing driver: describe a two-priority workload with
// flags, run any of the paper's policies, and get per-class latency, waste
// and energy (optionally as CSV for scripting).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analytics/word_count.hpp"
#include "chaos/chaos.hpp"
#include "core/controller.hpp"
#include "core/dispatcher.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/adaptive_planner.hpp"
#include "runtime/overload_controller.hpp"
#include "runtime/sprint_governor.hpp"
#include "storage/block_store.hpp"
#include "storage/spill_store.hpp"
#include "workload/text_corpus.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace dias;

void usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --policy <p|np|da|nps|dias>   scheduling policy (default da)\n"
      "  --theta <low,high,...>        per-class drop ratios (default 0.2,0)\n"
      "  --load <x>                    target utilization in (0,1) (default 0.8)\n"
      "  --jobs <n>                    trace length (default 10000)\n"
      "  --slots <n>                   computing slots (default 20)\n"
      "  --mix <low:high>              arrival mix (default 9:1)\n"
      "  --sprint-timeout <s>          high-class sprint timeout (default 0)\n"
      "  --sprint-budget <J>           sprint budget in Joules (default inf)\n"
      "  --seed <n>                    RNG seed (default 1)\n"
      "  --csv                         machine-readable output\n"
      "  --metrics-out <file>          write a metrics snapshot (JSON) after the run\n"
      "  --trace-out <file>            write the structured trace (JSONL) after the run\n"
      "  --help                        this text\n"
      "engine mode (in-process MapReduce with fault tolerance):\n"
      "  --engine-wordcount            run an approximate word count on the real\n"
      "                                engine instead of the cluster simulation;\n"
      "                                uses the first --theta value as drop ratio\n"
      "  --rows <n>                    corpus rows (default 2000)\n"
      "  --partitions <n>              input partitions / map tasks (default 40)\n"
      "  --max-attempts <n>            attempts per task before degradation (default 3)\n"
      "  --retry-backoff-ms <ms>       base of the capped decorrelated-jitter backoff\n"
      "                                between attempts (default 0 = none)\n"
      "  --speculation                 speculatively re-execute stage-tail stragglers\n"
      "  --chaos-seed <n>              chaos plane seed (default 0); same seed =>\n"
      "                                the same injection decisions\n"
      "  --chaos-rate <p>              arm every chaos injection point with throw\n"
      "                                faults at rate p (spill writes degrade via\n"
      "                                the circuit breaker, tasks retry)\n"
      "  --chaos-points <spec>         full chaos grammar, e.g.\n"
      "                                'engine.task=throw:0.2,spill.write=throw:0.1'\n"
      "                                (shapes: throw|stall|corrupt; selectors may\n"
      "                                end in '*'; at engine.task, throw fails a\n"
      "                                task attempt and stall makes a straggler)\n"
      "  --shuffle-budget-bytes <n>    hard cap on resident shuffle memory; overflow\n"
      "                                spills through a BlockStore and the results\n"
      "                                stay byte-identical (0 = unbounded, default)\n"
      "  --spill-dir <path>            BlockStore root for spilled shuffle segments\n"
      "                                (default: a throwaway dir under /tmp)\n"
      "  --adaptive-plan               let an AdaptivePlanner read the engine's own\n"
      "                                metrics and re-plan each stage (combiner,\n"
      "                                partition width, speculation) over\n"
      "                                three rounds; prints the per-stage decisions\n"
      "runtime sprinting (elastic pool + sprint governor on the real engine):\n"
      "  --runtime-sprint              run bursty two-class traffic through the\n"
      "                                real dispatcher; the high class sprints by\n"
      "                                leasing the engine's reserve worker slots\n"
      "                                after --sprint-timeout, spending\n"
      "                                --sprint-budget Joules\n"
      "  --reserve-workers <n>         dormant slots the governor may lease (default 6)\n"
      "  --sprint-replenish <W>        budget replenish rate in Watts (default 0)\n"
      "  --bursts <n>                  arrival bursts to submit (default 8)\n"
      "overload protection (bounded admission + deadlines + adaptive deflation):\n"
      "  --runtime-overload            drive a sustained two-class burst through the\n"
      "                                real dispatcher and report per-class response\n"
      "                                times and terminal outcomes\n"
      "  --admission <block|reject|shed>  policy when a class queue is full (default shed)\n"
      "  --queue-cap <n>               per-class queue capacity, 0 = unbounded (default 8)\n"
      "  --deadline <low,high,...>     per-class deadlines in seconds, inf = none\n"
      "                                (default inf for every class)\n"
      "  --adaptive                    attach the closed-loop OverloadController\n"
      "                                (measured rates re-run the deflator; theta\n"
      "                                escalates up to --theta-ceiling)\n"
      "  --theta-ceiling <low,high,...>  per-class ceilings for --adaptive (default 0.6,0.3)\n"
      "  --overload-jobs <n>           jobs to submit (default 150)\n"
      "  --overload-period-ms <ms>     submit period; ~10 is a 2x burst (default 10)\n"
      "  --memory-capacity-mb <n>      dispatcher memory budget over queued + running\n"
      "                                jobs; 0 = unbounded (default 0). With\n"
      "                                --adaptive the controller treats ~80%%/40%% of\n"
      "                                this as its memory pressure band\n"
      "  --job-memory-mb <low,high>    declared per-class job footprints in MB\n"
      "                                (default 0,0 = undeclared)\n"
      "  --tenants <n>                 multiplex submissions over n tenants with the\n"
      "                                fair-share ledger enabled (burst credits +\n"
      "                                deflate/deprioritize/shed ladder); 0 = untenanted\n"
      "                                (default 0). With --adaptive, sustained\n"
      "                                over-quota tenants also trigger escalation\n",
      prog);
}

// --engine-wordcount: run the paper's droppable word-count map on the
// in-process engine under injected faults, and show how failed tasks
// degrade into extra approximation (effective theta) instead of job
// failure.
int run_engine_wordcount(double theta, std::size_t rows, std::size_t partitions,
                         std::uint64_t seed, const engine::FaultToleranceOptions& fault,
                         std::size_t shuffle_budget, std::string spill_dir,
                         bool adaptive_plan, bool csv, obs::Registry* metrics,
                         obs::Tracer* tracer) {
  workload::TextCorpusParams params;
  params.posts = rows;
  params.seed = seed;
  const auto corpus = workload::generate_text_corpus("cli", params);

  engine::Engine::Options opts;
  opts.workers = 4;
  opts.seed = seed;
  opts.fault = fault;
  engine::Engine eng(opts);
  // The planner reads the engine's own registry, so --adaptive-plan
  // stands one up even when no --metrics-out sink was requested.
  obs::Registry local_registry;
  obs::Registry* registry = metrics;
  if (adaptive_plan && registry == nullptr) registry = &local_registry;
  eng.attach_observability(registry, tracer);
  std::optional<runtime::AdaptivePlanner> planner;
  if (adaptive_plan) {
    runtime::AdaptivePlannerConfig pcfg;
    pcfg.workers = opts.workers;
    planner.emplace(registry, pcfg, registry, tracer);
  }

  // A finite budget needs somewhere to spill: stand up a BlockStore on the
  // requested directory (or a throwaway one) and attach it as the engine's
  // spill backend.
  std::optional<storage::BlockStore> store;
  std::optional<storage::BlockStoreSpill> spill;
  bool scratch_spill_dir = false;
  if (shuffle_budget > 0) {
    if (spill_dir.empty()) {
      const auto tick = std::chrono::steady_clock::now().time_since_epoch().count();
      spill_dir = (std::filesystem::temp_directory_path() /
                   ("dias_cli_spill_" + std::to_string(tick)))
                      .string();
      scratch_spill_dir = true;
    }
    storage::BlockStoreOptions sopts;
    sopts.root = spill_dir;
    store.emplace(sopts);
    spill.emplace(*store, "wordcount");
    eng.set_spill_backend(&*spill);
  }
  engine::ShuffleOptions shuffle;
  shuffle.memory_budget_bytes = shuffle_budget;

  const auto ds = eng.parallelize(corpus.rows, partitions);

  // With a planner, run three rounds so the metric loop has signals to
  // converge on; the stage log below then shows each round's plan taking
  // effect. Counts are identical across rounds by the determinism
  // contract (see stage_plan.hpp).
  const int rounds = adaptive_plan ? 3 : 1;
  analytics::WordCountResult result;
  try {
    for (int round = 0; round < rounds; ++round) {
      result = analytics::word_count(eng, ds, std::max<std::size_t>(partitions / 4, 1),
                                     theta, shuffle, planner ? &*planner : nullptr);
    }
  } catch (const engine::TaskFailedError& e) {
    std::fprintf(stderr, "job failed: %s\n", e.what());
    if (scratch_spill_dir) std::filesystem::remove_all(spill_dir);
    return 1;
  }

  if (csv) {
    std::printf("stage,total,executed,degraded,attempts,retries,spec_runs,spec_wins,"
                "theta,effective_theta\n");
  } else {
    std::printf("engine word count: %zu rows, %zu partitions, theta %.2f, seed %llu\n",
                corpus.rows.size(), partitions, theta,
                static_cast<unsigned long long>(seed));
    std::printf("  %-18s %6s %6s %6s %6s %6s %5s %5s %7s %7s\n", "stage", "total",
                "run", "dead", "att", "retry", "spec", "wins", "theta", "eff.th");
  }
  for (const auto& s : eng.stage_log()) {
    if (csv) {
      std::printf("%s,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%.4f,%.4f\n", s.name.c_str(),
                  s.total_partitions, s.executed_partitions, s.failed_partition_ids.size(),
                  s.attempts, s.retries, s.speculative_launched, s.speculative_wins,
                  s.applied_drop_ratio, s.effective_drop_ratio);
    } else {
      std::printf("  %-18s %6zu %6zu %6zu %6zu %6zu %5zu %5zu %7.3f %7.3f\n",
                  s.name.c_str(), s.total_partitions, s.executed_partitions,
                  s.failed_partition_ids.size(), s.attempts, s.retries,
                  s.speculative_launched, s.speculative_wins, s.applied_drop_ratio,
                  s.effective_drop_ratio);
    }
  }
  if (csv) {
    std::printf("distinct_words,%zu\nexecuted_fraction,%.4f\nduration_s,%.4f\n",
                result.counts.size(), result.executed_fraction(), result.duration_s);
  } else {
    std::printf("  %zu distinct words, executed fraction %.3f, %.1f ms\n",
                result.counts.size(), result.executed_fraction(),
                1000.0 * result.duration_s);
  }
  if (planner) {
    const auto pstatus = planner->status();
    if (csv) {
      std::printf("planner_decisions,%llu\nplanner_switches,%llu\n",
                  static_cast<unsigned long long>(pstatus.decisions),
                  static_cast<unsigned long long>(pstatus.switches));
    } else {
      std::printf("  adaptive planner: %llu decisions, %llu switches over %d rounds\n",
                  static_cast<unsigned long long>(pstatus.decisions),
                  static_cast<unsigned long long>(pstatus.switches), rounds);
      // Final knob positions, as exported by the planner's own gauges
      // (-1 = undecided / stage default).
      for (const char* stage : {"wordcount/map", "wordcount"}) {
        const std::string prefix = std::string("planner.") + stage + ".";
        const auto gauge = [&](const char* knob) {
          const obs::Gauge* g = registry->find_gauge(prefix + knob);
          return g == nullptr ? -1.0 : g->value();
        };
        std::printf("    %-14s combine=%+.0f partitions=%.0f speculate=%+.0f\n", stage,
                    gauge("combine"), gauge("partitions"), gauge("speculate"));
      }
    }
  }
  if (spill) {
    const auto stats = spill->stats();
    if (csv) {
      std::printf("spill_segments,%llu\nspill_bytes,%llu\n",
                  static_cast<unsigned long long>(stats.segments_written),
                  static_cast<unsigned long long>(stats.bytes_written));
    } else {
      std::printf("  spill: budget %zu B, %llu segments / %llu bytes through %s\n",
                  shuffle_budget,
                  static_cast<unsigned long long>(stats.segments_written),
                  static_cast<unsigned long long>(stats.bytes_written),
                  spill_dir.c_str());
    }
  }
  if (scratch_spill_dir) std::filesystem::remove_all(spill_dir);
  return 0;
}

// --runtime-sprint: bursty two-class traffic on the real stack. Each burst
// is one wide high-priority job plus three narrow low-priority jobs; only
// the high class has a finite Tk, so sprints are differential. Reports
// per-class response times plus the governor's grant/deny/energy ledger.
int run_runtime_sprint(std::size_t bursts, std::size_t reserve, double timeout_s,
                       double budget_j, double replenish_w, bool csv,
                       obs::Registry* metrics, obs::Tracer* tracer) {
  engine::Engine::Options opts;
  opts.workers = 2;
  opts.reserve_workers = reserve;
  engine::Engine eng(opts);

  runtime::SprintGovernorConfig config;
  config.budget.budget_joules = budget_j;
  config.budget.budget_cap_joules = budget_j;
  config.budget.replenish_watts = replenish_w;
  config.timeout_s = {std::numeric_limits<double>::infinity(), timeout_s};
  runtime::SprintGovernor governor(config, eng.pool());
  core::DiasDispatcher dispatcher({0.0, 0.0});
  governor.attach_observability(metrics, tracer);
  dispatcher.attach_observability(metrics, tracer);
  dispatcher.attach_sprint_governor(&governor);

  const auto stage_job = [&eng](std::size_t partitions) {
    std::vector<int> values(partitions);
    for (std::size_t i = 0; i < partitions; ++i) values[i] = static_cast<int>(i);
    auto ds = eng.parallelize(std::move(values), partitions);
    engine::StageOptions sopts;
    sopts.name = "burst";
    sopts.droppable = false;
    eng.map_partitions(
        ds,
        [](const std::vector<int>& part) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return part;
        },
        sopts);
  };
  for (std::size_t b = 0; b < bursts; ++b) {
    dispatcher.submit(1, [&](double) { stage_job(16); });
    for (int j = 0; j < 3; ++j) dispatcher.submit(0, [&](double) { stage_job(4); });
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
  }
  const auto records = dispatcher.drain();

  std::vector<double> responses[2];
  double sprint_s[2] = {0.0, 0.0};
  for (const auto& r : records) {
    responses[r.priority].push_back(r.response_s());
    sprint_s[r.priority] += r.sprint_s();
  }
  if (csv) {
    std::printf("class,completed,mean_s,p95_s,sprint_s\n");
  } else {
    std::printf("runtime sprinting: %zu bursts, 2+%zu workers, Tk %.3f s, "
                "budget %.1f J, replenish %.1f W\n",
                bursts, reserve, timeout_s, budget_j, replenish_w);
  }
  for (std::size_t k = 2; k-- > 0;) {
    auto& rs = responses[k];
    if (rs.empty()) continue;
    std::sort(rs.begin(), rs.end());
    double mean = 0.0;
    for (double r : rs) mean += r;
    mean /= static_cast<double>(rs.size());
    const double p95 = rs[static_cast<std::size_t>(0.95 * double(rs.size() - 1))];
    if (csv) {
      std::printf("%zu,%zu,%.3f,%.3f,%.3f\n", k, rs.size(), mean, p95, sprint_s[k]);
    } else {
      std::printf("  class %zu (%s): %zu jobs, mean %.3f s, p95 %.3f s, "
                  "sprinted %.3f s\n",
                  k, k == 1 ? "high" : "low", rs.size(), mean, p95, sprint_s[k]);
    }
  }
  if (csv) {
    std::printf("sprints_granted,%zu\nsprints_denied,%zu\nenergy_consumed_j,%.1f\n",
                governor.sprints_granted(), governor.sprints_denied(),
                governor.budget_consumed());
  } else {
    std::printf("  sprints: %zu granted, %zu denied; energy %.1f J consumed, "
                "%.1f J left\n",
                governor.sprints_granted(), governor.sprints_denied(),
                governor.budget_consumed(), governor.budget_level());
  }
  return 0;
}

// --runtime-overload: a sustained two-class burst (alternating low/high
// submissions every period_ms) against the real engine, with per-class
// queue caps, deadlines, and optionally the closed-loop overload
// controller escalating theta from measured arrival rates. Shows every
// terminal outcome — completed / shed / cancelled / failed — per class.
int run_runtime_overload(core::AdmissionPolicy admission, std::size_t queue_cap,
                         std::vector<double> deadlines, bool adaptive,
                         std::vector<double> ceilings, std::size_t jobs,
                         double period_ms, std::size_t memory_capacity_mb,
                         std::vector<double> job_memory_mb, std::size_t tenants,
                         bool csv, obs::Registry* metrics,
                         obs::Tracer* tracer) {
  static constexpr std::size_t kPartitions = 16;
  static constexpr int kTaskMs = 4;
  engine::Engine::Options eopts;
  eopts.workers = 4;
  engine::Engine eng(eopts);

  core::DispatcherOptions dopts;
  dopts.admission = admission;
  dopts.classes.resize(2);
  for (std::size_t k = 0; k < 2; ++k) {
    dopts.classes[k].queue_capacity = queue_cap;
    if (k < deadlines.size()) dopts.classes[k].deadline_s = deadlines[k];
  }
  dopts.memory_capacity_bytes = memory_capacity_mb << 20;
  if (tenants > 0) dopts.tenant.enabled = true;
  core::DiasDispatcher dispatcher({0.0, 0.0}, dopts);
  dispatcher.attach_observability(metrics, tracer);

  const auto declared_memory = [&](std::size_t priority) -> std::size_t {
    if (priority >= job_memory_mb.size() || job_memory_mb[priority] <= 0.0) return 0;
    return static_cast<std::size_t>(job_memory_mb[priority] * (1 << 20));
  };

  std::optional<runtime::OverloadController> controller;
  if (adaptive) {
    // Profile both classes at a calm rate; the controller's whole job is
    // to notice the measured rate exceeding it and escalate.
    model::JobClassProfile prof;
    prof.arrival_rate = 2.0;
    prof.slots = 4;
    prof.map_task_pmf.assign(kPartitions, 0.0);
    prof.map_task_pmf.back() = 1.0;
    prof.reduce_task_pmf.assign(1, 1.0);
    prof.map_rate = 1.0 / (kTaskMs * 1e-3);
    prof.reduce_rate = 1e3;
    prof.shuffle_rate = 1e3;
    prof.mean_overhead_theta0 = 5e-3;
    prof.mean_overhead_theta90 = 2e-3;
    core::Deflator deflator({prof, prof}, core::AccuracyProfile::paper_word_count());
    runtime::OverloadControllerConfig ccfg;
    ccfg.sample_period_s = 0.05;
    ccfg.ewma_alpha = 0.5;
    ccfg.queue_depth_high = 6;
    ccfg.queue_depth_low = 2;
    if (memory_capacity_mb > 0) {
      // Memory pressure band at ~80%/40% of the dispatcher's capacity.
      ccfg.memory_high_bytes = (memory_capacity_mb << 20) * 4 / 5;
      ccfg.memory_low_bytes = (memory_capacity_mb << 20) * 2 / 5;
    }
    if (tenants > 0) {
      // Tenant pressure band: a quarter of the tenant population being
      // simultaneously over quota is plant-wide overload.
      ccfg.tenant_overquota_high = std::max<std::size_t>(tenants / 4, 1);
      ccfg.tenant_overquota_low = ccfg.tenant_overquota_high / 2;
    }
    ccfg.min_hold_s = 0.2;
    ccfg.theta_ceiling = std::move(ceilings);
    ccfg.start_thread = true;
    controller.emplace(dispatcher, std::move(deflator),
                       std::vector<core::ClassConstraint>{{40.0, 1e18, 1.0},
                                                          {20.0, 1e18, 1.0}},
                       ccfg, metrics, tracer);
  }

  for (std::size_t i = 0; i < jobs; ++i) {
    const core::TenantId tenant =
        tenants > 0 ? core::TenantId{i % tenants + 1} : core::TenantId{};
    dispatcher.submit(
        i % 2, tenant,
        core::DiasDispatcher::ContextJobFn(
                   [&](const core::DiasDispatcher::JobContext& ctx) {
                     eng.set_cancellation(ctx.token);
                     eng.set_drop_ratio(ctx.theta);
                     std::vector<int> values(kPartitions);
                     for (std::size_t p = 0; p < kPartitions; ++p)
                       values[p] = static_cast<int>(p);
                     auto ds = eng.parallelize(std::move(values), kPartitions);
                     engine::StageOptions sopts;
                     sopts.name = "overload";
                     sopts.droppable = true;
                     eng.map_partitions(
                         ds,
                         [](const std::vector<int>& part) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(kTaskMs));
                           return part;
                         },
                         sopts);
                   }),
        declared_memory(i % 2));
    std::this_thread::sleep_for(std::chrono::duration<double>(period_ms * 1e-3));
  }
  const auto records = dispatcher.drain();
  if (controller) controller->stop();

  struct ClassStats {
    std::size_t completed = 0, shed = 0, cancelled = 0, failed = 0;
    std::vector<double> responses;
  };
  ClassStats stats[2];
  for (const auto& r : records) {
    auto& s = stats[r.priority];
    switch (r.outcome) {
      case core::JobOutcome::kCompleted:
        ++s.completed;
        s.responses.push_back(r.response_s());
        break;
      case core::JobOutcome::kShed: ++s.shed; break;
      case core::JobOutcome::kCancelled: ++s.cancelled; break;
      case core::JobOutcome::kFailed: ++s.failed; break;
    }
  }
  if (csv) {
    std::printf("class,completed,shed,cancelled,failed,mean_s,p95_s,theta\n");
  } else {
    std::printf("overload run: %zu jobs every %.0f ms, queue cap %zu, %s admission%s\n",
                jobs, period_ms, queue_cap,
                admission == core::AdmissionPolicy::kBlock     ? "block"
                : admission == core::AdmissionPolicy::kReject ? "reject"
                                                              : "shed",
                adaptive ? ", adaptive deflation on" : "");
  }
  for (std::size_t k = 2; k-- > 0;) {
    auto& s = stats[k];
    double mean = 0.0, p95 = 0.0;
    if (!s.responses.empty()) {
      std::sort(s.responses.begin(), s.responses.end());
      for (double r : s.responses) mean += r;
      mean /= static_cast<double>(s.responses.size());
      p95 = s.responses[static_cast<std::size_t>(0.95 *
                                                 double(s.responses.size() - 1))];
    }
    if (csv) {
      std::printf("%zu,%zu,%zu,%zu,%zu,%.3f,%.3f,%.3f\n", k, s.completed, s.shed,
                  s.cancelled, s.failed, mean, p95, dispatcher.theta(k));
    } else {
      std::printf("  class %zu (%s): %zu completed (mean %.3f s, p95 %.3f s), "
                  "%zu shed, %zu cancelled, %zu failed, theta %.2f\n",
                  k, k == 1 ? "high" : "low", s.completed, mean, p95, s.shed,
                  s.cancelled, s.failed, dispatcher.theta(k));
    }
  }
  if (controller) {
    const auto st = controller->status();
    if (csv) {
      std::printf("replans,%llu\nescalations,%llu\nrelaxations,%llu\n",
                  static_cast<unsigned long long>(st.replans),
                  static_cast<unsigned long long>(st.escalations),
                  static_cast<unsigned long long>(st.relaxations));
      if (memory_capacity_mb > 0) {
        std::printf("memory_pressure,%d\nmemory_in_use_bytes,%zu\n",
                    st.memory_pressure ? 1 : 0, st.memory_in_use_bytes);
      }
    } else {
      std::printf("  controller: %llu replans, %llu escalations, %llu relaxations, "
                  "utilization %.2f\n",
                  static_cast<unsigned long long>(st.replans),
                  static_cast<unsigned long long>(st.escalations),
                  static_cast<unsigned long long>(st.relaxations), st.utilization);
      if (memory_capacity_mb > 0) {
        std::printf("  memory: %.1f / %zu MB accounted at shutdown, pressure %s\n",
                    static_cast<double>(st.memory_in_use_bytes) / (1 << 20),
                    memory_capacity_mb, st.memory_pressure ? "on" : "off");
      }
    }
  }
  if (tenants > 0) {
    const auto snap = dispatcher.load_snapshot();
    if (csv) {
      std::printf("tenants,%zu\nfairness_index,%.4f\ntenant_shed,%llu\n"
                  "tenant_deflated,%llu\ntenant_deprioritized,%llu\n",
                  snap.tenants_tracked, snap.tenant_fairness_index,
                  static_cast<unsigned long long>(snap.tenant_shed),
                  static_cast<unsigned long long>(snap.tenant_deflated),
                  static_cast<unsigned long long>(snap.tenant_deprioritized));
    } else {
      std::printf("  tenants: %zu tracked, Jain fairness %.4f, "
                  "%llu shed / %llu deflated / %llu deprioritized by the ladder\n",
                  snap.tenants_tracked, snap.tenant_fairness_index,
                  static_cast<unsigned long long>(snap.tenant_shed),
                  static_cast<unsigned long long>(snap.tenant_deflated),
                  static_cast<unsigned long long>(snap.tenant_deprioritized));
    }
  }
  return 0;
}

std::vector<double> parse_list(const std::string& arg) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const auto comma = arg.find(',', pos);
    out.push_back(std::stod(arg.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// Writes the collected metrics snapshot / trace stream to the requested
// files. Returns false (with a message on stderr) if a file cannot be
// opened, so the run still reports its results but exits non-zero.
bool flush_observability(const std::string& metrics_out, const std::string& trace_out,
                         obs::Registry& metrics, obs::Tracer& tracer) {
  bool ok = true;
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      ok = false;
    } else {
      os << metrics.to_json() << '\n';
    }
  }
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
      ok = false;
    } else {
      tracer.write_jsonl(os);
    }
  }
  return ok;
}

std::optional<core::Policy> parse_policy(const std::string& name) {
  if (name == "p") return core::Policy::kPreemptive;
  if (name == "np") return core::Policy::kNonPreemptive;
  if (name == "da") return core::Policy::kDifferentialApprox;
  if (name == "nps") return core::Policy::kNonPreemptiveSprint;
  if (name == "dias") return core::Policy::kDias;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  core::Policy policy = core::Policy::kDifferentialApprox;
  std::vector<double> theta{0.2, 0.0};
  double load = 0.8;
  std::size_t jobs = 10000;
  int slots = 20;
  double mix_low = 9.0, mix_high = 1.0;
  double sprint_timeout = 0.0;
  double sprint_budget = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 1;
  bool csv = false;
  std::string metrics_out;
  std::string trace_out;

  bool engine_wordcount = false;
  bool adaptive_plan = false;
  bool runtime_sprint = false;
  bool runtime_overload = false;
  core::AdmissionPolicy admission = core::AdmissionPolicy::kShedOldestLowest;
  std::size_t queue_cap = 8;
  std::vector<double> deadlines;
  bool adaptive = false;
  std::vector<double> theta_ceiling{0.6, 0.3};
  std::size_t overload_jobs = 150;
  double overload_period_ms = 10.0;
  std::size_t memory_capacity_mb = 0;
  std::vector<double> job_memory_mb;
  std::size_t tenants = 0;
  std::size_t shuffle_budget_bytes = 0;
  std::string spill_dir;
  std::size_t reserve_workers = 6;
  double sprint_replenish = 0.0;
  std::size_t bursts = 8;
  std::size_t rows = 2000;
  std::size_t partitions = 40;
  engine::FaultToleranceOptions fault;
  fault.max_attempts = 3;
  std::uint64_t chaos_seed = 0;
  double chaos_rate = 0.0;
  std::string chaos_points;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--policy") {
      const auto p = parse_policy(next());
      if (!p) {
        std::fprintf(stderr, "unknown policy\n");
        return 2;
      }
      policy = *p;
    } else if (arg == "--theta") {
      theta = parse_list(next());
    } else if (arg == "--load") {
      load = std::stod(next());
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--slots") {
      slots = std::stoi(next());
    } else if (arg == "--mix") {
      const auto v = next();
      const auto colon = v.find(':');
      mix_low = std::stod(v.substr(0, colon));
      mix_high = colon == std::string::npos ? 1.0 : std::stod(v.substr(colon + 1));
    } else if (arg == "--sprint-timeout") {
      sprint_timeout = std::stod(next());
    } else if (arg == "--sprint-budget") {
      sprint_budget = std::stod(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--engine-wordcount") {
      engine_wordcount = true;
    } else if (arg == "--adaptive-plan") {
      adaptive_plan = true;
    } else if (arg == "--runtime-sprint") {
      runtime_sprint = true;
    } else if (arg == "--runtime-overload") {
      runtime_overload = true;
    } else if (arg == "--admission") {
      const auto v = next();
      if (v == "block") {
        admission = core::AdmissionPolicy::kBlock;
      } else if (v == "reject") {
        admission = core::AdmissionPolicy::kReject;
      } else if (v == "shed") {
        admission = core::AdmissionPolicy::kShedOldestLowest;
      } else {
        std::fprintf(stderr, "unknown admission policy %s\n", v.c_str());
        return 2;
      }
    } else if (arg == "--queue-cap") {
      queue_cap = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--deadline") {
      deadlines = parse_list(next());
    } else if (arg == "--adaptive") {
      adaptive = true;
    } else if (arg == "--theta-ceiling") {
      theta_ceiling = parse_list(next());
    } else if (arg == "--overload-jobs") {
      overload_jobs = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--overload-period-ms") {
      overload_period_ms = std::stod(next());
    } else if (arg == "--memory-capacity-mb") {
      memory_capacity_mb = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--job-memory-mb") {
      job_memory_mb = parse_list(next());
    } else if (arg == "--tenants") {
      tenants = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--shuffle-budget-bytes") {
      shuffle_budget_bytes = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--spill-dir") {
      spill_dir = next();
    } else if (arg == "--reserve-workers") {
      reserve_workers = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--sprint-replenish") {
      sprint_replenish = std::stod(next());
    } else if (arg == "--bursts") {
      bursts = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--rows") {
      rows = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--partitions") {
      partitions = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--max-attempts") {
      fault.max_attempts = std::stoi(next());
    } else if (arg == "--retry-backoff-ms") {
      fault.retry_backoff_ms = std::stod(next());
    } else if (arg == "--speculation") {
      fault.speculation = true;
    } else if (arg == "--chaos-seed") {
      chaos_seed = std::stoull(next());
    } else if (arg == "--chaos-rate") {
      chaos_rate = std::stod(next());
    } else if (arg == "--chaos-points") {
      chaos_points = next();
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (chaos_rate > 0.0 || !chaos_points.empty()) {
    try {
      chaos::ChaosSchedule schedule;
      schedule.seed = chaos_seed;
      if (!chaos_points.empty()) {
        schedule.points = chaos::ChaosSchedule::parse_points(chaos_points);
      } else {
        // --chaos-rate alone: arm every injection point with throws.
        chaos::PointSpec spec;
        spec.shape = chaos::Shape::kThrow;
        spec.rate = chaos_rate;
        schedule.points.emplace_back("*", spec);
      }
      chaos::ChaosPlane::instance().install(schedule);
      std::fprintf(stderr, "chaos: armed (seed %llu)\n",
                   static_cast<unsigned long long>(chaos_seed));
    } catch (const dias::config_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  obs::Registry obs_metrics;
  obs::Tracer obs_tracer;
  const bool want_obs = !metrics_out.empty() || !trace_out.empty();

  if (runtime_overload) {
    const int rc = run_runtime_overload(admission, queue_cap, std::move(deadlines),
                                        adaptive, std::move(theta_ceiling),
                                        overload_jobs, overload_period_ms,
                                        memory_capacity_mb, std::move(job_memory_mb),
                                        tenants, csv,
                                        want_obs ? &obs_metrics : nullptr,
                                        want_obs ? &obs_tracer : nullptr);
    if (!flush_observability(metrics_out, trace_out, obs_metrics, obs_tracer)) return 1;
    return rc;
  }

  if (runtime_sprint) {
    const int rc = run_runtime_sprint(bursts, reserve_workers, sprint_timeout,
                                      sprint_budget, sprint_replenish, csv,
                                      want_obs ? &obs_metrics : nullptr,
                                      want_obs ? &obs_tracer : nullptr);
    if (!flush_observability(metrics_out, trace_out, obs_metrics, obs_tracer)) return 1;
    return rc;
  }

  if (engine_wordcount) {
    const int rc = run_engine_wordcount(theta.empty() ? 0.2 : theta.front(), rows,
                                        partitions, seed, fault, shuffle_budget_bytes,
                                        std::move(spill_dir), adaptive_plan, csv,
                                        want_obs ? &obs_metrics : nullptr,
                                        want_obs ? &obs_tracer : nullptr);
    if (!flush_observability(metrics_out, trace_out, obs_metrics, obs_tracer)) return 1;
    return rc;
  }

  // Reference workload shapes, mixed and scaled to the requested load.
  workload::ClassWorkloadParams low;
  low.arrival_rate = mix_low;
  low.mean_size_mb = 1117.0;
  low.map_seconds_per_mb = 0.9;
  low.reduce_seconds_per_mb = 0.18;
  low.label = "low";
  auto high = low;
  high.arrival_rate = mix_high;
  high.mean_size_mb = 473.0;
  high.label = "high";
  std::vector<workload::ClassWorkloadParams> classes{low, high};
  workload::calibrate_rates_by_pilot(classes, slots, load,
                                     cluster::TaskTimeFamily::kLogNormal);

  workload::TraceGenerator gen(seed);
  auto trace = gen.text_trace(classes, jobs);

  core::ExperimentConfig config;
  config.policy = policy;
  config.slots = slots;
  config.theta = theta;
  config.sprint.speedup = 2.5;
  config.sprint.budget_joules = sprint_budget;
  config.sprint.budget_cap_joules = sprint_budget;
  config.sprint.timeout_s = {std::numeric_limits<double>::infinity(), sprint_timeout};
  config.warmup_jobs = jobs / 10;
  config.seed = seed + 1;
  if (want_obs) {
    config.metrics = &obs_metrics;
    config.tracer = &obs_tracer;
  }
  const auto result = core::run_experiment(config, std::move(trace));
  if (!flush_observability(metrics_out, trace_out, obs_metrics, obs_tracer)) return 1;

  if (csv) {
    std::printf("class,completed,mean_s,p50_s,p95_s,p99_s,queue_s,exec_s\n");
    for (std::size_t k = result.per_class.size(); k-- > 0;) {
      const auto& m = result.per_class[k];
      if (m.completed == 0) continue;
      std::printf("%zu,%zu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n", k, m.completed,
                  m.response.mean(), m.response.p50(), m.response.p95(),
                  m.response.p99(), m.queueing.mean(), m.execution.mean());
    }
    std::printf("waste,%.4f\nenergy_j,%.0f\nutilization,%.4f\n", result.resource_waste(),
                result.energy_joules, result.utilization());
    return 0;
  }

  std::printf("policy %s, %zu jobs, %d slots, target load %.2f\n",
              core::to_string(policy), jobs, slots, load);
  for (std::size_t k = result.per_class.size(); k-- > 0;) {
    const auto& m = result.per_class[k];
    if (m.completed == 0) continue;
    std::printf("  class %zu (%s): %zu jobs, mean %.1f s, p95 %.1f s, queue %.1f s, "
                "exec %.1f s\n",
                k, k + 1 == result.per_class.size() ? "high" : "low", m.completed,
                m.response.mean(), m.response.p95(), m.queueing.mean(),
                m.execution.mean());
  }
  std::printf("  waste %.1f%%, energy %.1f MJ, utilization %.1f%%, evictions %zu\n",
              100.0 * result.resource_waste(), result.energy_joules / 1e6,
              100.0 * result.utilization(), result.total_evictions);
  return 0;
}
