// The benchmark's run loop: repeated set-up, the timed phase through
// DiasDispatcher, result checks, and the metrics of one run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <streambuf>
#include <thread>

#include "harness.hpp"

namespace diasbench {
namespace {

namespace core = dias::core;
namespace eng = dias::engine;
using JobRecord = core::DiasDispatcher::JobRecord;

constexpr int kSetupReps = 3;
// Per-layer self times of a job, each clipped at zero, must add up to its
// response time within this share.
constexpr double kReconcileTolerance = 0.01;

// --- output -------------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quoted(entries_[i].name) + ": {\"value\": " + number(entries_[i].value) +
             ", \"unit\": " + quoted(entries_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

class Diagnostics {
 public:
  void add(const std::string& key, double v) { fields_.emplace_back(key, number(v)); }
  void add(const std::string& key, const std::string& v) { fields_.emplace_back(key, quoted(v)); }
  std::string json() const {
    std::string out = "{\"diagnostics\": {";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Counts bytes written through an ostream.
class CountingBuf final : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- the timed phase ----------------------------------------------------------------

struct Phase {
  std::deque<JobStamp> stamps;
  std::vector<JobRecord> records;  // indexed by admit seq == stamp id
  core::DiasDispatcher::LoadSnapshot snapshot;
  double t_start = 0.0;
  double t_end = 0.0;
  std::optional<CpuTimes> cpu_before;
  std::optional<CpuTimes> cpu_after;
  std::size_t sprint_grants = 0;
  std::size_t sprint_denied = 0;
  double energy_j = 0.0;
  std::size_t trace_events = 0;
  double trace_mb = 0.0;
  std::vector<StorageOp> storage_ops;
  std::string job_span;
  double offset_uncertainty_s = 0.0;
  bool offset_ok = true;
};

Phase run_phase(Workload& w, const Options& opt) {
  Phase ph;
  const Plan& plan = w.plan();
  ph.job_span = plan.job_span;
  auto stack = w.make_stack();
  core::DiasDispatcher& disp = *stack->dispatcher;
  eng::Engine& engine = w.engine();
  TimedSpill* spill = w.spill();
  Checker checker;

  // Closed loop: job bodies report (client, end time) here.
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::deque<std::pair<std::size_t, double>> done;

  const auto submit = [&](std::size_t cls, std::uint64_t tenant, std::size_t client,
                          double due) {
    JobStamp& s = ph.stamps.emplace_back();
    s.id = ph.stamps.size() - 1;
    s.cls = cls;
    s.client = client;
    s.due.due_s = due;
    JobStamp* job = &s;
    s.due.submit_s = now_s();
    disp.submit(cls, core::TenantId{tenant},
                [&, job](const core::DiasDispatcher::JobContext& ctx) {
                  if (spill != nullptr) spill->set_current_job(job->id + 1);
                  job->body_start_s = now_s();
                  w.run_job(*job, ctx.theta, checker);
                  job->body_end_s = now_s();
                  if (opt.trace) {
                    job->stages = engine.stage_log();
                    job->trace_cost_s = now_s() - job->body_end_s;
                  }
                  if (plan.closed_loop) {
                    {
                      std::lock_guard lock(done_mu);
                      done.emplace_back(job->client, now_s());
                    }
                    done_cv.notify_one();
                  }
                });
    s.submit_end_s = now_s();
  };

  ph.cpu_before = read_proc_stat();
  ph.t_start = now_s() + 0.001;
  const double stop = ph.t_start + opt.seconds;
  if (!plan.closed_loop) {
    for (const auto& a : plan.arrivals) {
      const double due = ph.t_start + a.due_s;
      sleep_until_s(due);
      submit(a.cls, a.tenant, 0, due);
    }
  } else {
    std::vector<std::uint64_t> rounds(plan.clients.size(), 0);
    using Due = std::pair<double, std::size_t>;
    std::priority_queue<Due, std::vector<Due>, std::greater<>> next;
    sleep_until_s(ph.t_start);
    for (std::size_t c = 0; c < plan.clients.size(); ++c) submit(plan.clients[c], 0, c, ph.t_start);
    std::unique_lock lock(done_mu);
    for (;;) {
      while (!done.empty()) {
        const auto [c, t] = done.front();
        done.pop_front();
        next.emplace(t + think_time(opt.seed, c, ++rounds[c], plan.think_lo_s, plan.think_hi_s),
                     c);
      }
      if (now_s() >= stop) break;
      if (!next.empty() && next.top().first <= now_s()) {
        const auto [due, c] = next.top();
        next.pop();
        lock.unlock();
        submit(plan.clients[c], 0, c, due);
        lock.lock();
        continue;
      }
      const double wake = next.empty() ? stop : std::min(stop, next.top().first);
      done_cv.wait_until(lock, steady_at(wake));
    }
  }
  auto records = disp.drain();
  ph.t_end = now_s();
  ph.cpu_after = read_proc_stat();
  ph.snapshot = disp.load_snapshot();
  checker.finish();

  if (stack->governor) {
    ph.sprint_grants = stack->governor->sprints_granted();
    ph.sprint_denied = stack->governor->sprints_denied();
    ph.energy_j = stack->governor->budget_consumed();
  }
  if (stack->tracer) {
    ph.trace_events = stack->tracer->event_count();
    CountingBuf counter;
    std::ostream os(&counter);
    stack->tracer->write_jsonl(os);
    ph.trace_mb = static_cast<double>(counter.bytes) / 1e6;
  }
  if (spill != nullptr) ph.storage_ops = spill->take_ops();
  stack.reset();

  ph.records.resize(ph.stamps.size());
  for (auto& r : records) {
    if (r.seq < ph.records.size()) ph.records[r.seq] = std::move(r);
  }
  // Map the dispatcher's clock onto ours: its arrival stamp lies inside our
  // submit call, its start precedes our body start, and its completion
  // follows our body end.
  constexpr double kFar = 1e18;
  std::vector<Bracket> brackets;
  for (std::size_t i = 0; i < ph.stamps.size(); ++i) {
    const JobStamp& s = ph.stamps[i];
    const JobRecord& r = ph.records[i];
    brackets.push_back({s.due.submit_s, s.submit_end_s, r.arrival_s});
    if (r.outcome == core::JobOutcome::kCompleted) {
      brackets.push_back({-kFar, s.body_start_s, r.start_s});
      brackets.push_back({s.body_end_s + s.trace_cost_s, kFar, r.completion_s});
    }
  }
  auto offset = clock_offset(brackets, &ph.offset_uncertainty_s);
  if (!offset) {
    ph.offset_ok = false;
    offset = ph.stamps.empty() ? 0.0 : ph.stamps[0].due.submit_s - ph.records[0].arrival_s;
  }
  for (std::size_t i = 0; i < ph.stamps.size(); ++i) {
    ph.stamps[i].due.completion_s = ph.records[i].completion_s + *offset;
  }
  return ph;
}

// --- per-layer attribution -----------------------------------------------------------

// One job's wall time split into layer self times; the parts tile
// due -> completion exactly, so their sum is the response time unless a
// part came out negative (a stamp out of order).
struct LayerSplit {
  double workload = 0.0;   // generator lateness
  double submit = 0.0;     // core: submit() call
  double queue = 0.0;      // core: submit return -> body start
  double analytics = 0.0;  // body time outside engine stages (job glue)
  double engine = 0.0;     // stage time outside storage calls
  double storage = 0.0;    // wall time with a spill call in flight
  double trace = 0.0;      // trace bookkeeping inside the job
  double complete = 0.0;   // core: body end -> completion stamp
  double stage_sum = 0.0;
};

// The runner may start a job before submit() has returned to the generator
// (the woken runner can preempt it), so the submit part ends at whichever
// comes first: the rest of the call overlaps the body and blocks nothing.
double submit_end_on_path(const JobStamp& s) { return std::min(s.submit_end_s, s.body_start_s); }

LayerSplit split_job(const JobStamp& s, const std::vector<std::pair<double, double>>& storage) {
  LayerSplit l;
  l.workload = s.due.submit_s - s.due.due_s;
  l.submit = submit_end_on_path(s) - s.due.submit_s;
  l.queue = s.body_start_s - submit_end_on_path(s);
  for (const auto& st : s.stages) l.stage_sum += st.duration_s;
  l.storage = union_length(storage, s.body_start_s, s.body_end_s);
  l.analytics = (s.body_end_s - s.body_start_s) - l.stage_sum;
  l.engine = l.stage_sum - l.storage;
  l.trace = s.trace_cost_s;
  l.complete = s.due.completion_s - (s.body_end_s + s.trace_cost_s);
  return l;
}

// Writes the run's spans: per job a bench.job root tiled by its layer
// spans. The stage log holds durations, not start times, so engine stage
// spans are laid end to end from the body start (job glue shows after the
// last one) and storage spans hang off the analytics call.
void write_trace(const std::string& path, const Phase& ph,
                 const std::map<std::uint64_t, std::vector<const StorageOp*>>& ops) {
  std::vector<Span> spans;
  std::uint64_t next_id = 1;
  for (const auto& s : ph.stamps) {
    if (ph.records[s.id].outcome != core::JobOutcome::kCompleted) continue;
    const std::uint64_t job = s.id + 1;
    const std::uint64_t root = next_id++;
    spans.push_back({root, 0, job, "bench.job", s.due.due_s, s.due.completion_s});
    const auto child = [&](const char* name, double a, double b, std::uint64_t parent) {
      spans.push_back({next_id++, parent, job, name, a, b});
      return spans.back().id;
    };
    child("gen.late", s.due.due_s, s.due.submit_s, root);
    child("core.submit", s.due.submit_s, submit_end_on_path(s), root);
    child("core.queue", submit_end_on_path(s), s.body_start_s, root);
    const std::uint64_t body =
        child(ph.job_span.c_str(), s.body_start_s, s.body_end_s, root);
    double t = s.body_start_s;
    for (const auto& st : s.stages) {
      child(("engine." + st.name).c_str(), t, t + st.duration_s, body);
      t += st.duration_s;
    }
    if (const auto it = ops.find(job); it != ops.end()) {
      for (const StorageOp* op : it->second) child(op->name, op->t0_s, op->t1_s, body);
    }
    child("bench.trace", s.body_end_s, s.body_end_s + s.trace_cost_s, root);
    child("core.complete", s.body_end_s + s.trace_cost_s, s.due.completion_s, root);
  }
  const auto self = self_times(spans);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    out << "{\"id\":" << sp.id << ",\"parent\":" << sp.parent << ",\"job\":" << sp.job
        << ",\"name\":" << quoted(sp.name) << ",\"t0_s\":" << number(sp.t0_s)
        << ",\"t1_s\":" << number(sp.t1_s) << ",\"self_s\":" << number(self[i]) << "}\n";
  }
}

void add_per_layer(Metrics& m, const Phase& ph, const Options& opt, const Plan& plan,
                   const std::vector<SetupTimes>& setups, double speedup, bool& reconciled,
                   Diagnostics& diag) {
  const auto& stamps = ph.stamps;
  const auto& records = ph.records;
  std::vector<const JobStamp*> done;
  for (const auto& s : stamps) {
    if (records[s.id].outcome == core::JobOutcome::kCompleted) done.push_back(&s);
  }
  const double jobs = std::max<double>(1.0, static_cast<double>(done.size()));

  // core
  std::vector<double> wait[2], submit_s;
  for (const auto* s : done) wait[s->cls].push_back(records[s->id].queueing_s());
  for (const auto& s : stamps) submit_s.push_back(s.submit_end_s - s.due.submit_s);
  std::vector<const JobRecord*> by_start;
  for (const auto* s : done) by_start.push_back(&records[s->id]);
  std::sort(by_start.begin(), by_start.end(),
            [](const auto* a, const auto* b) { return a->start_s < b->start_s; });
  std::vector<double> gaps;
  for (std::size_t i = 0; i < by_start.size(); ++i) {
    const double ready = i == 0 ? by_start[i]->arrival_s
                                : std::max(by_start[i]->arrival_s, by_start[i - 1]->completion_s);
    gaps.push_back(by_start[i]->start_s - ready);
  }
  std::vector<double> plan_s;
  for (const auto& st : setups) plan_s.push_back(st.plan_s);
  for (std::size_t c : {kHigh, kLow}) {
    const std::string p = std::string("core.") + class_name(c);
    m.add(p + ".queue_wait_p50_s", percentile(wait[c], 50), "s");
    m.add(p + ".queue_wait_p95_s", percentile(wait[c], 95), "s");
  }
  m.add("core.dispatch_gap_mean_s", mean(gaps), "s");
  m.add("core.submit_p99_s", percentile(submit_s, 99), "s");
  m.add("core.runner_busy_frac", ph.snapshot.busy_s / (ph.t_end - ph.t_start), "ratio");
  m.add("core.deflator_plan_s", percentile(plan_s, 50), "s");

  // runtime
  std::vector<double> sprint_s;
  for (const auto* s : done) {
    if (s->cls == kHigh) sprint_s.push_back(records[s->id].sprint_s());
  }
  m.add("runtime.sprint_grants", static_cast<double>(ph.sprint_grants), "count");
  m.add("runtime.sprint_denied", static_cast<double>(ph.sprint_denied), "count");
  m.add("runtime.high.sprint_s_per_job", mean(sprint_s), "s");
  m.add("runtime.energy_consumed_j", ph.energy_j, "J");
  m.add("runtime.high.sprint_j_per_job",
        ph.energy_j / std::max<double>(1.0, static_cast<double>(sprint_s.size())), "J");

  // analytics
  std::vector<double> exec[2];
  for (const auto* s : done) exec[s->cls].push_back(s->body_end_s - s->body_start_s);
  for (std::size_t c : {kHigh, kLow}) {
    const std::string p = std::string("analytics.") + class_name(c);
    m.add(p + ".exec_p50_s", percentile(exec[c], 50), "s");
    m.add(p + ".exec_p95_s", percentile(exec[c], 95), "s");
  }

  // engine
  double map_s = 0, write_s = 0, merge_s = 0, glue_s = 0, task_s = 0, stage_s = 0;
  double stages = 0, executed = 0, dropped = 0, records_in = 0, records_out = 0;
  double shuffle_b = 0, retries = 0, spec = 0, wins = 0, spill_b = 0, restored_b = 0;
  double fallback = 0;
  std::vector<double> skew, eff_drop;
  for (const auto* s : done) {
    double body_stage = 0;
    for (const auto& st : s->stages) {
      switch (st.kind) {
        case eng::EngineStageKind::kShuffleWrite:
          write_s += st.duration_s;
          records_in += static_cast<double>(st.shuffle_records_in);
          records_out += static_cast<double>(st.shuffle_records_out);
          shuffle_b += static_cast<double>(st.shuffle_bytes);
          spill_b += static_cast<double>(st.shuffle_spill_bytes);
          break;
        case eng::EngineStageKind::kReduce:
          merge_s += st.duration_s;
          restored_b += static_cast<double>(st.shuffle_restored_bytes);
          if (st.shuffle_records_in > 0) skew.push_back(st.shuffle_merge_skew);
          break;
        default:
          map_s += st.duration_s;  // map, shuffle-map and result stages
      }
      if (st.applied_drop_ratio > 0.0) eff_drop.push_back(st.effective_drop_ratio);
      body_stage += st.duration_s;
      stage_s += st.duration_s;
      for (double t : st.task_times_s) task_s += t;
      stages += 1;
      executed += static_cast<double>(st.executed_partitions);
      dropped += static_cast<double>(st.total_partitions - st.executed_partitions);
      retries += static_cast<double>(st.retries);
      spec += static_cast<double>(st.speculative_launched);
      wins += static_cast<double>(st.speculative_wins);
      fallback += static_cast<double>(st.shuffle_spill_fallback_segments);
    }
    glue_s += (s->body_end_s - s->body_start_s) - body_stage;
  }
  m.add("engine.map_s_per_job", map_s / jobs, "s");
  m.add("engine.shuffle_write_s_per_job", write_s / jobs, "s");
  m.add("engine.merge_s_per_job", merge_s / jobs, "s");
  m.add("engine.glue_s_per_job", glue_s / jobs, "s");
  m.add("engine.lane_busy_frac",
        stage_s > 0 ? task_s / (stage_s * static_cast<double>(plan.engine_workers)) : 0.0,
        "ratio");
  m.add("engine.stages_per_job", stages / jobs, "count");
  m.add("engine.tasks_executed_per_job", executed / jobs, "count");
  m.add("engine.tasks_dropped_per_job", dropped / jobs, "count");
  m.add("engine.effective_drop_ratio", mean(eff_drop), "ratio");
  m.add("engine.combine_ratio", records_in > 0 ? records_out / records_in : 0.0, "ratio");
  m.add("engine.shuffle_mb_per_job", shuffle_b / 1e6 / jobs, "MB");
  m.add("engine.merge_skew_p50", percentile(skew, 50), "ratio");
  m.add("engine.retries_per_job", retries / jobs, "count");
  m.add("engine.speculative_launched_per_job", spec / jobs, "count");
  m.add("engine.speculative_win_ratio", spec > 0 ? wins / spec : 0.0, "ratio");
  m.add("engine.spill_mb_per_job", spill_b / 1e6 / jobs, "MB");
  m.add("engine.restored_mb_per_job", restored_b / 1e6 / jobs, "MB");
  m.add("engine.spill_fallback_segments", fallback, "count");
  m.add("engine.speedup_vs_1w", speedup, "ratio");

  // storage
  std::map<std::string, std::vector<double>> op_t;
  double write_b = 0, read_b = 0, write_t = 0, read_t = 0;
  std::map<std::uint64_t, std::vector<const StorageOp*>> ops_by_job;
  for (const auto& op : ph.storage_ops) {
    const double d = op.t1_s - op.t0_s;
    op_t[op.name].push_back(d);
    if (std::string(op.name) == "storage.spill.write") {
      write_b += static_cast<double>(op.bytes);
      write_t += d;
    } else if (std::string(op.name) == "storage.spill.read") {
      read_b += static_cast<double>(op.bytes);
      read_t += d;
    }
    ops_by_job[op.job].push_back(&op);
  }
  m.add("storage.spill_write_p50_s", percentile(op_t["storage.spill.write"], 50), "s");
  m.add("storage.spill_write_p99_s", percentile(op_t["storage.spill.write"], 99), "s");
  m.add("storage.spill_open_p50_s", percentile(op_t["storage.spill.open"], 50), "s");
  m.add("storage.spill_write_mb_per_s", write_t > 0 ? write_b / 1e6 / write_t : 0.0, "MB/s");
  m.add("storage.spill_read_mb_per_s", read_t > 0 ? read_b / 1e6 / read_t : 0.0, "MB/s");
  m.add("storage.spill_ops_per_job", static_cast<double>(ph.storage_ops.size()) / jobs, "count");

  // workload
  std::vector<double> corpus, graph, reference;
  for (const auto& st : setups) {
    corpus.push_back(st.corpus_gen_s);
    graph.push_back(st.graph_gen_s);
    reference.push_back(st.reference_s);
  }
  m.add("workload.corpus_gen_s", percentile(corpus, 50), "s");
  m.add("workload.graph_gen_s", percentile(graph, 50), "s");
  m.add("workload.reference_s", percentile(reference, 50), "s");

  // obs
  m.add("obs.trace_events_per_job", static_cast<double>(ph.trace_events) / jobs, "count");
  m.add("obs.trace_mb_end", ph.trace_mb, "MB");

  // Self time per layer, and the reconciliation of its parts.
  LayerSplit sum;
  double worst = 0.0, trace_cost = 0.0, response = 0.0;
  for (const auto* s : done) {
    std::vector<std::pair<double, double>> iv;
    if (const auto it = ops_by_job.find(s->id + 1); it != ops_by_job.end()) {
      for (const StorageOp* op : it->second) iv.emplace_back(op->t0_s, op->t1_s);
    }
    const LayerSplit l = split_job(*s, iv);
    const double parts[] = {l.workload, l.submit, l.queue, l.analytics,
                            l.engine,   l.storage, l.trace, l.complete};
    double clipped = 0.0;
    for (double p : parts) clipped += std::max(0.0, p);
    const double r = response_from_due(s->due);
    if (r > 0) worst = std::max(worst, std::abs(clipped - r) / r);
    sum.workload += l.workload;
    sum.submit += l.submit;
    sum.queue += l.queue;
    sum.analytics += l.analytics;
    sum.engine += l.engine;
    sum.storage += l.storage;
    sum.complete += l.complete;
    trace_cost += l.trace;
    response += r;
  }
  reconciled = ph.offset_ok && worst <= kReconcileTolerance;
  m.add("self.workload_s_per_job", sum.workload / jobs, "s");
  m.add("self.core_s_per_job", (sum.submit + sum.queue + sum.complete) / jobs, "s");
  m.add("self.analytics_s_per_job", sum.analytics / jobs, "s");
  m.add("self.engine_s_per_job", sum.engine / jobs, "s");
  m.add("self.storage_s_per_job", sum.storage / jobs, "s");
  m.add("trace.reconcile_max_err_pct", 100.0 * worst, "%");
  m.add("trace.overhead_pct", response > 0 ? 100.0 * trace_cost / response : 0.0, "%");
  diag.add("trace.reconcile_tolerance_pct", 100.0 * kReconcileTolerance);
  diag.add("trace.reconciled", reconciled ? "yes" : "no");

  const std::string path = opt.work_dir + "/trace-" + opt.workload + ".jsonl";
  write_trace(path, ph, ops_by_job);
  diag.add("trace.file", path);
}

}  // namespace

int run_benchmark(const Options& opt) {
  const std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  // Set-up, repeated; the median is the metric and the last state is kept.
  std::vector<SetupTimes> setups(kSetupReps);
  std::vector<double> setup_total;
  for (auto& st : setups) {
    const double t0 = now_s();
    w->setup(st);
    setup_total.push_back(now_s() - t0);
  }
  if (w->spill() != nullptr) w->spill()->set_tracing(opt.trace);
  std::fprintf(stderr, "%s: set-up done (median %.3f s), measuring %.0f s\n",
               opt.workload.c_str(), percentile(setup_total, 50), opt.seconds);

  Phase ph = run_phase(*w, opt);
  const Plan& plan = w->plan();

  // Outcomes and checks.
  std::size_t completed = 0, failed = 0, wrong = 0;
  std::vector<double> response[2], late, low_error;
  for (const auto& s : ph.stamps) {
    const JobRecord& r = ph.records[s.id];
    late.push_back(generator_lateness(s.due));
    if (r.outcome != core::JobOutcome::kCompleted) {
      ++failed;
      continue;
    }
    ++completed;
    if (!s.checked || !s.correct) {
      ++failed;
      ++wrong;
      continue;
    }
    response[s.cls].push_back(response_from_due(s.due));
    if (s.cls == kLow) low_error.push_back(s.error_pct);
  }
  const std::size_t attempted = ph.stamps.size();

  Metrics m;
  Diagnostics diag;
  bool reconciled = true;
  if (!opt.trace) {
    m.add("setup_s", percentile(setup_total, 50), "s");
    for (std::size_t c : {kHigh, kLow}) {
      const std::string p = class_name(c);
      m.add(p + ".response_p50_s", percentile(response[c], 50), "s");
      m.add(p + ".response_p95_s", percentile(response[c], 95), "s");
    }
    m.add("capacity_jobs_per_s",
          ph.snapshot.busy_s > 0 ? static_cast<double>(completed) / ph.snapshot.busy_s : 0.0,
          "jobs/s");
    m.add("low.error_pct", mean(low_error), "%");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double speedup = w->speedup_vs_1w();
    add_per_layer(m, ph, opt, plan, setups, speedup, reconciled, diag);
    m.add("host.steal_pct",
          ph.cpu_before && ph.cpu_after ? steal_pct(*ph.cpu_before, *ph.cpu_after) : 0.0, "%");
    m.add("gen.late_p99_s", percentile(late, 99), "s");
    m.add("gen.late_max_s", percentile(late, 100), "s");
  }

  // Noise diagnostics and context, on every run.
  diag.add("workload", opt.workload);
  diag.add("seed", static_cast<double>(opt.seed));
  diag.add("seconds", opt.seconds);
  diag.add("trace", opt.trace ? "1" : "0");
  diag.add("host.nproc", static_cast<double>(std::thread::hardware_concurrency()));
  diag.add("host.build_type", DIASBENCH_BUILD_TYPE);
  diag.add("host.compiler", __VERSION__);
  diag.add("host.git_sha", opt.git_sha);
  diag.add("host.steal_pct",
           ph.cpu_before && ph.cpu_after ? steal_pct(*ph.cpu_before, *ph.cpu_after) : 0.0);
  diag.add("gen.late_p99_s", percentile(late, 99));
  diag.add("gen.late_max_s", percentile(late, 100));
  diag.add("failed_pct", attempted > 0 ? 100.0 * static_cast<double>(failed) /
                                             static_cast<double>(attempted)
                                       : 0.0);
  diag.add("wrong_results", static_cast<double>(wrong));
  for (std::size_t c : {kHigh, kLow}) {
    const std::string p = class_name(c);
    diag.add(p + ".samples", static_cast<double>(response[c].size()));
    diag.add(p + ".supported_percentile", supported_percentile(response[c].size()));
    diag.add(p + ".theta", plan.theta[c]);
    diag.add(p + ".sprint_timeout_s",
             std::isfinite(plan.sprint_timeout[c]) ? plan.sprint_timeout[c] : -1.0);
  }
  diag.add("high.sprint_j_per_job",
           ph.energy_j / std::max<double>(1.0, static_cast<double>(response[kHigh].size())));
  diag.add("tenant.deflated", static_cast<double>(ph.snapshot.tenant_deflated));
  diag.add("tenant.deprioritized", static_cast<double>(ph.snapshot.tenant_deprioritized));
  diag.add("tenant.shed", static_cast<double>(ph.snapshot.tenant_shed));
  diag.add("clock_offset_uncertainty_s", ph.offset_uncertainty_s);
  diag.add("runner_busy_frac", ph.snapshot.busy_s / (ph.t_end - ph.t_start));
  std::printf("%s\n", diag.json().c_str());

  const bool correct = wrong == 0 && reconciled;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.json().c_str());
  std::fflush(stdout);
  return correct && failed == 0 && attempted > 0 ? 0 : 1;
}

}  // namespace diasbench
