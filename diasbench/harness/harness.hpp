// Shared machinery of the DiAS benchmark harness: run options, per-job
// stamps, the storage timing decorator, the result checker, the dispatcher
// stack each workload builds, and the workload interface run_loop.cpp runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hpp"
#include "core/dispatcher.hpp"
#include "engine/engine.hpp"
#include "engine/spill.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/sprint_governor.hpp"

namespace diasbench {

// Seconds on the benchmark's steady clock (shared by every thread).
double now_s();
// Sleeps until now_s() >= t.
void sleep_until_s(double t);
// The steady-clock time point of benchmark time t.
std::chrono::steady_clock::time_point steady_at(double t);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";  // spill store + trace files
  std::string git_sha = "unknown";
};

// Priority classes: the dispatcher serves higher indices first.
inline constexpr std::size_t kLow = 0;
inline constexpr std::size_t kHigh = 1;
inline const char* class_name(std::size_t cls) { return cls == kHigh ? "high" : "low"; }

// One storage call seen by the timing decorator.
struct StorageOp {
  std::uint64_t job = 0;
  const char* name = "";  // storage.spill.{write,open,read,release}
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::uint64_t bytes = 0;
};

// Everything the benchmark knows about one submitted job, on its own clock.
struct JobStamp {
  std::uint64_t id = 0;  // submission index == dispatcher admit seq
  std::size_t cls = kLow;
  std::size_t client = 0;  // closed loop: which client submitted it
  DueStamp due;            // due / submit start / completion
  double submit_end_s = 0.0;
  double body_start_s = 0.0;
  double body_end_s = 0.0;
  // Written by the checker thread; read after Checker::finish().
  bool checked = false;
  bool correct = true;
  double error_pct = 0.0;
  // Traced runs only: the engine's stage log and the trace work done inside
  // the job (copying that log), which the job's response time includes.
  std::vector<dias::engine::StageInfo> stages;
  double trace_cost_s = 0.0;
};

// Runs result checks on one background thread so they stay off every job's
// timed interval: a job body hands over its result and returns.
class Checker {
 public:
  Checker();
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;
  void post(std::function<void()> check);
  // Waits until every posted check has run.
  void finish();

 private:
  void loop();
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::size_t pending_ = 0;
  std::condition_variable idle_cv_;
  std::thread thread_;
};

// Timing decorator around the real spill backend. In a traced run it
// records each call as a storage span of the job that the runner is
// executing (the runner executes one job at a time, so worker
// threads attribute their calls through `current_job`).
class TimedSpill final : public dias::engine::SpillBackend {
 public:
  explicit TimedSpill(dias::engine::SpillBackend& inner) : inner_(inner) {}
  void set_tracing(bool on) { tracing_ = on; }
  void set_current_job(std::uint64_t job) { current_job_.store(job); }

  std::uint64_t write(const std::string& bytes) override;
  std::unique_ptr<dias::engine::SpillReader> open(std::uint64_t handle) override;
  void release(std::uint64_t handle) override;
  dias::engine::SpillStats stats() const override { return inner_.stats(); }

  void record(const char* name, double t0, double t1, std::uint64_t bytes);
  std::vector<StorageOp> take_ops();

 private:
  dias::engine::SpillBackend& inner_;
  bool tracing_ = false;
  std::atomic<std::uint64_t> current_job_{0};
  std::mutex mu_;
  std::vector<StorageOp> ops_;
};

// The product objects one timed phase runs through. Members are declared so
// that destruction tears the dispatcher down first, then the governor, then
// the observability sinks it reports into.
struct DispatchStack {
  std::unique_ptr<dias::obs::Registry> registry;
  std::unique_ptr<dias::obs::Tracer> tracer;
  std::unique_ptr<dias::runtime::SprintGovernor> governor;
  std::unique_ptr<dias::core::DiasDispatcher> dispatcher;
  dias::engine::Engine* observed_engine = nullptr;
  DispatchStack() = default;
  DispatchStack(const DispatchStack&) = delete;
  DispatchStack& operator=(const DispatchStack&) = delete;
  ~DispatchStack();
};

// Set-up cost of one repetition, by part.
struct SetupTimes {
  double corpus_gen_s = 0.0;
  double graph_gen_s = 0.0;
  double reference_s = 0.0;
  double plan_s = 0.0;
};

// What a workload hands the run loop after set-up.
struct Plan {
  std::vector<double> theta;          // per class, from the Deflator
  std::vector<double> sprint_timeout; // per class (inf = never)
  bool closed_loop = false;
  std::vector<Arrival> arrivals;      // open loop: the whole schedule
  // Closed loop: one client per entry (its class); think times are drawn
  // per (seed, client, round).
  std::vector<std::size_t> clients;
  double think_lo_s = 0.0;
  double think_hi_s = 0.0;
  std::size_t engine_workers = 0;
  std::string job_span;               // span name of the analytics call
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One repetition of set-up: inputs, references, Deflator plan, engine,
  // warm-up. The run loop calls it several times and keeps the last state.
  virtual void setup(SetupTimes& times) = 0;
  virtual const Plan& plan() const = 0;
  // Builds the dispatcher (plus governor / observability) for a phase.
  virtual std::unique_ptr<DispatchStack> make_stack() = 0;
  // Runs one job body on the engine and posts its check. Called on the
  // dispatcher's runner thread.
  virtual void run_job(JobStamp& stamp, double theta, Checker& checker) = 0;
  virtual dias::engine::Engine& engine() = 0;
  // Spill decorator, or null when the workload does not spill.
  virtual TimedSpill* spill() { return nullptr; }
  // Times a few high-class jobs on fresh 1- and 2-worker engines configured
  // like the workload's, outside the timed phase; returns time(1) / time(2).
  virtual double speedup_vs_1w() = 0;
};

// The workload named by options.workload; null for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& options);
// The seed-determined plan of a workload (theta, Tk, arrival schedule or
// closed-loop clients) without building its inputs; empty theta for an
// unknown name.
Plan plan_workload(const Options& options);

// Runs warm-up jobs (alternating classes) through a throwaway stack.
void warm_up(Workload& w, std::size_t jobs);

// The run loop: set-up, timed phase, checks, metrics. Returns the exit code.
int run_benchmark(const Options& options);

}  // namespace diasbench
