// The three benchmark workloads. Each builds its inputs from the seed, its
// references, a Deflator plan from constant class profiles, an engine, and
// warms up; run_loop.cpp runs the timed phase.
#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <unistd.h>

#include "analytics/page_rank.hpp"
#include "analytics/word_count.hpp"
#include "chaos/chaos.hpp"
#include "core/accuracy_profile.hpp"
#include "core/deflator.hpp"
#include "harness.hpp"
#include "storage/block_store.hpp"
#include "storage/spill_store.hpp"
#include "workload/graph_gen.hpp"
#include "workload/text_corpus.hpp"

namespace diasbench {
namespace {

namespace an = dias::analytics;
namespace core = dias::core;
namespace eng = dias::engine;
namespace model = dias::model;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Seed streams, so each input draws from its own sub-seed.
enum Stream : std::uint64_t {
  kCorpusHigh = 1,
  kCorpusLow,
  kGraph,
  kSchedule,
  kEngine,
};

// Base engine workers of every workload. With two, a vCPU the hypervisor
// preempted stalled the stage barrier of every job that was running on it,
// and a few percent of stolen time slowed jobs by 15-30%; with one, the
// slowdown stays about proportional to the time stolen.
constexpr std::size_t kWorkers = 1;

// Nominal shape of one job class on a 4-vCPU host (one worker): task counts
// and mean task times. The Deflator plans from these constants, never from
// service times measured in the run, so a faster engine shows up as a lower
// response time and not as a different plan.
struct ClassShape {
  int map_tasks = 16;
  double map_task_s = 0.002;
  int reduce_tasks = 8;
  double reduce_task_s = 0.0005;
  double overhead_s = 0.002;
};

model::JobClassProfile profile_for(const ClassShape& shape, double arrival_rate) {
  model::JobClassProfile p;
  p.arrival_rate = arrival_rate;
  p.slots = static_cast<int>(kWorkers);
  p.map_task_pmf.assign(static_cast<std::size_t>(shape.map_tasks), 0.0);
  p.map_task_pmf.back() = 1.0;
  p.reduce_task_pmf.assign(static_cast<std::size_t>(shape.reduce_tasks), 0.0);
  p.reduce_task_pmf.back() = 1.0;
  p.map_rate = 1.0 / shape.map_task_s;
  p.reduce_rate = 1.0 / shape.reduce_task_s;
  p.shuffle_rate = 1.0 / shape.overhead_s;
  p.mean_overhead_theta0 = shape.overhead_s;
  p.mean_overhead_theta90 = shape.overhead_s / 2.0;
  return p;
}

struct ClassPlanInput {
  ClassShape low;
  ClassShape high;
  double rate_per_s = 1.0;   // total arrivals per second
  double high_share = 0.5;
  core::AccuracyProfile accuracy = core::AccuracyProfile::paper_word_count();
  double low_max_error_pct = 25.0;
  // The low class's mean-response cap, as a share of its theta = 0
  // prediction: this is what makes the Deflator drop tasks at all.
  double low_latency_share = 0.85;
  // Sprint timeout for the high class; inf = no sprinting.
  double high_sprint_timeout_s = kInf;
  // Candidate thetas; empty keeps the Deflator's default grid.
  std::vector<double> theta_grid;
};

// Runs the Deflator and copies its theta / Tk into `plan`; returns the
// time plan() took.
double deflator_plan(const ClassPlanInput& in, Plan& plan) {
  const double t0 = now_s();
  std::vector<model::JobClassProfile> profiles{
      profile_for(in.low, in.rate_per_s * (1.0 - in.high_share)),
      profile_for(in.high, in.rate_per_s * in.high_share)};
  core::Deflator::Options opts;
  if (!in.theta_grid.empty()) opts.theta_grid = in.theta_grid;
  if (std::isfinite(in.high_sprint_timeout_s)) {
    // Nominal speedup of a sprinting job for the model: the reserve worker
    // joins only after Tk, so less than the 2x of doubling the workers.
    opts.sprint_speedup = 1.5;
    opts.sprint_timeout_s = in.high_sprint_timeout_s;
  }
  core::Deflator deflator(profiles, in.accuracy, opts);
  std::vector<core::ClassConstraint> constraints(2);
  constraints[kLow].max_error_percent = in.low_max_error_pct;
  constraints[kHigh].max_error_percent = 0.0;
  const auto relaxed = deflator.plan(constraints);
  DIAS_EXPECTS(relaxed.feasible, "benchmark class profiles must be plannable");
  constraints[kLow].max_mean_response_s =
      in.low_latency_share * relaxed.prediction.per_class[kLow].mean_response;
  const auto chosen = deflator.plan(constraints);
  DIAS_EXPECTS(chosen.feasible, "benchmark latency cap must be feasible");
  DIAS_EXPECTS(chosen.theta[kLow] > 0.0 && chosen.theta[kHigh] == 0.0,
               "benchmark plan must deflate the low class only");
  plan.theta = chosen.theta;
  plan.sprint_timeout = chosen.sprint_timeout_s;
  return now_s() - t0;
}

// Returns the median of `reps` timings of `fn`.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return percentile(t, 50.0);
}

// How much faster `job` runs on 2 workers than on 1: fresh engines built
// from `options`, each warmed with 3 jobs, then timed in alternation so
// that host drift hits both alike; ratio of the medians.
template <typename Job>
double speedup_2w_over_1w(eng::Engine::Options options, int reps, Job&& job) {
  options.reserve_workers = 0;
  options.workers = 1;
  eng::Engine one(options);
  options.workers = 2;
  eng::Engine two(options);
  for (int i = 0; i < 3; ++i) {
    job(one);
    job(two);
  }
  std::vector<double> t1, t2;
  for (int i = 0; i < reps; ++i) {
    t1.push_back(median_time(1, [&] { job(one); }));
    t2.push_back(median_time(1, [&] { job(two); }));
  }
  const double m2 = percentile(t2, 50.0);
  return m2 > 0.0 ? percentile(t1, 50.0) / m2 : 0.0;
}

// --- word count -----------------------------------------------------------------

constexpr std::size_t kDriftSegments = 4;
constexpr std::size_t kMapPartitions = 16;
constexpr std::size_t kReducePartitions = 8;
constexpr std::size_t kWordCountWarmupJobs = 40;
// Chaos throw rate per task attempt on the fault-tolerant path.
constexpr double kChaosRate = 0.04;

struct WordCountConfig {
  std::size_t posts_high = 2400;
  std::size_t posts_low = 5760;  // the paper's 1117/473 MB input ratio
  ClassPlanInput plan;
  // Arrivals per second. At the services measured on a 4-vCPU host (about
  // 18 ms high, 43 ms low) this loads the single runner to about 0.42, and
  // a 30 s run yields just over 200 jobs per class.
  double rate_per_s = 13.6;
  // Class mix of every block of arrivals (see stratified_schedule).
  std::vector<std::size_t> block{kHigh, kHigh, kHigh, kLow, kLow, kLow};
  std::size_t tenants = 0;
  std::size_t reserve_workers = 0;
  // Fault-tolerant path: chaos throws in tasks, retries, speculation.
  bool fault_tolerant = false;
  bool observe = false;  // product registry + tracer on dispatcher and engine
};

WordCountConfig wc_priority_open_config() {
  WordCountConfig c;
  c.plan.low = ClassShape{16, 0.0026, 8, 0.0004, 0.003};
  c.plan.high = ClassShape{16, 0.0011, 8, 0.0003, 0.002};
  c.plan.high_sprint_timeout_s = 0.008;
  c.reserve_workers = 1;
  return c;
}

WordCountConfig wc_tenants_config() {
  WordCountConfig c;
  c.posts_high = 2000;
  c.posts_low = 3000;
  c.plan.low = ClassShape{16, 0.0013, 8, 0.0003, 0.003};
  c.plan.high = ClassShape{16, 0.0009, 8, 0.0003, 0.002};
  c.block = {kHigh, kHigh, kLow, kLow, kLow};
  c.rate_per_s = 21.0;
  c.tenants = 32;
  c.fault_tolerant = true;
  c.observe = true;
  return c;
}

// The seed-determined part of a word-count run: Deflator theta / Tk and
// the arrival schedule. Returns the time the Deflator took.
double plan_word_count(const WordCountConfig& config, const Options& options, Plan& plan) {
  ClassPlanInput in = config.plan;
  in.high_share =
      static_cast<double>(std::count(config.block.begin(), config.block.end(), kHigh)) /
      static_cast<double>(config.block.size());
  in.rate_per_s = config.rate_per_s;
  const double plan_s = deflator_plan(in, plan);
  ScheduleSpec spec;
  spec.rate_per_s = in.rate_per_s;
  spec.seconds = options.seconds;
  spec.block_classes = config.block;
  spec.tenants = config.tenants;
  plan.arrivals = stratified_schedule(spec, derive_seed(options.seed, kSchedule));
  plan.engine_workers = kWorkers;
  plan.job_span = "analytics.word_count";
  return plan_s;
}

class WordCountWorkload final : public Workload {
 public:
  WordCountWorkload(const Options& options, WordCountConfig config)
      : options_(options), config_(std::move(config)) {}

  ~WordCountWorkload() override {
    if (config_.fault_tolerant) dias::chaos::ChaosPlane::instance().clear();
  }

  void setup(SetupTimes& times) override {
    double t0 = now_s();
    const auto corpus = [&](std::size_t posts, Stream stream) {
      dias::workload::TextCorpusParams p;
      p.posts = posts;
      p.drift_segments = kDriftSegments;
      p.seed = derive_seed(options_.seed, stream);
      return dias::workload::generate_text_corpus(stream == kCorpusHigh ? "high" : "low", p);
    };
    auto high = corpus(config_.posts_high, kCorpusHigh);
    auto low = corpus(config_.posts_low, kCorpusLow);
    times.corpus_gen_s = now_s() - t0;

    t0 = now_s();
    reference_[kHigh] = an::exact_word_count(high.rows);
    reference_[kLow] = an::exact_word_count(low.rows);
    times.reference_s = now_s() - t0;

    times.plan_s = plan_word_count(config_, options_, plan_);

    engine_.reset();
    eng::Engine::Options eo;
    eo.workers = plan_.engine_workers;
    eo.reserve_workers = config_.reserve_workers;
    eo.seed = derive_seed(options_.seed, kEngine);
    if (config_.fault_tolerant) {
      // No job may fail: 8 attempts at a 4% throw rate leave ~1e-11 odds per
      // task of exhausting its budget.
      eo.fault.max_attempts = 8;
      eo.fault.speculation = true;
      dias::chaos::ChaosSchedule schedule;
      schedule.seed = 0xC4A05;  // fixed: the retry pattern is part of the workload
      schedule.points.push_back(
          {dias::chaos::points::kEngineTask, {kChaosRate, dias::chaos::Shape::kThrow}});
      dias::chaos::ChaosPlane::instance().install(schedule);
    }
    engine_ = std::make_unique<eng::Engine>(eo);
    data_[kHigh] = engine_->parallelize(std::move(high.rows), kMapPartitions);
    data_[kLow] = engine_->parallelize(std::move(low.rows), kMapPartitions);

    warm_up(*this, kWordCountWarmupJobs);
  }

  const Plan& plan() const override { return plan_; }
  eng::Engine& engine() override { return *engine_; }

  std::unique_ptr<DispatchStack> make_stack() override {
    auto stack = std::make_unique<DispatchStack>();
    core::DispatcherOptions dopts;
    if (config_.tenants > 0) dopts.tenant.enabled = true;
    stack->dispatcher = std::make_unique<core::DiasDispatcher>(plan_.theta, dopts);
    if (config_.tenants > 0) {
      for (std::size_t t = 1; t <= config_.tenants; ++t) {
        stack->dispatcher->tenant_ledger()->set_weight(core::TenantId{t}, 1.0);
      }
    }
    if (std::isfinite(plan_.sprint_timeout[kHigh])) {
      dias::runtime::SprintGovernorConfig gc;
      gc.boost_workers = config_.reserve_workers;
      gc.timeout_s = plan_.sprint_timeout;
      // Ample but finite: the budget is accounted, never the bottleneck.
      gc.budget.budget_joules = 1e6;
      stack->governor =
          std::make_unique<dias::runtime::SprintGovernor>(gc, engine_->pool());
      stack->dispatcher->attach_sprint_governor(stack->governor.get());
    }
    if (config_.observe) {
      stack->registry = std::make_unique<dias::obs::Registry>();
      stack->tracer = std::make_unique<dias::obs::Tracer>();
      stack->dispatcher->attach_observability(stack->registry.get(), stack->tracer.get());
      engine_->attach_observability(stack->registry.get(), stack->tracer.get());
      stack->observed_engine = engine_.get();
    }
    return stack;
  }

  void run_job(JobStamp& stamp, double theta, Checker& checker) override {
    auto result = an::word_count(*engine_, data_[stamp.cls], kReducePartitions, theta);
    const an::WordCounts* reference = &reference_[stamp.cls];
    checker.post([&stamp, theta, reference, result = std::move(result)] {
      try {
        if (theta == 0.0) {
          stamp.correct = result.counts == *reference;
        } else {
          stamp.error_pct = an::word_count_error(*reference, result.rescaled_counts());
          stamp.correct = std::isfinite(stamp.error_pct);
        }
      } catch (const std::exception&) {
        stamp.correct = false;
      }
      stamp.checked = true;
    });
  }

  double speedup_vs_1w() override {
    return speedup_2w_over_1w(engine_->options(), 5, [&](eng::Engine& e) {
      an::word_count(e, data_[kHigh], kReducePartitions, 0.0);
    });
  }

 private:
  Options options_;
  WordCountConfig config_;
  Plan plan_;
  std::unique_ptr<eng::Engine> engine_;
  an::WordCounts reference_[2];
  eng::Dataset<std::string> data_[2];
};

// --- PageRank ---------------------------------------------------------------------

// PageRank's Deflator plan and closed-loop clients; no input dependence.
double plan_page_rank(Plan& plan) {
  ClassPlanInput in;
  // Nominal PageRank job: 2 iterations over 8 edge partitions.
  in.low = ClassShape{12, 0.003, 12, 0.002, 0.004};
  in.high = in.low;
  in.rate_per_s = 8.0;
  in.high_share = 0.5;
  // Nominal PageRank accuracy curve (L1 %, rank mass). With 8 partitions a
  // stage drops eighths, so the grid holds only those.
  in.accuracy = core::AccuracyProfile({{0.0, 0.0}, {0.125, 6.0}, {0.25, 12.0}, {0.5, 25.0}});
  in.theta_grid = {0.0, 0.125, 0.25, 0.5};
  in.low_max_error_pct = 10.0;
  in.low_latency_share = 0.97;
  const double plan_s = deflator_plan(in, plan);
  plan.closed_loop = true;
  plan.clients = {kHigh, kLow, kLow};
  // Every client thinks briefly after each completion, so the runner has
  // already picked the next queued job when the high client resubmits:
  // highs and lows alternate instead of racing for the runner.
  plan.think_lo_s = 0.002;
  plan.think_hi_s = 0.006;
  plan.engine_workers = kWorkers;
  plan.job_span = "analytics.page_rank";
  return plan_s;
}

class PageRankWorkload final : public Workload {
 public:
  explicit PageRankWorkload(const Options& options) : options_(options) {}

  ~PageRankWorkload() override {
    detach_spill();
    if (!store_root_.empty()) std::filesystem::remove_all(store_root_);
  }

  void setup(SetupTimes& times) override {
    double t0 = now_s();
    dias::workload::GraphParams gp;
    gp.scale = kScale;
    gp.edges = std::size_t{8} << kScale;
    gp.seed = derive_seed(options_.seed, kGraph);
    auto edges = dias::workload::generate_rmat_graph(gp);
    times.graph_gen_s = now_s() - t0;

    // Reference: an unbounded-budget run with the same partitioning, which
    // also measures the shuffle footprint the spill budget is cut from.
    t0 = now_s();
    eng::Engine::Options eo;
    eo.workers = kWorkers;
    eo.seed = derive_seed(options_.seed, kEngine);
    eng::Engine ref_engine(eo);
    data_ = ref_engine.parallelize(std::move(edges), kEdgePartitions);
    budget_bytes_ = 0;
    reference_ = an::page_rank(ref_engine, data_, rank_options(0.0)).ranks;
    std::size_t max_shuffle = 0;
    for (const auto& s : ref_engine.stage_log()) {
      if (s.kind == eng::EngineStageKind::kShuffleWrite) {
        max_shuffle = std::max(max_shuffle, s.shuffle_bytes);
      }
    }
    budget_bytes_ =
        std::max<std::size_t>(static_cast<std::size_t>(kBudgetShare * max_shuffle), 1);
    times.reference_s = now_s() - t0;

    times.plan_s = plan_page_rank(plan_);

    detach_spill();
    if (store_root_.empty()) {
      store_root_ = std::filesystem::path(options_.work_dir) /
                    ("spill-" + std::to_string(::getpid()));
    }
    std::filesystem::remove_all(store_root_);
    dias::storage::BlockStoreOptions so;
    so.root = store_root_;
    store_ = std::make_unique<dias::storage::BlockStore>(so);
    spill_ = std::make_unique<dias::storage::BlockStoreSpill>(*store_);
    timed_ = std::make_unique<TimedSpill>(*spill_);
    engine_ = std::make_unique<eng::Engine>(eo);
    engine_->set_spill_backend(timed_.get());

    warm_up(*this, kWarmupJobs);
  }

  const Plan& plan() const override { return plan_; }
  eng::Engine& engine() override { return *engine_; }
  TimedSpill* spill() override { return timed_.get(); }

  std::unique_ptr<DispatchStack> make_stack() override {
    auto stack = std::make_unique<DispatchStack>();
    stack->dispatcher = std::make_unique<core::DiasDispatcher>(plan_.theta);
    return stack;
  }

  void run_job(JobStamp& stamp, double theta, Checker& checker) override {
    auto result = an::page_rank(*engine_, data_, rank_options(theta));
    checker.post([this, &stamp, theta, ranks = std::move(result.ranks)] {
      try {
        if (theta == 0.0) {
          stamp.correct = bitwise_equal(ranks, reference_);
        } else {
          stamp.error_pct = an::rank_error_percent(reference_, ranks);
          stamp.correct = std::isfinite(stamp.error_pct);
        }
      } catch (const std::exception&) {
        stamp.correct = false;
      }
      stamp.checked = true;
    });
  }

  double speedup_vs_1w() override {
    return speedup_2w_over_1w(engine_->options(), 5, [&](eng::Engine& e) {
      e.set_spill_backend(timed_.get());
      an::page_rank(e, data_, rank_options(0.0));
    });
  }

 private:
  // Spill I/O goes through the file system, whose metadata-operation latency
  // drifted by 2-4x over minutes on a shared 4-vCPU host. A budget of 1/4 of
  // the largest shuffle spilled nearly every shuffle byte and made that
  // drift 40% of the job; 3/4 still spills in every job (the adjacency
  // shuffle overflows it) while keeping the drift a minor share. 2-wide
  // shuffles keep the spilled segments (input partitions x width per
  // shuffle; each is a directory and two files) few.
  static constexpr double kBudgetShare = 0.75;
  static constexpr int kScale = 14;
  static constexpr std::size_t kEdgePartitions = 8;
  static constexpr std::size_t kShufflePartitions = 2;
  static constexpr std::size_t kWarmupJobs = 12;

  // budget_bytes_ == 0 means unbounded (the reference run).
  an::PageRankOptions rank_options(double theta) const {
    an::PageRankOptions po;
    po.iterations = 2;
    po.partitions = kShufflePartitions;
    po.stage_drop_ratio = theta;
    po.shuffle.memory_budget_bytes = budget_bytes_;
    return po;
  }

  void detach_spill() {
    engine_.reset();
    timed_.reset();
    spill_.reset();
    store_.reset();
  }

  static bool bitwise_equal(const an::RankVector& a, const an::RankVector& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [v, r] : a) {
      const auto it = b.find(v);
      if (it == b.end() ||
          std::bit_cast<std::uint64_t>(r) != std::bit_cast<std::uint64_t>(it->second)) {
        return false;
      }
    }
    return true;
  }

  Options options_;
  Plan plan_;
  eng::Dataset<dias::workload::Edge> data_;
  an::RankVector reference_;
  std::size_t budget_bytes_ = 0;
  std::filesystem::path store_root_;
  std::unique_ptr<dias::storage::BlockStore> store_;
  std::unique_ptr<dias::storage::BlockStoreSpill> spill_;
  std::unique_ptr<TimedSpill> timed_;
  std::unique_ptr<eng::Engine> engine_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "wc_priority_open") {
    return std::make_unique<WordCountWorkload>(options, wc_priority_open_config());
  }
  if (options.workload == "wc_tenants_ft_obs") {
    return std::make_unique<WordCountWorkload>(options, wc_tenants_config());
  }
  if (options.workload == "pagerank_spill_closed") {
    return std::make_unique<PageRankWorkload>(options);
  }
  return nullptr;
}

Plan plan_workload(const Options& options) {
  Plan plan;
  if (options.workload == "wc_priority_open") {
    plan_word_count(wc_priority_open_config(), options, plan);
  } else if (options.workload == "wc_tenants_ft_obs") {
    plan_word_count(wc_tenants_config(), options, plan);
  } else if (options.workload == "pagerank_spill_closed") {
    plan_page_rank(plan);
  }
  return plan;
}

}  // namespace diasbench
