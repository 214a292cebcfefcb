// Extension: self-tuning execution (ISSUE 8).
//
// Sweeps four reduce-by-key workloads (uniform, Zipf, tiny, huge) over a
// grid of hand-tuned static configurations — combiner on/off crossed with
// a partition-width ladder — then runs the same workload with a live
// AdaptivePlanner reading the engine's own metrics registry and zero
// static config changes. The acceptance bar is that the adaptive run
// lands within a few percent of the best hand-tuned cell per workload.
//
// The bench doubles as CI's byte-deviation gate: every swept cell and the
// adaptive run are canonicalized (sorted key/value pairs) and compared
// against the static-path reference. Any deviation makes the process exit
// non-zero — run with --quick in CI for a fast, smaller-input pass.
//
// Each configuration emits one machine-readable line:
//   BENCH {"bench":"ext_adaptive","workload":"zipf","mode":"static",...}
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/adaptive_planner.hpp"

namespace {

using namespace dias;

using Record = std::pair<std::uint32_t, std::uint64_t>;

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kInPartitions = 32;
constexpr std::size_t kDefaultOut = 16;

struct Workload {
  const char* name;
  std::size_t records;
  std::size_t key_space;
  double zipf_exponent;  // 0 = uniform keys
  std::uint64_t seed;
};

// --quick shrinks the two big workloads and the rep counts so the CI
// Release leg can afford the full byte-deviation sweep.
struct BenchMode {
  bool quick = false;
  int reps() const { return quick ? 2 : 5; }
  int adaptive_warmup() const { return quick ? 2 : 3; }
  std::size_t scale(std::size_t records) const { return quick ? records / 8 : records; }
};

std::vector<Workload> workloads(const BenchMode& mode) {
  return {
      {"uniform", mode.scale(std::size_t{1} << 20), std::size_t{1} << 14, 0.0, 7},
      {"zipf", mode.scale(std::size_t{1} << 20), std::size_t{1} << 14, 1.3, 11},
      // Tiny stays tiny in quick mode: its whole point is the width-1
      // route under the small-shuffle threshold.
      {"tiny", 4096, 64, 0.0, 13},
      // High-cardinality: most keys occur once, so the combiner is pure
      // overhead and the width has to come from shipped volume.
      {"huge", mode.scale(std::size_t{1} << 22), std::size_t{1} << 20, 0.0, 17},
  };
}

std::vector<Record> make_records(const Workload& w) {
  Rng rng(w.seed);
  std::vector<Record> records;
  records.reserve(w.records);
  if (w.zipf_exponent > 0.0) {
    const ZipfDistribution dist(w.key_space, w.zipf_exponent);
    for (std::size_t i = 0; i < w.records; ++i) {
      records.emplace_back(static_cast<std::uint32_t>(dist(rng) - 1), i);
    }
  } else {
    for (std::size_t i = 0; i < w.records; ++i) {
      records.emplace_back(static_cast<std::uint32_t>(rng.uniform_int(w.key_space)), i);
    }
  }
  return records;
}

// Partition-layout-independent canonical form: the determinism oracle is
// the sorted (key, value) multiset, so legitimate relocations (partition
// width, width-1 route) compare equal while any dropped, duplicated
// or misfolded record shows up as a mismatch.
std::vector<Record> canonical(const engine::Dataset<Record>& ds) {
  std::vector<Record> flat;
  for (std::size_t p = 0; p < ds.partitions(); ++p) {
    const auto& part = ds.partition(p);
    flat.insert(flat.end(), part.begin(), part.end());
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

struct RunOutput {
  std::vector<Record> bytes;
  double best_s = 1e30;
  double collapse = 1.0;  // shuffle records_out / records_in over the run
};

std::uint64_t counter_value(const obs::Registry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c ? c->value() : 0;
}

// Collapse ratio the planner would see for the work between `in0`/`out0`
// and the registry's current counters.
double collapse_since(const obs::Registry& reg, std::uint64_t in0, std::uint64_t out0) {
  const std::uint64_t din = counter_value(reg, "engine.shuffle.records_in") - in0;
  const std::uint64_t dout = counter_value(reg, "engine.shuffle.records_out") - out0;
  return din == 0 ? 1.0 : static_cast<double>(dout) / static_cast<double>(din);
}

// One static cell of the hand-tuned grid: fixed combiner setting and
// output width, no plan attached — exactly the path a user tuning by hand
// would configure.
RunOutput run_static(engine::Engine& eng, const obs::Registry& reg,
                     const engine::Dataset<Record>& ds, bool combine,
                     std::size_t out_partitions, int reps) {
  RunOutput out;
  const std::uint64_t in0 = counter_value(reg, "engine.shuffle.records_in");
  const std::uint64_t out0 = counter_value(reg, "engine.shuffle.records_out");
  for (int r = 0; r < reps; ++r) {
    engine::StageOptions opts;
    opts.name = "adaptive_bench/static";
    opts.droppable = false;
    engine::ShuffleOptions shuffle;
    shuffle.combine = combine;
    const auto t0 = std::chrono::steady_clock::now();
    const auto reduced = eng.reduce_by_key(
        ds, [](std::uint64_t a, std::uint64_t b) { return a + b; }, out_partitions, opts,
        shuffle);
    const auto t1 = std::chrono::steady_clock::now();
    out.best_s = std::min(out.best_s, std::chrono::duration<double>(t1 - t0).count());
    out.bytes = canonical(reduced);
  }
  out.collapse = collapse_since(reg, in0, out0);
  return out;
}

// The adaptive run: default output width, default shuffle options, and a
// live planner fed by the engine's own registry. Warmup rounds let the
// EWMA signals converge before timing starts; the timed rounds keep
// consulting the planner so flapping would show up as noise here.
RunOutput run_adaptive(engine::Engine& eng, const obs::Registry& reg,
                       const engine::Dataset<Record>& ds, runtime::AdaptivePlanner& planner,
                       const engine::StageTraits& traits, int warmup, int reps) {
  RunOutput out;
  const std::uint64_t in0 = counter_value(reg, "engine.shuffle.records_in");
  const std::uint64_t out0 = counter_value(reg, "engine.shuffle.records_out");
  for (int r = 0; r < warmup + reps; ++r) {
    engine::StageOptions opts;
    opts.name = "adaptive_bench/adaptive";
    opts.droppable = false;
    opts.plan = planner.plan_for(traits);
    const auto t0 = std::chrono::steady_clock::now();
    const auto reduced = eng.reduce_by_key(
        ds, [](std::uint64_t a, std::uint64_t b) { return a + b; }, kDefaultOut, opts);
    const auto t1 = std::chrono::steady_clock::now();
    if (r >= warmup) {
      out.best_s = std::min(out.best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    out.bytes = canonical(reduced);
  }
  out.collapse = collapse_since(reg, in0, out0);
  return out;
}

void emit_static_json(const Workload& w, bool combine, std::size_t parts, const RunOutput& r,
                      bool bytes_ok) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("bench", "ext_adaptive");
  json.field("workload", w.name);
  json.field("mode", "static");
  json.field("combine", combine);
  json.field("partitions", std::uint64_t{parts});
  json.field("records", std::uint64_t{w.records});
  json.field("best_s", r.best_s);
  json.field("collapse", r.collapse);
  json.field("bytes_ok", bytes_ok);
  json.end_object();
  std::printf("BENCH %s\n", std::move(json).str().c_str());
}

void emit_adaptive_json(const Workload& w, const RunOutput& r, const std::string& plan,
                        double best_static_s, bool bytes_ok) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("bench", "ext_adaptive");
  json.field("workload", w.name);
  json.field("mode", "adaptive");
  json.field("records", std::uint64_t{w.records});
  json.field("best_s", r.best_s);
  json.field("collapse", r.collapse);
  json.field("best_static_s", best_static_s);
  json.field("ratio_vs_best_static", r.best_s / best_static_s);
  json.field("plan", plan);
  json.field("bytes_ok", bytes_ok);
  json.end_object();
  std::printf("BENCH %s\n", std::move(json).str().c_str());
}

engine::Engine::Options engine_opts() {
  engine::Engine::Options o;
  o.workers = kWorkers;
  o.seed = 4242;
  return o;
}

runtime::AdaptivePlannerConfig planner_config() {
  runtime::AdaptivePlannerConfig cfg;
  cfg.workers = kWorkers;
  // Faster convergence than the library defaults: the bench only grants a
  // few warmup rounds, and the workloads are stationary.
  cfg.ewma_alpha = 0.6;
  cfg.min_hold_decisions = 2;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMode mode;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) mode.quick = true;
  }

  bench::print_header("Extension: adaptive planner vs. hand-tuned static configs");
  std::printf("  %zu workers, %zu input partitions, default %zu output partitions, "
              "best of %d%s\n",
              kWorkers, kInPartitions, kDefaultOut, mode.reps(),
              mode.quick ? " (quick)" : "");

  const std::vector<std::size_t> width_ladder = {1, kWorkers, 2 * kWorkers, 4 * kWorkers};
  int byte_failures = 0;

  for (const Workload& w : workloads(mode)) {
    const auto records = make_records(w);

    // Hand-tuned grid and the static reference share one engine; metrics
    // are attached so the static path pays the same bookkeeping cost the
    // adaptive engine does.
    obs::Registry static_reg;
    engine::Engine eng(engine_opts());
    eng.attach_observability(&static_reg, nullptr);
    const auto ds = eng.parallelize(records, kInPartitions);

    // Reference = the default static path (combiner on, default width).
    const auto reference = run_static(eng, static_reg, ds, /*combine=*/true, kDefaultOut, 1);

    std::printf("\n  -- %s (%zu records, %zu-key space, zipf %.2f) --\n", w.name, w.records,
                w.key_space, w.zipf_exponent);
    std::printf("  %-26s  %12s  %10s  %8s\n", "config", "best [ms]", "collapse", "bytes");

    double best_static_s = 1e30;
    std::string best_static_name;
    for (const bool combine : {true, false}) {
      for (const std::size_t parts : width_ladder) {
        const auto r = run_static(eng, static_reg, ds, combine, parts, mode.reps());
        const bool ok = r.bytes == reference.bytes;
        if (!ok) ++byte_failures;
        char label[64];
        std::snprintf(label, sizeof(label), "combine=%s parts=%zu", combine ? "on" : "off",
                      parts);
        std::printf("  %-26s  %12.2f  %10.3f  %8s\n", label, 1000.0 * r.best_s, r.collapse,
                    ok ? "ok" : "FAIL");
        emit_static_json(w, combine, parts, r, ok);
        if (r.best_s < best_static_s) {
          best_static_s = r.best_s;
          best_static_name = label;
        }
      }
    }

    // Adaptive engine: fresh registry, planner sourced from and exporting
    // to it, no static tuning at all.
    obs::Registry adaptive_reg;
    engine::Engine adaptive_eng(engine_opts());
    adaptive_eng.attach_observability(&adaptive_reg, nullptr);
    runtime::AdaptivePlanner planner(&adaptive_reg, planner_config(), &adaptive_reg, nullptr);
    const auto adaptive_ds = adaptive_eng.parallelize(records, kInPartitions);

    engine::StageTraits traits;
    traits.name = std::string("adaptive_bench/") + w.name;
    traits.default_partitions = kDefaultOut;
    traits.input_partitions = kInPartitions;
    traits.order_insensitive = true;  // u64 sum: combiner toggles are safe
    traits.allow_spill_hint = false;
    const auto adaptive = run_adaptive(adaptive_eng, adaptive_reg, adaptive_ds, planner,
                                       traits, mode.adaptive_warmup(), mode.reps());
    const bool adaptive_ok = adaptive.bytes == reference.bytes;
    if (!adaptive_ok) ++byte_failures;
    const std::string plan = planner.plan_for(traits).summary();

    const double ratio = adaptive.best_s / best_static_s;
    std::printf("  %-26s  %12.2f  %10.3f  %8s   (%.2fx of best static: %s)\n", "adaptive",
                1000.0 * adaptive.best_s, adaptive.collapse, adaptive_ok ? "ok" : "FAIL",
                ratio, best_static_name.c_str());
    std::printf("  converged plan: %s\n", plan.c_str());
    emit_adaptive_json(w, adaptive, plan, best_static_s, adaptive_ok);
  }

  if (byte_failures > 0) {
    std::printf("\n  %d configuration(s) deviated from the static-path reference bytes\n",
                byte_failures);
    return 1;
  }
  return 0;
}
