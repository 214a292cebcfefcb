// Extension: hot-path scaling to high core counts (ISSUE 9).
//
// Scale sweep over one fixed shuffle workload (uint64 sum reduce_by_key):
// shuffle throughput at 1 / 2 / 4 / 8 workers on the engine's one hot path
// (wave submission + segment arenas + radix split). EVERY cell's result is
// digest-compared against a plain single-threaded fold of the records —
// byte identity is the hard gate on every host, because the hot path is
// only admissible as a pure relocation under the (src, seq) merge-fold
// contract.
//
// Exit status (the CI quick-mode gate):
//   * non-zero if ANY cell's digest deviates from the reference — always.
//   * non-zero if the 8-worker throughput is < 2.5x the 1-worker run —
//     only when std::thread::hardware_concurrency() >= 8; on smaller
//     hosts (the CI containers are often 1-2 cores) the wall-clock ratio
//     is time-slice bound and only the identity gate applies.
//
// Each configuration emits one machine-readable line:
//   BENCH {"bench":"ext_scale","phase":"scale_sweep",...}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/scenarios.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"

namespace {

using namespace dias;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kInputPartitions = 16;
constexpr std::size_t kOutPartitions = 16;

std::vector<std::pair<std::uint64_t, std::uint64_t>> make_records(std::size_t n) {
  Rng rng(777);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    // Mild skew: buckets get uneven load so index stealing does real work.
    const auto key = static_cast<std::uint64_t>(50000.0 * std::pow(u, 2.0));
    out.emplace_back(key, rng.uniform_int(1000) + 1);
  }
  return out;
}

// FNV-1a over sorted (key, sum) pairs: one canonical digest per run,
// cheap to compare across the sweep cells.
std::uint64_t digest(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(entries.size());
  for (const auto& [k, v] : entries) {
    mix(k);
    mix(v);
  }
  return h;
}

std::uint64_t digest(const engine::Dataset<std::pair<std::uint64_t, std::uint64_t>>& ds) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (std::size_t p = 0; p < ds.partitions(); ++p) {
    const auto& part = ds.partition(p);
    entries.insert(entries.end(), part.begin(), part.end());
  }
  std::sort(entries.begin(), entries.end());
  return digest(entries);
}

// The reference: the same sums folded on one thread, no engine.
std::uint64_t reference_digest(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& records) {
  std::map<std::uint64_t, std::uint64_t> fold;
  for (const auto& [k, v] : records) fold[k] += v;
  return digest({fold.begin(), fold.end()});
}

struct RunResult {
  double best_s = 0.0;
  std::uint64_t digest = 0;
};

RunResult run_config(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& records,
                     std::size_t workers, int reps) {
  engine::Engine::Options o;
  o.workers = workers;
  o.seed = 1;
  engine::Engine eng(o);
  const auto ds = eng.parallelize(records, kInputPartitions);
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  RunResult r;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const auto out = eng.reduce_by_key(ds, sum, kOutPartitions, {}, {});
    const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r.best_s == 0.0 || elapsed < r.best_s) r.best_s = elapsed;
    const std::uint64_t d = digest(out);
    if (rep == 0) {
      r.digest = d;
    } else if (d != r.digest) {
      // Non-determinism within one configuration is the worst failure
      // mode this bench can detect; poison the digest so the gate trips.
      r.digest = 0;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::print_header("Extension: hot-path scaling sweep (waves + arenas + radix)");

  const std::size_t n = quick ? 400000 : 2000000;
  const int reps = quick ? 2 : 3;
  const auto records = make_records(n);
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("  %zu records, %u hardware threads, best of %d reps\n\n", n, hardware,
              reps);

  const std::uint64_t reference = reference_digest(records);
  bool identical = true;
  double base_s = 0.0;
  double eight_s = 0.0;

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const RunResult r = run_config(records, workers, reps);
    const bool match = r.digest == reference;
    identical = identical && match;
    if (workers == 1) base_s = r.best_s;
    if (workers == 8) eight_s = r.best_s;
    const double throughput = static_cast<double>(n) / r.best_s;
    const double speedup = base_s > 0.0 ? base_s / r.best_s : 1.0;
    std::printf("  sweep %2zu workers: %7.1f ms, %10.0f records/s, %.2fx vs 1w%s\n",
                workers, r.best_s * 1e3, throughput, speedup,
                match ? "" : "  [BYTES DIVERGED]");
    obs::JsonWriter w;
    w.begin_object();
    w.field("bench", "ext_scale");
    w.field("phase", "scale_sweep");
    w.field("workers", std::uint64_t{workers});
    w.field("records", std::uint64_t{n});
    w.field("hardware_concurrency", std::uint64_t{hardware});
    w.field("best_s", r.best_s);
    w.field("records_per_s", throughput);
    w.field("speedup_vs_1w", speedup);
    w.field("bytes_identical", match ? std::uint64_t{1} : std::uint64_t{0});
    w.end_object();
    std::printf("BENCH %s\n", std::move(w).str().c_str());
  }

  const double scale8 = eight_s > 0.0 ? base_s / eight_s : 0.0;
  if (!identical) {
    std::printf("\n  FAILED: a sweep cell deviated bytewise from the reference "
                "fold\n");
    return 1;
  }
  if (hardware >= 8 && scale8 < 2.5) {
    std::printf("\n  FAILED: 8-worker speedup %.2fx < 2.5x on a %u-thread host\n",
                scale8, hardware);
    return 1;
  }
  std::printf("\n  expectation: every cell byte-identical to the single-threaded\n"
              "  reference fold (hard gate); on hosts with >= 8 hardware threads the\n"
              "  8-worker shuffle must clear 2.5x the single-worker throughput\n"
              "  (wall-clock gate, skipped on smaller hosts: %s).\n",
              hardware >= 8 ? "enforced here" : "skipped here");
  return 0;
}
