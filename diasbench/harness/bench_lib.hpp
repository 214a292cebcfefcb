// Helpers of the DiAS benchmark harness that carry arithmetic worth
// testing on their own: percentile rules, /proc/stat steal accounting,
// due-time latency, span self time, and the seed -> arrival schedule map.
// Nothing here touches the engine; tests/bench_lib_test.cpp covers it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace diasbench {

// --- seeded randomness ------------------------------------------------------

// splitmix64: the benchmark's own generator, so the inputs it derives from
// --seed do not change when the program under test changes its Rng.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, 1).
  double uniform();
  // Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

// Independent sub-seed for stream `stream` of run seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// --- percentiles ------------------------------------------------------------

// Linear-interpolation percentile (pct in [0, 100]) of an unsorted sample;
// 0 for an empty sample.
double percentile(std::vector<double> values, double pct);

// The highest percentile of {99, 95, 90, 75, 50} that still has at least
// `beyond` samples above it in a sample of n, i.e. n * (1 - p/100) >= beyond;
// 0 when not even the median qualifies.
double supported_percentile(std::size_t n, std::size_t beyond = 10);

double mean(const std::vector<double>& values);

// --- host noise ---------------------------------------------------------------

// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTimes {
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  std::uint64_t total() const {
    return user + nice + system + idle + iowait + irq + softirq + steal;
  }
};

// Parses the first "cpu " line of a /proc/stat image; nullopt when absent
// or malformed. Kernels without a steal column report steal = 0.
std::optional<CpuTimes> parse_proc_stat(std::string_view text);

// Reads /proc/stat; nullopt where it does not exist.
std::optional<CpuTimes> read_proc_stat();

// Share of all CPU time between two samples that the hypervisor stole, in
// percent; 0 when no time elapsed.
double steal_pct(const CpuTimes& before, const CpuTimes& after);

// --- due-time latency ---------------------------------------------------------

// One request of an open (or think-time closed) loop, on the benchmark clock.
struct DueStamp {
  double due_s = 0.0;         // when the schedule said to send it
  double submit_s = 0.0;      // when the generator actually called submit
  double completion_s = 0.0;  // when the system reported it finished
};

// Response counted from the due time, so a stalled generator or a stalled
// system charges every request that should have been sent meanwhile.
inline double response_from_due(const DueStamp& s) { return s.completion_s - s.due_s; }
// How late the generator ran (never negative: an early wake-up is on time).
inline double generator_lateness(const DueStamp& s) {
  return s.submit_s > s.due_s ? s.submit_s - s.due_s : 0.0;
}

// Offset that maps a clock B onto clock A, from events whose B stamp is
// known to lie inside an A interval [lo_a, hi_a]. Returns the midpoint of
// the intersection of the feasible offsets, and its half-width in
// `uncertainty_s`; nullopt when the intervals contradict each other.
struct Bracket {
  double lo_a = 0.0;
  double hi_a = 0.0;
  double b = 0.0;
};
std::optional<double> clock_offset(const std::vector<Bracket>& brackets,
                                   double* uncertainty_s = nullptr);

// --- spans ----------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;     // spans of one job share this id
  std::string name;
  double t0_s = 0.0;
  double t1_s = 0.0;
  double duration() const { return t1_s - t0_s; }
};

// Length of the union of [t0, t1) intervals, clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>> intervals, double lo, double hi);

// Self time of every span (same order as the input): its duration minus the
// part of its interval that the union of its direct children covers.
// Concurrent children are counted once, so the self times of a tree add up
// to the root's duration whenever every child lies inside its parent.
std::vector<double> self_times(const std::vector<Span>& spans);

// --- arrival schedules ----------------------------------------------------------

struct Arrival {
  double due_s = 0.0;
  std::size_t cls = 0;           // priority class (higher = more important)
  std::uint64_t tenant = 0;      // 0 = untenanted
};

struct ScheduleSpec {
  double rate_per_s = 1.0;       // mean arrivals per second
  double seconds = 1.0;          // schedule horizon
  // Class of each arrival within one block; the block is permuted per
  // block, so every block carries exactly this mix.
  std::vector<std::size_t> block_classes;
  std::size_t tenants = 0;       // 0 = untenanted; else round-robin 1..tenants
};

// Stratified Poisson arrivals. Each block of k = block_classes.size()
// arrivals uses the k exponential gaps at quantiles (i + 0.5) / k of
// Exp(rate), scaled so that the block spans exactly k / rate, and the
// block's class mix, both shuffled by the seed. The gaps keep an
// exponential shape and the rate is exact, while the load of every block
// is the same, which removes the seed-to-seed swings in total load that
// make tail latencies of short open-loop runs unrepeatable.
std::vector<Arrival> stratified_schedule(const ScheduleSpec& spec, std::uint64_t seed);

// Closed-loop think time of `client` before its `round`-th resubmission:
// uniform in [lo, hi), a pure function of (seed, client, round).
double think_time(std::uint64_t seed, std::size_t client, std::uint64_t round, double lo,
                  double hi);

}  // namespace diasbench
