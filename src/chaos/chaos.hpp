// dias::chaos — the unified, deterministic fault-injection plane (ISSUE 10).
//
// The process's one source of injected faults: every subsystem registers
// *named injection points* (engine task attempts, thread-pool wave lanes,
// spill backend write/open/read, block store I/O, dispatcher admission,
// arena allocation), and one seeded ChaosSchedule arms any subset of them
// with a fault shape:
//
//   kThrow   — raise ChaosError (a dias::error) at the point
//   kStall   — sleep a bounded, configured latency (the dominant
//              real-world failure mode: slow disks, hung workers)
//   kCorrupt — spill-write only: the caller mangles the encoded bytes so
//              the decode/checksum path fires on read-back
//
// Determinism contract: a decision is a pure hash of
// (schedule seed, point-name hash, caller-supplied coordinates). Call
// sites pass scheduling-independent coordinates where they exist (stage
// sequence / partition / attempt, wave sequence / index, content hash for
// spill writes) and a per-point operation counter otherwise. Same seed +
// same logical work ⇒ the same set of points fires, independent of thread
// interleaving at the coordinate-stable sites; the soak battery asserts
// reproducibility at the outcome level (result bytes + JobOutcome) either
// way. Injected stalls are bounded by kMaxStallMs and cancellation-aware
// at sites that hold a token, so chaos can slow a job but never wedge it;
// the engine.task site also passes its task's `done` flag, so a
// speculative copy that completes the partition ends the primary's stall.
//
// Fast path: a disarmed point costs one relaxed atomic load and a
// predictable branch (`armed()`); the decision hash runs only when armed.
// bench_ext_chaos gates that disabled overhead stays under 1% of the
// shuffle hot path.
//
// Configuration: programmatic (ChaosPlane::install / ScopedChaos for
// tests), environment (DIAS_CHAOS_SEED + DIAS_CHAOS_POINTS, parsed once
// at first ChaosPlane::instance()), or CLI (dias_cli --chaos-seed /
// --chaos-rate / --chaos-points). Point selectors are exact names or
// prefix wildcards ("spill.*", "*").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.hpp"
#include "common/error.hpp"

namespace dias::chaos {

// Injected failure. Derives from dias::error so every existing absorption
// layer (spill guard, retry loop, breaker) treats it like a genuine I/O or
// task fault — chaos exercises the real paths, it does not add new ones.
class ChaosError : public error {
 public:
  explicit ChaosError(const std::string& what) : error("chaos: " + what) {}
};

enum class Shape { kThrow, kStall, kCorrupt };

const char* to_string(Shape shape);

// Hard ceiling on any injected stall: chaos may slow execution, never
// wedge it. The watchdog/latch hardening is tested against stalls below
// this bound.
inline constexpr double kMaxStallMs = 2000.0;

// Per-point arming: fire with probability `rate` per decision, acting out
// `shape` (kStall sleeps `stall_ms`, clamped to kMaxStallMs). Both
// install() and parse_points() reject a rate outside [0, 1] or a negative
// stall_ms with config_error.
struct PointSpec {
  double rate = 0.0;
  Shape shape = Shape::kThrow;
  double stall_ms = 5.0;
};

// A seed plus point-selector → spec bindings. Selectors are matched
// exact-name first, then by longest `*`-suffix prefix ("spill.*" beats
// "*"). Later bindings of an equally specific selector win.
struct ChaosSchedule {
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, PointSpec>> points;

  bool empty() const { return points.empty(); }

  // Arms every selector-matched point with `spec`.
  static ChaosSchedule uniform(std::uint64_t seed, const PointSpec& spec,
                               std::string selector = "*");

  // DIAS_CHAOS_SEED=<n> and DIAS_CHAOS_POINTS=<sel>=<shape>:<rate>[:<stall_ms>][,...]
  // e.g. DIAS_CHAOS_POINTS="spill.write=throw:0.2,pool.wave=stall:0.05:20".
  // Unset/empty ⇒ an empty (disarmed) schedule. Malformed entries are a
  // config_error: silently ignoring a typo'd chaos storm would make a soak
  // pass vacuously.
  static ChaosSchedule from_env();

  // Parses the DIAS_CHAOS_POINTS grammar from a string (CLI reuse).
  static std::vector<std::pair<std::string, PointSpec>> parse_points(
      const std::string& text);
};

// One named injection point. Registered on first use, lives for the
// process; call sites cache the reference in a function-local static so
// the steady-state cost is one armed() load.
class InjectionPoint {
 public:
  struct Decision {
    bool fire = false;
    Shape shape = Shape::kThrow;
    double stall_ms = 0.0;
  };

  const std::string& name() const { return name_; }

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Pure decision for coordinates (a, b, c): a hash of
  // (seed, name, a, b, c) under the installed spec. Counted in the plane's
  // evaluation total (the bench gate's hook census).
  Decision decide(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) const;

  // decide() + act: kThrow raises ChaosError, kStall sleeps (bounded by
  // kMaxStallMs, returning early when `cancel` fires or `done` becomes
  // true), kCorrupt returns true so the caller mangles its bytes. Returns
  // false when nothing fired or a non-corrupt shape completed.
  bool inject(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
              const CancellationToken* cancel = nullptr,
              const std::atomic<bool>* done = nullptr);

  // Fallback coordinate for sites with no scheduling-independent identity
  // (arena allocations, reader chunks): a per-point op counter, reset to 0
  // by every install(). Decisions drawn from it are deterministic per
  // (seed, point, op index) but the index assignment may depend on
  // interleaving — the soak asserts outcome-level reproducibility for
  // those points.
  std::uint64_t next_op() { return op_.fetch_add(1, std::memory_order_relaxed); }

  std::uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  friend class ChaosPlane;
  explicit InjectionPoint(std::string name);

  void arm(std::uint64_t seed, const PointSpec& spec);
  void disarm();

  const std::string name_;
  const std::uint64_t name_hash_;
  // Spec fields are written only by install()/clear() (quiescent by
  // contract: schedules change between jobs, not during) and read with
  // relaxed loads on the hot path; `armed_` is written last.
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<double> rate_{0.0};
  std::atomic<int> shape_{static_cast<int>(Shape::kThrow)};
  std::atomic<double> stall_ms_{0.0};
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> op_{0};
  std::atomic<std::uint64_t> fired_{0};
};

// Process-wide registry of injection points. instance() reads the
// environment schedule once on first use, so exporting DIAS_CHAOS_* arms
// every binary with zero wiring.
class ChaosPlane {
 public:
  static ChaosPlane& instance();

  // Registers (or finds) a point; the reference is stable for the process
  // lifetime. A newly registered point inherits the installed schedule.
  InjectionPoint& point(std::string_view name);

  // Arms matching points and remembers the schedule for points registered
  // later; a binding with an out-of-range spec is a config_error and leaves
  // the installed schedule untouched. Not safe against concurrently *armed*
  // chaos-sensitive work; install between jobs (tests use ScopedChaos
  // around whole scenarios).
  void install(const ChaosSchedule& schedule);
  // Disarms everything and forgets the installed schedule.
  void clear();

  // True when any registered point is armed — the one-load cheap check
  // for sites that want to skip coordinate computation entirely.
  bool armed() const { return armed_points_.load(std::memory_order_relaxed) > 0; }

  // Total decide() evaluations across armed points since process start —
  // the bench gate multiplies this census by the measured per-hook cost.
  std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  std::vector<std::string> point_names() const;

 private:
  friend class InjectionPoint;
  ChaosPlane();

  // Longest-prefix selector match against the installed schedule; null
  // when no selector covers `name`.
  const PointSpec* match_locked(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<InjectionPoint>, std::less<>> points_;
  ChaosSchedule installed_;
  std::atomic<std::size_t> armed_points_{0};
  std::atomic<std::uint64_t> evaluations_{0};
};

// RAII schedule installation for tests: installs on construction, clears
// on destruction, so a failing assertion can never leak an armed plane
// into the next test.
class ScopedChaos {
 public:
  explicit ScopedChaos(const ChaosSchedule& schedule) {
    ChaosPlane::instance().install(schedule);
  }
  ~ScopedChaos() { ChaosPlane::instance().clear(); }
  ScopedChaos(const ScopedChaos&) = delete;
  ScopedChaos& operator=(const ScopedChaos&) = delete;
};

// Canonical point names: one constant per registration site, so tests and
// schedules never drift from the call sites.
namespace points {
inline constexpr const char* kEngineTask = "engine.task";
inline constexpr const char* kPoolWave = "pool.wave";
inline constexpr const char* kSpillWrite = "spill.write";
inline constexpr const char* kSpillOpen = "spill.open";
inline constexpr const char* kSpillRead = "spill.read";
inline constexpr const char* kStorageWrite = "storage.write";
inline constexpr const char* kStorageRead = "storage.read";
inline constexpr const char* kDispatcherAdmit = "dispatcher.admit";
inline constexpr const char* kArenaAlloc = "engine.arena.alloc";
}  // namespace points

namespace detail {

// Independent uniform in [0, 1) per coordinate tuple: splitmix64 chained
// over the coordinates (top 53 bits, the Rng's conversion). The decision
// core behind every chaos decision and the engine's retry-backoff jitter.
double uniform_draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c, std::uint64_t salt);

}  // namespace detail

}  // namespace dias::chaos
