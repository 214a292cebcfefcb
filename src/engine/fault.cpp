#include "engine/fault.hpp"

#include <algorithm>
#include <utility>

#include "chaos/chaos.hpp"

namespace dias::engine {

namespace {

// The chaos plane's decision core: splitmix64 over the coordinate tuple,
// top 53 bits to [0, 1).
using chaos::detail::uniform_draw;

constexpr std::uint64_t kBackoffSalt = 0xB0FF;

}  // namespace

double backoff_delay_ms(const FaultToleranceOptions& ft, std::uint64_t seed,
                        std::uint64_t stage_seq, std::size_t partition, int attempt) {
  const double base = ft.retry_backoff_ms;
  if (base <= 0.0 || attempt < 1) return 0.0;
  // Decorrelated jitter, recomputed iteratively from attempt 1 so the
  // function stays stateless: each step draws its own hashed uniform, so
  // the whole curve is a pure function of (seed, stage, partition).
  const double cap = std::max(ft.retry_backoff_cap_ms, base);
  double delay = std::min(base, cap);
  for (int k = 2; k <= attempt; ++k) {
    const double u = uniform_draw(seed, stage_seq, partition,
                                  static_cast<std::uint64_t>(k), kBackoffSalt);
    delay = std::min(cap, base + u * (3.0 * delay - base));
  }
  return delay;
}

void FaultToleranceOptions::validate() const {
  DIAS_EXPECTS(max_attempts >= 1, "need at least one attempt per task");
  DIAS_EXPECTS(retry_backoff_ms >= 0.0, "retry backoff must be >= 0");
  DIAS_EXPECTS(speculation_quantile > 0.0 && speculation_quantile <= 1.0,
               "speculation quantile must be in (0,1]");
  DIAS_EXPECTS(retry_backoff_cap_ms >= 0.0 && stall_threshold_ms >= 0.0 &&
                   stall_p95_multiplier >= 0.0,
               "backoff cap and stall thresholds must be >= 0");
}

TaskFailedError::TaskFailedError(std::string stage, std::size_t partition, int attempts,
                                 const std::string& detail)
    : error("task failed for good: stage '" + stage + "', partition " +
            std::to_string(partition) + ", " + std::to_string(attempts) + " attempt(s)" +
            (detail.empty() ? "" : ": " + detail)),
      stage_(std::move(stage)),
      partition_(partition),
      attempts_(attempts) {}

}  // namespace dias::engine
