#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace dias {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seeds the xoshiro state from a splitmix64 stream over `seed`.
  for (auto& w : state_) {
    w = splitmix64(seed);
    seed += kSplitmixGamma;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Rng::jump() {
  static constexpr std::uint64_t kJump[] = {0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
                                            0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL};
  std::array<std::uint64_t, 4> s{0, 0, 0, 0};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) s[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = s;
}

Rng Rng::split() {
  Rng child = *this;  // child keeps the current stream position
  jump();             // parent moves 2^128 draws ahead
  return child;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DIAS_EXPECTS(lo <= hi, "uniform(lo,hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  DIAS_EXPECTS(n > 0, "uniform_int requires n > 0");
  // Lemire's rejection method for unbiased bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = -n % n;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double rate) {
  DIAS_EXPECTS(rate > 0.0, "exponential rate must be positive");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::erlang(int k, double rate) {
  DIAS_EXPECTS(k >= 1, "erlang shape must be >= 1");
  double sum = 0.0;
  for (int i = 0; i < k; ++i) sum += exponential(rate);
  return sum;
}

double Rng::hyper_exponential(double p, double r1, double r2) {
  DIAS_EXPECTS(p >= 0.0 && p <= 1.0, "branch probability must be in [0,1]");
  return exponential(bernoulli(p) ? r1 : r2);
}

double Rng::normal(double mean, double stddev) {
  DIAS_EXPECTS(stddev >= 0.0, "stddev must be non-negative");
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

std::size_t Rng::discrete(std::span<const double> weights) {
  DIAS_EXPECTS(!weights.empty(), "discrete() needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    DIAS_EXPECTS(w >= 0.0, "discrete() weights must be non-negative");
    total += w;
  }
  DIAS_EXPECTS(total > 0.0, "discrete() needs a positive total weight");
  double x = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

bool Rng::bernoulli(double p) {
  DIAS_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli probability must be in [0,1]");
  return uniform() < p;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) : exponent_(exponent) {
  DIAS_EXPECTS(n >= 1, "Zipf support size must be >= 1");
  DIAS_EXPECTS(exponent >= 0.0, "Zipf exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r), exponent);
    cdf_[r - 1] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::pmf(std::size_t rank) const {
  DIAS_EXPECTS(rank >= 1 && rank <= cdf_.size(), "Zipf pmf rank out of range");
  const double hi = cdf_[rank - 1];
  const double lo = rank >= 2 ? cdf_[rank - 2] : 0.0;
  return hi - lo;
}

}  // namespace dias
