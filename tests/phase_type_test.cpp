#include "model/phase_type.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace dias::model {
namespace {

TEST(PhaseTypeTest, ExponentialMoments) {
  const auto ph = PhaseType::exponential(2.0);
  EXPECT_EQ(ph.phases(), 1u);
  EXPECT_NEAR(ph.mean(), 0.5, 1e-12);
  EXPECT_NEAR(ph.moment(2), 2.0 * 0.25, 1e-12);  // E[X^2] = 2/rate^2
  EXPECT_NEAR(ph.variance(), 0.25, 1e-12);
  EXPECT_NEAR(ph.scv(), 1.0, 1e-12);
}

TEST(PhaseTypeTest, ErlangMoments) {
  const int k = 5;
  const double rate = 2.0;
  const auto ph = PhaseType::erlang(k, rate);
  EXPECT_EQ(ph.phases(), 5u);
  EXPECT_NEAR(ph.mean(), k / rate, 1e-12);
  EXPECT_NEAR(ph.variance(), k / (rate * rate), 1e-10);
  EXPECT_NEAR(ph.scv(), 1.0 / k, 1e-12);
}

TEST(PhaseTypeTest, HyperExponentialMoments) {
  const auto ph = PhaseType::hyper_exponential({0.4, 0.6}, {1.0, 3.0});
  const double mean = 0.4 / 1.0 + 0.6 / 3.0;
  const double m2 = 0.4 * 2.0 / 1.0 + 0.6 * 2.0 / 9.0;
  EXPECT_NEAR(ph.mean(), mean, 1e-12);
  EXPECT_NEAR(ph.moment(2), m2, 1e-12);
  EXPECT_GT(ph.scv(), 1.0);
}

TEST(PhaseTypeTest, CdfMatchesExponential) {
  const auto ph = PhaseType::exponential(1.5);
  for (double t : {0.0, 0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(ph.cdf(t), 1.0 - std::exp(-1.5 * t), 1e-9) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(ph.cdf(-1.0), 0.0);
}

TEST(PhaseTypeTest, CdfMatchesErlang2) {
  const double r = 2.0;
  const auto ph = PhaseType::erlang(2, r);
  for (double t : {0.1, 0.5, 1.0, 3.0}) {
    const double expected = 1.0 - std::exp(-r * t) * (1.0 + r * t);
    EXPECT_NEAR(ph.cdf(t), expected, 1e-9) << "t=" << t;
  }
}

TEST(PhaseTypeTest, PdfMatchesExponential) {
  const auto ph = PhaseType::exponential(0.7);
  for (double t : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(ph.pdf(t), 0.7 * std::exp(-0.7 * t), 1e-9);
  }
}

TEST(PhaseTypeTest, LstMatchesExponential) {
  const double rate = 2.0;
  const auto ph = PhaseType::exponential(rate);
  for (double s : {0.0, 0.5, 1.0, 4.0}) {
    EXPECT_NEAR(ph.lst(s), rate / (rate + s), 1e-12);
  }
}

TEST(PhaseTypeTest, MgfMatchesExponentialAndDiverges) {
  const double rate = 2.0;
  const auto ph = PhaseType::exponential(rate);
  EXPECT_NEAR(ph.mgf(1.0), rate / (rate - 1.0), 1e-12);
  EXPECT_THROW(ph.mgf(2.5), numeric_error);
}

TEST(PhaseTypeTest, ConvolutionAddsMoments) {
  const auto a = PhaseType::erlang(2, 3.0);
  const auto b = PhaseType::exponential(1.0);
  const auto c = PhaseType::convolve(a, b);
  EXPECT_EQ(c.phases(), 3u);
  EXPECT_NEAR(c.mean(), a.mean() + b.mean(), 1e-12);
  EXPECT_NEAR(c.variance(), a.variance() + b.variance(), 1e-10);
}

TEST(PhaseTypeTest, ConvolveNEqualsErlang) {
  const auto x = PhaseType::exponential(2.0);
  const auto sum = PhaseType::convolve_n(x, 4);
  const auto erl = PhaseType::erlang(4, 2.0);
  EXPECT_NEAR(sum.mean(), erl.mean(), 1e-12);
  EXPECT_NEAR(sum.variance(), erl.variance(), 1e-10);
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    EXPECT_NEAR(sum.cdf(t), erl.cdf(t), 1e-8);
  }
}

TEST(PhaseTypeTest, MixtureMeansCombine) {
  const auto a = PhaseType::exponential(1.0);
  const auto b = PhaseType::exponential(4.0);
  const auto mix = PhaseType::mixture(0.25, a, b);
  EXPECT_NEAR(mix.mean(), 0.25 * 1.0 + 0.75 * 0.25, 1e-12);
  EXPECT_NEAR(mix.cdf(1.0), 0.25 * a.cdf(1.0) + 0.75 * b.cdf(1.0), 1e-9);
}

TEST(PhaseTypeTest, MixtureManyWithZeroMass) {
  const std::vector<std::pair<double, PhaseType>> branches{
      {0.3, PhaseType::exponential(1.0)}, {0.5, PhaseType::erlang(2, 2.0)}};
  const auto mix = PhaseType::mixture_many(branches, 0.2);
  EXPECT_NEAR(mix.point_mass_at_zero(), 0.2, 1e-9);
  EXPECT_NEAR(mix.mean(), 0.3 * 1.0 + 0.5 * 1.0, 1e-12);
  EXPECT_NEAR(mix.cdf(0.0), 0.2, 1e-9);
}

TEST(PhaseTypeTest, ConvolutionWithPointMassAtZero) {
  // X = 0 w.p. 0.5, else Exp(1); Y = Exp(2).
  const std::vector<std::pair<double, PhaseType>> branches{{0.5, PhaseType::exponential(1.0)}};
  const auto x = PhaseType::mixture_many(branches, 0.5);
  const auto y = PhaseType::exponential(2.0);
  const auto sum = PhaseType::convolve(x, y);
  EXPECT_NEAR(sum.mean(), 0.5 * 1.0 + 0.5, 1e-12);
  EXPECT_NEAR(sum.point_mass_at_zero(), 0.0, 1e-9);
}

TEST(PhaseTypeTest, ScaledDistribution) {
  const auto x = PhaseType::erlang(3, 2.0);
  const auto y = x.scaled(2.0);  // 2X
  EXPECT_NEAR(y.mean(), 2.0 * x.mean(), 1e-12);
  EXPECT_NEAR(y.variance(), 4.0 * x.variance(), 1e-10);
  EXPECT_NEAR(y.cdf(3.0), x.cdf(1.5), 1e-9);
}

TEST(PhaseTypeTest, SampleMatchesMean) {
  Rng rng(123);
  const auto ph = PhaseType::erlang(3, 1.5);
  Welford acc;
  for (int i = 0; i < 50000; ++i) acc.add(ph.sample(rng));
  EXPECT_NEAR(acc.mean(), ph.mean(), 0.03);
  EXPECT_NEAR(acc.variance(), ph.variance(), 0.1);
}

TEST(PhaseTypeTest, SampleHyperExponential) {
  Rng rng(77);
  const auto ph = PhaseType::hyper_exponential({0.2, 0.8}, {0.5, 5.0});
  Welford acc;
  for (int i = 0; i < 100000; ++i) acc.add(ph.sample(rng));
  EXPECT_NEAR(acc.mean(), ph.mean(), 0.02);
}

TEST(PhaseTypeTest, ValidationRejectsBadInputs) {
  // Negative off-diagonal.
  EXPECT_THROW(PhaseType(Matrix{{1.0, 0.0}}, Matrix{{-1.0, -0.5}, {0.0, -1.0}}),
               precondition_error);
  // Positive diagonal.
  EXPECT_THROW(PhaseType(Matrix{{1.0}}, Matrix{{1.0}}), precondition_error);
  // Row sum > 0.
  EXPECT_THROW(PhaseType(Matrix{{1.0}}, Matrix{{-1.0}} * -2.0), precondition_error);
  // Alpha sums to 0.
  EXPECT_THROW(PhaseType(Matrix{{0.0}}, Matrix{{-1.0}}), precondition_error);
  // Alpha > 1.
  EXPECT_THROW(PhaseType(Matrix{{1.5}}, Matrix{{-1.0}}), precondition_error);
}

TEST(PhaseTypeTest, DecayRateKnownCases) {
  EXPECT_NEAR(PhaseType::exponential(2.0).decay_rate(), 2.0, 1e-9);
  EXPECT_NEAR(PhaseType::erlang(4, 0.5).decay_rate(), 0.5, 1e-9);
  // Hypoexponential: decay is the *slowest* stage rate.
  const auto hypo =
      PhaseType::convolve(PhaseType::exponential(0.5), PhaseType::erlang(8, 4.0));
  EXPECT_NEAR(hypo.decay_rate(), 0.5, 1e-6);
  // Hyper-exponential: decay is the smallest branch rate.
  const auto hyper = PhaseType::hyper_exponential({0.5, 0.5}, {0.3, 3.0});
  EXPECT_NEAR(hyper.decay_rate(), 0.3, 1e-9);
}

TEST(PhaseTypeTest, MgfExistsExactlyBelowDecayRate) {
  const auto hypo =
      PhaseType::convolve(PhaseType::exponential(0.5), PhaseType::erlang(8, 4.0));
  EXPECT_NO_THROW(hypo.mgf(0.4));
  EXPECT_GT(hypo.mgf(0.4), 1.0);
  EXPECT_THROW(hypo.mgf(0.6), numeric_error);
  // Even-order Erlang used to slip through naive positivity checks.
  EXPECT_THROW(PhaseType::erlang(4, 0.5).mgf(0.8), numeric_error);
}

struct TwoMomentCase {
  double mean;
  double scv;
};

// Prints a case as e.g. "mean2_scv0p5" ('.' spelled 'p'). gtest shows it
// as the parameter value, and CMake's test discovery puts that value in
// place of the instance index, so the ctest names read
// "Grid/FitTwoMomentsTest.MatchesTargets/mean2_scv0p5". (A gtest name
// generator would not do: discovery then keeps the name and appends the
// "# GetParam() = ..." comment to it.)
void PrintTo(const TwoMomentCase& c, std::ostream* os) {
  const auto token = [](double v) {
    std::ostringstream out;
    out << v;
    std::string s = out.str();
    std::replace(s.begin(), s.end(), '.', 'p');
    return s;
  };
  *os << "mean" << token(c.mean) << "_scv" << token(c.scv);
}

class FitTwoMomentsTest : public ::testing::TestWithParam<TwoMomentCase> {};

TEST_P(FitTwoMomentsTest, MatchesTargets) {
  const auto [mean, scv] = GetParam();
  const auto ph = PhaseType::fit_two_moments(mean, scv);
  EXPECT_NEAR(ph.mean(), mean, 1e-6 * mean) << "mean mismatch";
  EXPECT_NEAR(ph.scv(), scv, 0.02 * std::max(scv, 1.0)) << "scv mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FitTwoMomentsTest,
    ::testing::Values(TwoMomentCase{1.0, 1.0}, TwoMomentCase{2.0, 0.5},
                      TwoMomentCase{0.5, 0.25}, TwoMomentCase{3.0, 0.11},
                      TwoMomentCase{1.0, 2.0}, TwoMomentCase{10.0, 5.0},
                      TwoMomentCase{0.1, 1.5}, TwoMomentCase{7.0, 0.34}));

TEST(PhaseTypeTest, LstDerivativeMatchesMean) {
  // Numerical property: -d/ds LST(s) at 0 equals the mean.
  const auto ph = PhaseType::hyper_exponential({0.4, 0.6}, {0.7, 2.5});
  const double h = 1e-6;
  const double derivative = (ph.lst(h) - ph.lst(0.0)) / h;
  EXPECT_NEAR(-derivative, ph.mean(), 1e-4);
  EXPECT_NEAR(ph.lst(0.0), 1.0, 1e-12);
}

TEST(PhaseTypeTest, CdfConsistentWithSampledQuantiles) {
  Rng rng(321);
  const auto ph = PhaseType::convolve(PhaseType::erlang(2, 1.0),
                                      PhaseType::hyper_exponential({0.5, 0.5}, {0.5, 4.0}));
  dias::SampleSet samples;
  for (int i = 0; i < 60000; ++i) samples.add(ph.sample(rng));
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(ph.cdf(samples.quantile(q)), q, 0.01) << "q=" << q;
  }
}

TEST(PhaseTypeTest, MixtureManyValidation) {
  const std::vector<std::pair<double, PhaseType>> branches{
      {0.5, PhaseType::exponential(1.0)}};
  // Probabilities must sum to 1 (with the zero atom).
  EXPECT_THROW(PhaseType::mixture_many(branches, 0.2), precondition_error);
  EXPECT_THROW(PhaseType::mixture_many({}, 1.0), precondition_error);
  EXPECT_NO_THROW(PhaseType::mixture_many(branches, 0.5));
}

class ConvolutionClosureTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvolutionClosureTest, CdfIsDistribution) {
  // Property: any convolution/mixture pipeline yields a valid distribution
  // (monotone CDF from 0 to 1).
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  PhaseType ph = PhaseType::exponential(rng.uniform(0.5, 3.0));
  for (int i = 0; i < 3; ++i) {
    const auto other = PhaseType::erlang(1 + static_cast<int>(rng.uniform_int(3)),
                                         rng.uniform(0.5, 3.0));
    ph = rng.bernoulli(0.5) ? PhaseType::convolve(ph, other)
                            : PhaseType::mixture(rng.uniform(), ph, other);
  }
  double prev = 0.0;
  for (double t = 0.0; t <= 20.0; t += 0.5) {
    const double c = ph.cdf(t);
    EXPECT_GE(c, prev - 1e-9);
    EXPECT_LE(c, 1.0 + 1e-9);
    prev = c;
  }
  EXPECT_GT(ph.cdf(200.0), 0.999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvolutionClosureTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace dias::model
