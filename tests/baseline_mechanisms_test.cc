#include "mechanisms/baseline_mechanisms.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mechanisms/conditional_rounding.h"
#include "mechanisms/distributed_mechanism.h"
#include "secagg/secure_aggregator.h"

namespace smm::mechanisms {
namespace {

TEST(DdgMechanismTest, CreateValidates) {
  DdgMechanism::Options o;
  o.dim = 64;
  o.l2_bound = 0.0;
  EXPECT_FALSE(DdgMechanism::Create(o).ok());
  o.l2_bound = 1.0;
  o.beta = 1.5;
  EXPECT_FALSE(DdgMechanism::Create(o).ok());
  o.beta = std::exp(-0.5);
  EXPECT_TRUE(DdgMechanism::Create(o).ok());
}

TEST(DdgMechanismTest, NormBoundExposed) {
  DdgMechanism::Options o;
  o.dim = 1024;
  o.gamma = 4.0;
  o.l2_bound = 1.0;
  auto mech = DdgMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  // sqrt(16 + 256 + 1 * (4 + 16)) = sqrt(292).
  EXPECT_NEAR((*mech)->rounded_norm_bound(), std::sqrt(292.0), 0.01);
}

TEST(DdgMechanismTest, SumEstimateAccurateAtLargeScale) {
  DdgMechanism::Options o;
  o.dim = 128;
  o.gamma = 256.0;
  o.l2_bound = 1.0;
  o.sigma = 0.5;
  o.modulus = 1ULL << 20;
  auto mech = DdgMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  RandomGenerator rng(3);
  secagg::IdealAggregator agg;
  std::vector<std::vector<double>> inputs(
      10, std::vector<double>(128, 0.02));
  auto estimate = RunDistributedSum(**mech, agg, inputs, rng);
  ASSERT_TRUE(estimate.ok());
  // Rounding error ~ n/4 per dim plus noise, all divided by gamma^2.
  EXPECT_LT(MeanSquaredErrorPerDimension(*estimate, inputs).value(), 0.01);
}

TEST(DdgMechanismTest, EstimateUnbiasedWhenRoundingUnconstrained) {
  DdgMechanism::Options o;
  o.dim = 16;
  o.gamma = 8.0;
  o.l2_bound = 1.0;
  o.sigma = 0.5;
  o.modulus = 1ULL << 20;
  auto mech = DdgMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  RandomGenerator rng(5);
  secagg::IdealAggregator agg;
  std::vector<std::vector<double>> inputs = {std::vector<double>(16, 0.1)};
  double mean = 0.0;
  constexpr int kReps = 4000;
  for (int r = 0; r < kReps; ++r) {
    auto estimate = RunDistributedSum(**mech, agg, inputs, rng);
    ASSERT_TRUE(estimate.ok());
    mean += (*estimate)[0];
  }
  // With a generous norm bound the conditioning rarely binds, so the bias
  // is small (it is nonzero in general — the cost DDG pays, Section 5).
  EXPECT_NEAR(mean / kReps, 0.1, 0.03);
}

TEST(AgarwalSkellamMechanismTest, MirrorsDdgPipeline) {
  AgarwalSkellamMechanism::Options o;
  o.dim = 128;
  o.gamma = 256.0;
  o.l2_bound = 1.0;
  o.lambda = 0.125;  // Variance 0.25 = sigma 0.5 equivalent.
  o.modulus = 1ULL << 20;
  auto mech = AgarwalSkellamMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  RandomGenerator rng(7);
  secagg::IdealAggregator agg;
  std::vector<std::vector<double>> inputs(
      10, std::vector<double>(128, 0.02));
  auto estimate = RunDistributedSum(**mech, agg, inputs, rng);
  ASSERT_TRUE(estimate.ok());
  EXPECT_LT(MeanSquaredErrorPerDimension(*estimate, inputs).value(), 0.01);
  EXPECT_NEAR((*mech)->rounded_norm_bound(),
              ConditionalRoundingNormBound(256.0, 1.0, 128, o.beta), 1e-9);
}

TEST(CpSgdMechanismTest, CreateValidates) {
  CpSgdMechanism::Options o;
  o.dim = 64;
  o.binomial_trials = 0;
  EXPECT_FALSE(CpSgdMechanism::Create(o).ok());
  // Odd N centers Binomial(N, 1/2) at +1/2, which the rotation piles onto
  // one coordinate of the decoded sum: rejected.
  o.binomial_trials = 65;
  EXPECT_FALSE(CpSgdMechanism::Create(o).ok());
  o.binomial_trials = 8;
  EXPECT_TRUE(CpSgdMechanism::Create(o).ok());
  CpSgdMechanism::Options defaults;
  defaults.dim = 64;
  EXPECT_TRUE(CpSgdMechanism::Create(defaults).ok());  // Default N is even.
}

TEST(CpSgdMechanismTest, CenteredBinomialNoiseIsZeroMean) {
  CpSgdMechanism::Options o;
  o.dim = 16;
  o.gamma = 64.0;
  o.l2_bound = 1.0;
  o.binomial_trials = 64;  // Even: exactly centered.
  o.modulus = 1ULL << 20;
  auto mech = CpSgdMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  RandomGenerator rng(9);
  secagg::IdealAggregator agg;
  std::vector<std::vector<double>> inputs = {std::vector<double>(16, 0.05)};
  double mean = 0.0;
  constexpr int kReps = 4000;
  for (int r = 0; r < kReps; ++r) {
    auto estimate = RunDistributedSum(**mech, agg, inputs, rng);
    ASSERT_TRUE(estimate.ok());
    mean += (*estimate)[0];
  }
  EXPECT_NEAR(mean / kReps, 0.05, 0.02);
}

TEST(CpSgdMechanismTest, LargeTrialsUseNormalApproximation) {
  CpSgdMechanism::Options o;
  o.dim = 16;
  o.gamma = 1.0;
  o.l2_bound = 1.0;
  o.binomial_trials = 1'000'000;  // Normal-approximation path.
  o.modulus = 1ULL << 30;
  auto mech = CpSgdMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  RandomGenerator rng(11);
  std::vector<double> x(16, 0.0);
  auto z = (*mech)->EncodeParticipant(x, rng);
  ASSERT_TRUE(z.ok());
  // Aggregate noise std = sqrt(N/4) = 500: values should be spread widely.
  auto decoded = (*mech)->DecodeSum(*z, 1);
  ASSERT_TRUE(decoded.ok());
  double sum_sq = 0.0;
  for (double v : *decoded) sum_sq += v * v;
  EXPECT_GT(std::sqrt(sum_sq / 16.0), 100.0);
}

TEST(CentralGaussianTest, NoiselessLimitIsExactSum) {
  CentralGaussianBaseline::Options o;
  o.sigma = 1e-9;
  o.l2_bound = 10.0;
  CentralGaussianBaseline baseline(o);
  RandomGenerator rng(13);
  const std::vector<std::vector<double>> inputs = {{1.0, 2.0}, {3.0, -1.0}};
  auto sum = baseline.PerturbedSum(inputs, rng);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR((*sum)[0], 4.0, 1e-6);
  EXPECT_NEAR((*sum)[1], 1.0, 1e-6);
}

TEST(CentralGaussianTest, ClipsInputs) {
  CentralGaussianBaseline::Options o;
  o.sigma = 1e-9;
  o.l2_bound = 1.0;
  CentralGaussianBaseline baseline(o);
  RandomGenerator rng(17);
  const std::vector<std::vector<double>> inputs = {{3.0, 4.0}};  // Norm 5.
  auto sum = baseline.PerturbedSum(inputs, rng);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR((*sum)[0], 0.6, 1e-6);
  EXPECT_NEAR((*sum)[1], 0.8, 1e-6);
}

TEST(CentralGaussianTest, NoiseVarianceMatchesSigma) {
  CentralGaussianBaseline::Options o;
  o.sigma = 2.0;
  CentralGaussianBaseline baseline(o);
  RandomGenerator rng(19);
  const std::vector<std::vector<double>> inputs = {{0.0}};
  double sum_sq = 0.0;
  constexpr int kReps = 50000;
  for (int r = 0; r < kReps; ++r) {
    auto sum = baseline.PerturbedSum(inputs, rng);
    ASSERT_TRUE(sum.ok());
    sum_sq += (*sum)[0] * (*sum)[0];
  }
  EXPECT_NEAR(sum_sq / kReps, 4.0, 0.15);
}

}  // namespace
}  // namespace smm::mechanisms
