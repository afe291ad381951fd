#include "sampling/approx_samplers.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sampling/noise_sampler.h"

namespace smm::sampling {
namespace {

TEST(ApproxPoissonTest, MomentsMatch) {
  RandomGenerator rng(1);
  constexpr int kN = 100000;
  const double lambda = 4.2;
  const PoissonApprox poisson(lambda);
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = poisson.Sample(rng);
    ASSERT_GE(v, 0);
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * v;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, lambda, 0.05);
  EXPECT_NEAR(sum_sq / kN - mean * mean, lambda, 0.15);
}

TEST(ApproxPoissonTest, LargeLambda) {
  RandomGenerator rng(2);
  constexpr int kN = 20000;
  const double lambda = 1e6;
  const PoissonApprox poisson(lambda);
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(poisson.Sample(rng));
  }
  EXPECT_NEAR(sum / kN / lambda, 1.0, 0.001);
}

TEST(ApproxSkellamTest, ZeroMeanVarianceTwoLambda) {
  RandomGenerator rng(3);
  constexpr int kN = 100000;
  const double lambda = 3.0;
  const auto sampler = SkellamSampler::Create(lambda).value();
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = sampler.Sample(rng);
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 2.0 * lambda, 0.15);
}

class ApproxDiscreteGaussianTest : public ::testing::TestWithParam<double> {};

TEST_P(ApproxDiscreteGaussianTest, MomentsMatch) {
  const double sigma = GetParam();
  RandomGenerator rng(static_cast<uint64_t>(sigma * 100) + 5);
  constexpr int kN = 60000;
  const DiscreteGaussianApprox sampler(sigma);
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = sampler.Sample(rng);
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 5.0 * sigma / std::sqrt(kN) + 0.01);
  if (sigma >= 1.0) {
    EXPECT_NEAR(var / (sigma * sigma), 1.0, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, ApproxDiscreteGaussianTest,
                         ::testing::Values(0.7, 1.0, 2.83, 5.66, 20.0));

TEST(NoiseSamplerTest, SkellamCreateValidates) {
  EXPECT_FALSE(SkellamSampler::Create(0.0).ok());
  EXPECT_FALSE(SkellamSampler::Create(-1.0).ok());
  EXPECT_TRUE(SkellamSampler::Create(2.5).ok());
}

TEST(NoiseSamplerTest, DiscreteGaussianCreateValidates) {
  EXPECT_FALSE(DiscreteGaussianSampler::Create(0.0).ok());
  EXPECT_TRUE(DiscreteGaussianSampler::Create(1.5).ok());
}

class SamplerModeTest : public ::testing::TestWithParam<SamplerMode> {};

TEST_P(SamplerModeTest, SkellamVarianceMatchesInBothModes) {
  const SamplerMode mode = GetParam();
  auto sampler = SkellamSampler::Create(2.0, mode);
  ASSERT_TRUE(sampler.ok());
  RandomGenerator rng(17);
  constexpr int kN = 50000;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = sampler->Sample(rng);
    sum_sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum_sq / kN, 4.0, 0.2);
}

TEST_P(SamplerModeTest, DiscreteGaussianVarianceMatchesInBothModes) {
  const SamplerMode mode = GetParam();
  auto sampler = DiscreteGaussianSampler::Create(2.0, mode);
  ASSERT_TRUE(sampler.ok());
  RandomGenerator rng(19);
  constexpr int kN = 50000;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = sampler->Sample(rng);
    sum_sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum_sq / kN / 4.0, 1.0, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Modes, SamplerModeTest,
                         ::testing::Values(SamplerMode::kApproximate,
                                           SamplerMode::kExact));

}  // namespace
}  // namespace smm::sampling
