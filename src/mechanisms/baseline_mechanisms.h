#ifndef SMM_MECHANISMS_BASELINE_MECHANISMS_H_
#define SMM_MECHANISMS_BASELINE_MECHANISMS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/rotation_codec.h"
#include "sampling/noise_sampler.h"

namespace smm::mechanisms {

/// The competitor mechanisms of Section 5, all behind the same
/// DistributedSumMechanism interface as SMM so the experiment harnesses can
/// swap them freely.

/// Distributed Discrete Gaussian (Kairouz et al. 2021): rotate, scale, L2
/// clip, *conditional* stochastic rounding against the Eq. (6) norm bound,
/// then per-coordinate discrete Gaussian noise NZ(0, sigma^2).
class DdgMechanism final : public RotatedModularMechanism {
 public:
  struct Options {
    size_t dim = 0;
    double gamma = 1.0;
    double l2_bound = 1.0;  ///< Delta_2 of the unscaled input.
    double beta = 0.60653065971263342;  ///< exp(-0.5), as recommended.
    double sigma = 1.0;     ///< Per-participant discrete Gaussian sigma.
    uint64_t modulus = 256;
    uint64_t rotation_seed = 0;
    bool apply_rotation = true;
    int max_rounding_retries = 1000;
    sampling::SamplerMode sampler_mode = sampling::SamplerMode::kApproximate;
  };

  static StatusOr<std::unique_ptr<DdgMechanism>> Create(
      const Options& options);

  /// The Eq. (6) norm bound the rounded vector is conditioned on; also the
  /// L2 sensitivity fed into the accountant.
  double rounded_norm_bound() const { return norm_bound_; }
  int64_t rounding_rejections() const {
    return rounding_rejections_.load(std::memory_order_relaxed);
  }

 protected:
  /// Publishes the rounding-rejection count on top of the shared overflow
  /// accounting.
  void PublishCounters(const EncodeCounters& counters) override {
    RotatedModularMechanism::PublishCounters(counters);
    rounding_rejections_.fetch_add(counters.rejections,
                                   std::memory_order_relaxed);
  }

 private:
  /// Defined in the .cc: passes the FusedPerturbSpec (L2 clip +
  /// rejection-tracked conditional rounding + discrete-Gaussian noise
  /// callback) to the base alongside the member setup.
  DdgMechanism(Options options, RotationCodec codec,
               sampling::DiscreteGaussianSampler sampler, double norm_bound);

  sampling::DiscreteGaussianSampler sampler_;
  double norm_bound_;
  /// Atomic so concurrent EncodeBatch shards never lose events.
  std::atomic<int64_t> rounding_rejections_{0};
};

/// The Skellam mechanism of Agarwal et al. 2021: identical pipeline to DDG
/// (including conditional rounding) with Skellam noise Sk(lambda, lambda).
class AgarwalSkellamMechanism final : public RotatedModularMechanism {
 public:
  struct Options {
    size_t dim = 0;
    double gamma = 1.0;
    double l2_bound = 1.0;
    double beta = 0.60653065971263342;  ///< exp(-0.5).
    double lambda = 1.0;  ///< Per-participant Skellam parameter.
    uint64_t modulus = 256;
    uint64_t rotation_seed = 0;
    bool apply_rotation = true;
    int max_rounding_retries = 1000;
    sampling::SamplerMode sampler_mode = sampling::SamplerMode::kApproximate;
  };

  static StatusOr<std::unique_ptr<AgarwalSkellamMechanism>> Create(
      const Options& options);

  double rounded_norm_bound() const { return norm_bound_; }

 private:
  /// Defined in the .cc: passes the FusedPerturbSpec (L2 clip +
  /// conditional rounding without rejection tracking + Skellam noise
  /// callback) to the base alongside the member setup.
  AgarwalSkellamMechanism(Options options, RotationCodec codec,
                          sampling::SkellamSampler sampler, double norm_bound);

  sampling::SkellamSampler sampler_;
  double norm_bound_;
};

/// cpSGD (Agarwal et al. 2018): rotate, scale, L2 clip, *unconditional*
/// stochastic rounding, then centered binomial noise Binomial(N, 1/2) - N/2.
/// N must be even: for odd N the centered binomial has mean +1/2, and the
/// rotation concentrates that bias (H 1 = sqrt(d) e_0) on one coordinate of
/// the decoded sum.
class CpSgdMechanism final : public RotatedModularMechanism {
 public:
  struct Options {
    size_t dim = 0;
    double gamma = 1.0;
    double l2_bound = 1.0;
    int64_t binomial_trials = 2;  ///< N: per-participant trials (even).
    uint64_t modulus = 256;
    uint64_t rotation_seed = 0;
    bool apply_rotation = true;
  };

  static StatusOr<std::unique_ptr<CpSgdMechanism>> Create(
      const Options& options);

 private:
  /// Defined in the .cc: passes the FusedPerturbSpec (L2 clip + plain
  /// stochastic rounding + centered-binomial noise callback) to the base
  /// alongside the member setup.
  CpSgdMechanism(Options options, RotationCodec codec,
                 sampling::CenteredBinomialSampler binomial);

  sampling::CenteredBinomialSampler binomial_;
};

/// The centralized continuous Gaussian baseline ("a strong baseline",
/// Section 6.1): adds N(0, sigma^2) to each coordinate of the exact sum.
/// Not a Z_m mechanism; used directly by the harnesses.
class CentralGaussianBaseline {
 public:
  struct Options {
    double sigma = 1.0;     ///< Noise standard deviation.
    double l2_bound = 0.0;  ///< If > 0, L2-clip each input first.
  };

  explicit CentralGaussianBaseline(const Options& options)
      : options_(options) {}

  /// Returns sum_i clip(x_i) + N(0, sigma^2 I).
  StatusOr<std::vector<double>> PerturbedSum(
      const std::vector<std::vector<double>>& inputs,
      RandomGenerator& rng) const;

 private:
  Options options_;
};

}  // namespace smm::mechanisms

#endif  // SMM_MECHANISMS_BASELINE_MECHANISMS_H_
