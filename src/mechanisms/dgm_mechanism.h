#ifndef SMM_MECHANISMS_DGM_MECHANISM_H_
#define SMM_MECHANISMS_DGM_MECHANISM_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/rotation_codec.h"
#include "sampling/noise_sampler.h"

namespace smm::mechanisms {

/// The Discrete Gaussian Mixture of Appendix B (Algorithms 11, 12, 14): the
/// same floor/ceil Bernoulli mixture as SMM but with discrete Gaussian noise
/// NZ(0, sigma^2) instead of Skellam. Its privacy analysis (Theorems 8-9)
/// pays an extra tau_n divergence because sums of discrete Gaussians are not
/// discrete Gaussian.
class DiscreteGaussianMixtureNoiser {
 public:
  static StatusOr<DiscreteGaussianMixtureNoiser> Create(
      double sigma,
      sampling::SamplerMode mode = sampling::SamplerMode::kApproximate);

  /// Perturbs one value: floor(x) + Bernoulli(frac) + NZ(0, sigma^2).
  int64_t Perturb(double x, RandomGenerator& rng) const;

  /// n i.i.d. discrete-Gaussian draws into out[0..n), for the encode
  /// pipeline's blocked noise sweep of Algorithm 12 (dDGM; same blockwise
  /// RNG-consumption guarantee as SkellamMixtureNoiser::SampleNoiseBlock).
  void SampleNoiseBlock(size_t n, int64_t* out, RandomGenerator& rng) const {
    sampler_.SampleBlock(n, out, rng);
  }

  double sigma() const { return sampler_.sigma(); }

 private:
  explicit DiscreteGaussianMixtureNoiser(
      sampling::DiscreteGaussianSampler sampler)
      : sampler_(std::move(sampler)) {}

  sampling::DiscreteGaussianSampler sampler_;
};

/// DGM applied to federated aggregation (Algorithm 14 + Algorithm 6): same
/// pipeline as SmmMechanism with the noise distribution swapped.
class DgmMechanism final : public RotatedModularMechanism {
 public:
  struct Options {
    size_t dim = 0;
    double gamma = 1.0;
    double c = 1.0;          ///< Mixed-sensitivity clip threshold (Eq. 4).
    double delta_inf = 1.0;  ///< Linf clip bound (Eq. 8 feasibility).
    double sigma = 1.0;      ///< Per-participant discrete Gaussian sigma.
    uint64_t modulus = 256;
    uint64_t rotation_seed = 0;
    bool apply_rotation = true;
    sampling::SamplerMode sampler_mode = sampling::SamplerMode::kApproximate;
  };

  static StatusOr<std::unique_ptr<DgmMechanism>> Create(
      const Options& options);

  const Options& options() const { return options_; }

 private:
  /// Defined in the .cc: passes the FusedPerturbSpec (Algorithm 5 clip +
  /// discrete-Gaussian noise callback) to the base alongside the member
  /// setup.
  DgmMechanism(Options options, RotationCodec codec,
               DiscreteGaussianMixtureNoiser noiser);

  Options options_;
  DiscreteGaussianMixtureNoiser noiser_;
};

}  // namespace smm::mechanisms

#endif  // SMM_MECHANISMS_DGM_MECHANISM_H_
