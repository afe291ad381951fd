#include "mechanisms/dgm_mechanism.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace smm::mechanisms {

namespace {

/// Same encode spec as SmmMechanism's with the noise callback swapped for
/// the discrete Gaussian. The noiser lives in the heap-allocated mechanism
/// and never moves, so the callback's pointer stays valid.
FusedPerturbSpec MixtureSpec(const DgmMechanism::Options& options,
                             const DiscreteGaussianMixtureNoiser* noiser) {
  FusedPerturbSpec spec;
  spec.clip = FusedPerturbSpec::Clip::kSmm;
  spec.smm_c = options.c;
  spec.smm_delta_inf = std::max(1.0, std::floor(options.delta_inf));
  spec.sample_block = [noiser](size_t n, int64_t* out, RandomGenerator& rng) {
    noiser->SampleNoiseBlock(n, out, rng);
  };
  return spec;
}

}  // namespace

StatusOr<DiscreteGaussianMixtureNoiser> DiscreteGaussianMixtureNoiser::Create(
    double sigma, sampling::SamplerMode mode) {
  SMM_ASSIGN_OR_RETURN(
      auto sampler, sampling::DiscreteGaussianSampler::Create(sigma, mode));
  return DiscreteGaussianMixtureNoiser(std::move(sampler));
}

int64_t DiscreteGaussianMixtureNoiser::Perturb(double x,
                                               RandomGenerator& rng) const {
  const double floor_x = std::floor(x);
  const double p = x - floor_x;
  int64_t base = static_cast<int64_t>(floor_x);
  if (rng.Bernoulli(p)) base += 1;
  return base + sampler_.Sample(rng);
}

StatusOr<std::unique_ptr<DgmMechanism>> DgmMechanism::Create(
    const Options& options) {
  RotationCodec::Options codec_options;
  codec_options.dim = options.dim;
  codec_options.gamma = options.gamma;
  codec_options.modulus = options.modulus;
  codec_options.rotation_seed = options.rotation_seed;
  codec_options.apply_rotation = options.apply_rotation;
  SMM_ASSIGN_OR_RETURN(auto codec, RotationCodec::Create(codec_options));
  if (!(options.c > 0.0)) {
    return InvalidArgumentError("clip threshold c must be > 0");
  }
  if (!(options.delta_inf > 0.0)) {
    return InvalidArgumentError("delta_inf must be > 0");
  }
  SMM_ASSIGN_OR_RETURN(auto noiser, DiscreteGaussianMixtureNoiser::Create(
                                        options.sigma, options.sampler_mode));
  return std::unique_ptr<DgmMechanism>(
      new DgmMechanism(options, std::move(codec), std::move(noiser)));
}

DgmMechanism::DgmMechanism(Options options, RotationCodec codec,
                           DiscreteGaussianMixtureNoiser noiser)
    : RotatedModularMechanism(std::move(codec),
                              MixtureSpec(options, &noiser_)),
      options_(options),
      noiser_(std::move(noiser)) {}

}  // namespace smm::mechanisms
