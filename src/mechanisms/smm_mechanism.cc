#include "mechanisms/smm_mechanism.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/simd.h"
#include "mechanisms/conditional_rounding.h"

namespace smm::mechanisms {

namespace {

/// Lines 3-10 of Algorithm 4 as an encode spec: the Algorithm 5 clip with
/// the same floored Linf bound SmmClip derives, plain stochastic rounding,
/// then Skellam noise. The noiser lives in the heap-allocated mechanism and
/// never moves, so the callback's pointer stays valid for its lifetime.
FusedPerturbSpec MixtureSpec(const SmmMechanism::Options& options,
                             const SkellamMixtureNoiser* noiser) {
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

StatusOr<SkellamMixtureNoiser> SkellamMixtureNoiser::Create(
    double lambda, sampling::SamplerMode mode) {
  SMM_ASSIGN_OR_RETURN(auto sampler,
                       sampling::SkellamSampler::Create(lambda, mode));
  return SkellamMixtureNoiser(std::move(sampler));
}

int64_t SkellamMixtureNoiser::Perturb(double x, RandomGenerator& rng) const {
  const double floor_x = std::floor(x);
  const double p = x - floor_x;  // In [0, 1).
  int64_t base = static_cast<int64_t>(floor_x);
  if (rng.Bernoulli(p)) base += 1;  // ceil(x) branch (Lines 6-7 of Alg. 1).
  return base + sampler_.Sample(rng);
}

std::vector<int64_t> SkellamMixtureNoiser::PerturbVector(
    const std::vector<double>& x, RandomGenerator& rng) const {
  // Phase 1 (Lines 5-8 of Algorithm 2): the floor/ceil Bernoulli mixture is
  // exactly stochastic rounding.
  std::vector<int64_t> out = StochasticRound(x, rng);
  // Phase 2 (Line 9): one Skellam block for the whole vector.
  std::vector<int64_t> noise(x.size());
  sampler_.SampleBlock(noise.size(), noise.data(), rng);
  simd::AddI64InPlace(out.data(), noise.data(), out.size());
  return out;
}

StatusOr<std::unique_ptr<SmmMechanism>> SmmMechanism::Create(
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
  SMM_ASSIGN_OR_RETURN(
      auto noiser,
      SkellamMixtureNoiser::Create(options.lambda, options.sampler_mode));
  return std::unique_ptr<SmmMechanism>(
      new SmmMechanism(options, std::move(codec), std::move(noiser)));
}

SmmMechanism::SmmMechanism(Options options, RotationCodec codec,
                           SkellamMixtureNoiser noiser)
    : RotatedModularMechanism(std::move(codec),
                              MixtureSpec(options, &noiser_)),
      options_(options),
      noiser_(std::move(noiser)) {}

}  // namespace smm::mechanisms
