#include "mechanisms/baseline_mechanisms.h"

#include <cmath>
#include <utility>

#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"

namespace smm::mechanisms {

namespace {

StatusOr<RotationCodec> MakeCodec(size_t dim, double gamma, uint64_t modulus,
                                  uint64_t rotation_seed,
                                  bool apply_rotation) {
  RotationCodec::Options codec_options;
  codec_options.dim = dim;
  codec_options.gamma = gamma;
  codec_options.modulus = modulus;
  codec_options.rotation_seed = rotation_seed;
  codec_options.apply_rotation = apply_rotation;
  return RotationCodec::Create(codec_options);
}

/// The encode spec shared by the three L2 baselines: L2 clip to
/// gamma * l2_bound, plain stochastic rounding, then `sampler`'s noise. The
/// sampler lives in the heap-allocated mechanism and never moves, so the
/// callback's pointer stays valid for the mechanism's lifetime.
template <typename Sampler>
FusedPerturbSpec L2ClipSpec(double gamma, double l2_bound,
                            const Sampler* sampler) {
  FusedPerturbSpec spec;
  spec.clip = FusedPerturbSpec::Clip::kL2;
  spec.l2_threshold = gamma * l2_bound;
  spec.sample_block = [sampler](size_t n, int64_t* out, RandomGenerator& rng) {
    sampler->SampleBlock(n, out, rng);
  };
  return spec;
}

/// L2ClipSpec with DDG/Skellam conditional rounding against the Eq. (6)
/// norm bound in place of plain stochastic rounding.
template <typename Options, typename Sampler>
FusedPerturbSpec ConditionalRoundSpec(const Options& options,
                                      double norm_bound, bool track_rejections,
                                      const Sampler* sampler) {
  FusedPerturbSpec spec =
      L2ClipSpec(options.gamma, options.l2_bound, sampler);
  spec.conditional_round = true;
  spec.norm_bound = norm_bound;
  spec.max_retries = options.max_rounding_retries;
  spec.track_rejections = track_rejections;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// DdgMechanism
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<DdgMechanism>> DdgMechanism::Create(
    const Options& options) {
  SMM_ASSIGN_OR_RETURN(
      auto codec, MakeCodec(options.dim, options.gamma, options.modulus,
                            options.rotation_seed, options.apply_rotation));
  if (!(options.l2_bound > 0.0)) {
    return InvalidArgumentError("l2_bound must be > 0");
  }
  if (!(options.beta > 0.0 && options.beta < 1.0)) {
    return InvalidArgumentError("beta must be in (0, 1)");
  }
  SMM_ASSIGN_OR_RETURN(auto sampler, sampling::DiscreteGaussianSampler::Create(
                                         options.sigma, options.sampler_mode));
  const double norm_bound = ConditionalRoundingNormBound(
      options.gamma, options.l2_bound, options.dim, options.beta);
  return std::unique_ptr<DdgMechanism>(new DdgMechanism(
      options, std::move(codec), std::move(sampler), norm_bound));
}

DdgMechanism::DdgMechanism(Options options, RotationCodec codec,
                           sampling::DiscreteGaussianSampler sampler,
                           double norm_bound)
    : RotatedModularMechanism(
          std::move(codec),
          ConditionalRoundSpec(options, norm_bound,
                               /*track_rejections=*/true, &sampler_)),
      sampler_(std::move(sampler)),
      norm_bound_(norm_bound) {}

// ---------------------------------------------------------------------------
// AgarwalSkellamMechanism
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<AgarwalSkellamMechanism>>
AgarwalSkellamMechanism::Create(const Options& options) {
  SMM_ASSIGN_OR_RETURN(
      auto codec, MakeCodec(options.dim, options.gamma, options.modulus,
                            options.rotation_seed, options.apply_rotation));
  if (!(options.l2_bound > 0.0)) {
    return InvalidArgumentError("l2_bound must be > 0");
  }
  if (!(options.beta > 0.0 && options.beta < 1.0)) {
    return InvalidArgumentError("beta must be in (0, 1)");
  }
  SMM_ASSIGN_OR_RETURN(auto sampler, sampling::SkellamSampler::Create(
                                         options.lambda, options.sampler_mode));
  const double norm_bound = ConditionalRoundingNormBound(
      options.gamma, options.l2_bound, options.dim, options.beta);
  return std::unique_ptr<AgarwalSkellamMechanism>(new AgarwalSkellamMechanism(
      options, std::move(codec), std::move(sampler), norm_bound));
}

AgarwalSkellamMechanism::AgarwalSkellamMechanism(
    Options options, RotationCodec codec, sampling::SkellamSampler sampler,
    double norm_bound)
    : RotatedModularMechanism(
          std::move(codec),
          ConditionalRoundSpec(options, norm_bound,
                               /*track_rejections=*/false, &sampler_)),
      sampler_(std::move(sampler)),
      norm_bound_(norm_bound) {}

// ---------------------------------------------------------------------------
// CpSgdMechanism
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<CpSgdMechanism>> CpSgdMechanism::Create(
    const Options& options) {
  SMM_ASSIGN_OR_RETURN(
      auto codec, MakeCodec(options.dim, options.gamma, options.modulus,
                            options.rotation_seed, options.apply_rotation));
  if (!(options.l2_bound > 0.0)) {
    return InvalidArgumentError("l2_bound must be > 0");
  }
  if (options.binomial_trials % 2 != 0) {
    return InvalidArgumentError(
        "binomial_trials must be even (odd counts bias the decoded sum)");
  }
  SMM_ASSIGN_OR_RETURN(
      auto binomial,
      sampling::CenteredBinomialSampler::Create(options.binomial_trials));
  return std::unique_ptr<CpSgdMechanism>(
      new CpSgdMechanism(options, std::move(codec), binomial));
}

CpSgdMechanism::CpSgdMechanism(Options options, RotationCodec codec,
                               sampling::CenteredBinomialSampler binomial)
    : RotatedModularMechanism(
          std::move(codec),
          L2ClipSpec(options.gamma, options.l2_bound, &binomial_)),
      binomial_(binomial) {}

// ---------------------------------------------------------------------------
// CentralGaussianBaseline
// ---------------------------------------------------------------------------

StatusOr<std::vector<double>> CentralGaussianBaseline::PerturbedSum(
    const std::vector<std::vector<double>>& inputs,
    RandomGenerator& rng) const {
  if (inputs.empty()) return InvalidArgumentError("no inputs");
  const size_t d = inputs[0].size();
  std::vector<double> sum(d, 0.0);
  for (const auto& x : inputs) {
    if (x.size() != d) return InvalidArgumentError("dimension mismatch");
    std::vector<double> clipped = x;
    if (options_.l2_bound > 0.0) L2Clip(clipped, options_.l2_bound);
    for (size_t j = 0; j < d; ++j) sum[j] += clipped[j];
  }
  for (size_t j = 0; j < d; ++j) {
    sum[j] += rng.Gaussian(0.0, options_.sigma);
  }
  return sum;
}

}  // namespace smm::mechanisms
