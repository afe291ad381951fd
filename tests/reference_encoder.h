// The test oracle for RotatedModularMechanism::EncodeBatch: a row-by-row
// reference encoder built only from the whole-row primitives. For one
// participant it runs
//
//   RotateScale -> the mechanism's clip (SmmClip or L2Clip)
//     -> all rounding draws (StochasticRoundInto or ConditionallyRoundInto)
//     -> all noise draws (one whole-row SampleBlock) -> add -> Wrap,
//
// which is the documented RNG order of the blocked pipeline. It shares no
// code with the three blocked sweeps beyond those primitives, so agreement
// pins that the sweeps compose to the same per-row arithmetic. The oracle is
// built from a mechanism's Options alone (its own codec and samplers), never
// from the mechanism under test.
#ifndef SMM_TESTS_REFERENCE_ENCODER_H_
#define SMM_TESTS_REFERENCE_ENCODER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"
#include "mechanisms/dgm_mechanism.h"
#include "mechanisms/rotation_codec.h"
#include "mechanisms/smm_mechanism.h"
#include "sampling/noise_sampler.h"

namespace smm::mechanisms {

class ReferenceEncoder {
 public:
  static StatusOr<ReferenceEncoder> For(const SmmMechanism::Options& o) {
    SMM_ASSIGN_OR_RETURN(auto codec,
                         MakeCodec(o.dim, o.gamma, o.modulus, o.rotation_seed,
                                   o.apply_rotation));
    SMM_ASSIGN_OR_RETURN(auto sampler, sampling::SkellamSampler::Create(
                                           o.lambda, o.sampler_mode));
    return ReferenceEncoder(std::move(codec), SmmClipStage(o.c, o.delta_inf),
                            StochasticRoundStage(), NoiseStage(sampler));
  }

  static StatusOr<ReferenceEncoder> For(const DgmMechanism::Options& o) {
    SMM_ASSIGN_OR_RETURN(auto codec,
                         MakeCodec(o.dim, o.gamma, o.modulus, o.rotation_seed,
                                   o.apply_rotation));
    SMM_ASSIGN_OR_RETURN(
        auto sampler,
        sampling::DiscreteGaussianSampler::Create(o.sigma, o.sampler_mode));
    return ReferenceEncoder(std::move(codec), SmmClipStage(o.c, o.delta_inf),
                            StochasticRoundStage(), NoiseStage(sampler));
  }

  static StatusOr<ReferenceEncoder> For(const DdgMechanism::Options& o) {
    SMM_ASSIGN_OR_RETURN(auto codec,
                         MakeCodec(o.dim, o.gamma, o.modulus, o.rotation_seed,
                                   o.apply_rotation));
    SMM_ASSIGN_OR_RETURN(
        auto sampler,
        sampling::DiscreteGaussianSampler::Create(o.sigma, o.sampler_mode));
    return ReferenceEncoder(
        std::move(codec), L2ClipStage(o.gamma * o.l2_bound),
        ConditionalRoundStage(o, /*track_rejections=*/true),
        NoiseStage(sampler));
  }

  static StatusOr<ReferenceEncoder> For(
      const AgarwalSkellamMechanism::Options& o) {
    SMM_ASSIGN_OR_RETURN(auto codec,
                         MakeCodec(o.dim, o.gamma, o.modulus, o.rotation_seed,
                                   o.apply_rotation));
    SMM_ASSIGN_OR_RETURN(auto sampler, sampling::SkellamSampler::Create(
                                           o.lambda, o.sampler_mode));
    return ReferenceEncoder(
        std::move(codec), L2ClipStage(o.gamma * o.l2_bound),
        ConditionalRoundStage(o, /*track_rejections=*/false),
        NoiseStage(sampler));
  }

  static StatusOr<ReferenceEncoder> For(const CpSgdMechanism::Options& o) {
    SMM_ASSIGN_OR_RETURN(auto codec,
                         MakeCodec(o.dim, o.gamma, o.modulus, o.rotation_seed,
                                   o.apply_rotation));
    SMM_ASSIGN_OR_RETURN(
        auto sampler,
        sampling::CenteredBinomialSampler::Create(o.binomial_trials));
    return ReferenceEncoder(std::move(codec),
                            L2ClipStage(o.gamma * o.l2_bound),
                            StochasticRoundStage(), NoiseStage(sampler));
  }

  /// Encodes one participant, drawing all of its randomness from `rng`.
  StatusOr<std::vector<uint64_t>> EncodeRow(const std::vector<double>& x,
                                            RandomGenerator& rng) {
    SMM_ASSIGN_OR_RETURN(std::vector<double> g, codec_.RotateScale(x));
    SMM_RETURN_IF_ERROR(clip_(g));
    std::vector<int64_t> ints;
    SMM_RETURN_IF_ERROR(round_(g, rng, &rejections_, ints));
    std::vector<int64_t> noise(ints.size());
    noise_(noise.size(), noise.data(), rng);
    for (size_t j = 0; j < ints.size(); ++j) ints[j] += noise[j];
    return codec_.Wrap(ints, &overflows_);
  }

  /// Encodes inputs[i] with streams[i] for every i, one row at a time.
  StatusOr<std::vector<std::vector<uint64_t>>> EncodeAll(
      const std::vector<std::vector<double>>& inputs,
      std::vector<RandomGenerator>& streams) {
    if (inputs.size() != streams.size()) {
      return InvalidArgumentError("one rng stream per input required");
    }
    std::vector<std::vector<uint64_t>> out(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      SMM_ASSIGN_OR_RETURN(out[i], EncodeRow(inputs[i], streams[i]));
    }
    return out;
  }

  /// Wrap-around events across every row encoded so far.
  int64_t overflows() const { return overflows_; }
  /// Rejected conditional-rounding attempts so far (DDG only, matching
  /// DdgMechanism::rounding_rejections; zero for every other mechanism).
  int64_t rejections() const { return rejections_; }

 private:
  using ClipStage = std::function<Status(std::vector<double>&)>;
  using RoundStage = std::function<Status(
      const std::vector<double>&, RandomGenerator&, int64_t* rejections,
      std::vector<int64_t>&)>;
  using NoiseFn = std::function<void(size_t, int64_t*, RandomGenerator&)>;

  ReferenceEncoder(RotationCodec codec, ClipStage clip, RoundStage round,
                   NoiseFn noise)
      : codec_(std::move(codec)),
        clip_(std::move(clip)),
        round_(std::move(round)),
        noise_(std::move(noise)) {}

  static StatusOr<RotationCodec> MakeCodec(size_t dim, double gamma,
                                           uint64_t modulus, uint64_t seed,
                                           bool apply_rotation) {
    RotationCodec::Options options;
    options.dim = dim;
    options.gamma = gamma;
    options.modulus = modulus;
    options.rotation_seed = seed;
    options.apply_rotation = apply_rotation;
    return RotationCodec::Create(options);
  }

  static ClipStage SmmClipStage(double c, double delta_inf) {
    return [c, delta_inf](std::vector<double>& g) {
      return SmmClip(g, c, delta_inf);
    };
  }

  static ClipStage L2ClipStage(double threshold) {
    return [threshold](std::vector<double>& g) {
      L2Clip(g, threshold);
      return OkStatus();
    };
  }

  static RoundStage StochasticRoundStage() {
    return [](const std::vector<double>& g, RandomGenerator& rng,
              int64_t* /*rejections*/, std::vector<int64_t>& out) {
      StochasticRoundInto(g, rng, out);
      return OkStatus();
    };
  }

  template <typename Options>
  static RoundStage ConditionalRoundStage(const Options& o,
                                          bool track_rejections) {
    const double norm_bound =
        ConditionalRoundingNormBound(o.gamma, o.l2_bound, o.dim, o.beta);
    const int max_retries = o.max_rounding_retries;
    return [norm_bound, max_retries, track_rejections](
               const std::vector<double>& g, RandomGenerator& rng,
               int64_t* rejections, std::vector<int64_t>& out) {
      return ConditionallyRoundInto(g, norm_bound, max_retries, rng,
                                    track_rejections ? rejections : nullptr,
                                    out);
    };
  }

  template <typename Sampler>
  static NoiseFn NoiseStage(Sampler sampler) {
    auto shared = std::make_shared<Sampler>(std::move(sampler));
    return [shared](size_t n, int64_t* out, RandomGenerator& rng) {
      shared->SampleBlock(n, out, rng);
    };
  }

  RotationCodec codec_;
  ClipStage clip_;
  RoundStage round_;
  NoiseFn noise_;
  int64_t overflows_ = 0;
  int64_t rejections_ = 0;
};

}  // namespace smm::mechanisms

#endif  // SMM_TESTS_REFERENCE_ENCODER_H_
