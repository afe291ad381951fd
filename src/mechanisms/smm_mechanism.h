#ifndef SMM_MECHANISMS_SMM_MECHANISM_H_
#define SMM_MECHANISMS_SMM_MECHANISM_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/rotation_codec.h"
#include "sampling/noise_sampler.h"

namespace smm::mechanisms {

/// The mixture perturbation at the heart of SMM (Algorithms 1 and 2): each
/// real value x is mapped to floor(x) + Bernoulli(x - floor(x)) and then
/// perturbed with symmetric Skellam noise Sk(lambda, lambda). The output is
/// integer-valued and an unbiased estimator of x; across one participant it
/// follows the mixture of two shifted Skellam distributions analyzed in
/// Section 3.
class SkellamMixtureNoiser {
 public:
  /// lambda > 0 is the per-participant Skellam parameter.
  static StatusOr<SkellamMixtureNoiser> Create(
      double lambda,
      sampling::SamplerMode mode = sampling::SamplerMode::kApproximate);

  /// Perturbs a single value (one iteration of Algorithm 1's loop body).
  int64_t Perturb(double x, RandomGenerator& rng) const;

  /// Perturbs every coordinate independently (Algorithm 2 / dSMM): the
  /// rounding phase (floor + Bernoulli, per coordinate) runs first, then
  /// one Skellam SampleBlock — the same RNG order as the encode pipeline.
  std::vector<int64_t> PerturbVector(const std::vector<double>& x,
                                     RandomGenerator& rng) const;

  /// The noise half of PerturbVector on its own — n i.i.d. Skellam draws
  /// into out[0..n) — exposed for the encode pipeline's blocked noise
  /// sweep. SampleBlock draws scalars in order, so blockwise calls
  /// consume the rng identically to one whole-vector call.
  void SampleNoiseBlock(size_t n, int64_t* out, RandomGenerator& rng) const {
    sampler_.SampleBlock(n, out, rng);
  }

  double lambda() const { return sampler_.lambda(); }

 private:
  explicit SkellamMixtureNoiser(sampling::SkellamSampler sampler)
      : sampler_(std::move(sampler)) {}

  sampling::SkellamSampler sampler_;
};

/// The full Skellam Mixture Mechanism for federated/distributed aggregation
/// (Algorithms 4 and 6): random rotation, scaling by gamma, the
/// mixed-sensitivity clipping of Algorithm 5, mixture-Skellam perturbation,
/// and reduction into Z_m; plus the server-side decoding. Rotation, wrap,
/// decode, and the batched encode loop live in RotatedModularMechanism; this
/// class contributes only the Algorithm 5 clip + mixture perturbation.
class SmmMechanism final : public RotatedModularMechanism {
 public:
  struct Options {
    size_t dim = 0;           ///< Power-of-two dimension.
    double gamma = 1.0;       ///< Scale parameter.
    double c = 1.0;           ///< Mixed-sensitivity clip threshold (Eq. 4).
    double delta_inf = 1.0;   ///< Linf clip bound from Eq. (3).
    double lambda = 1.0;      ///< Per-participant Skellam parameter.
    uint64_t modulus = 256;   ///< SecAgg modulus m.
    uint64_t rotation_seed = 0;
    bool apply_rotation = true;
    sampling::SamplerMode sampler_mode = sampling::SamplerMode::kApproximate;
  };

  static StatusOr<std::unique_ptr<SmmMechanism>> Create(
      const Options& options);

  const Options& options() const { return options_; }

 private:
  /// Defined in the .cc: passes the FusedPerturbSpec (Algorithm 5 clip +
  /// Skellam noise callback) to the base alongside the member setup.
  SmmMechanism(Options options, RotationCodec codec,
               SkellamMixtureNoiser noiser);

  Options options_;
  SkellamMixtureNoiser noiser_;
};

}  // namespace smm::mechanisms

#endif  // SMM_MECHANISMS_SMM_MECHANISM_H_
