#ifndef SMM_SAMPLING_APPROX_SAMPLERS_H_
#define SMM_SAMPLING_APPROX_SAMPLERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace smm::sampling {

/// Fast floating-point ("approximate") samplers standing in for the
/// TensorFlow samplers used in the paper's experiments (Section 6: "all
/// experiments are done using the approximate samplers ... which are based
/// on floating point approximations"). Their output distributions match the
/// analytical forms only up to double rounding; the exact samplers in
/// exact_samplers.h / discrete_gaussian_sampler.h are the strict-DP path.
///
/// Each sampler is an immutable value built once per distribution
/// parameter: everything that depends only on the parameter is computed in
/// the constructor, and Sample is const, so one instance is shared by every
/// encode thread.

/// NOTE: do not route sampling through std::poisson_distribution /
/// std::binomial_distribution here. Their large-parameter algorithms cache
/// Gaussian state across draws (leaking bits between participants' RNG
/// streams) and call glibc lgamma(), whose global-signgam write races under
/// concurrent EncodeBatch shards. The samplers below are self-contained.

/// Approximate Poisson(lambda): Knuth multiplication below lambda = 10,
/// Hormann's PTRS transformed rejection (with a local Lanczos log-gamma)
/// above.
class PoissonApprox {
 public:
  /// Largest number of precomputed acceptance bounds (64 KiB of doubles).
  static constexpr size_t kMaxTableSize = 8192;

  /// lambda must be >= 0.
  explicit PoissonApprox(double lambda);

  int64_t Sample(RandomGenerator& rng) const;

  /// log(lambda^k e^-lambda / k!) for integer-valued k >= 0: the right-hand
  /// side of PTRS's acceptance test. Read from the table for k in
  /// [table_first_k(), table_first_k() + table_size()), else computed by
  /// LogPmfDirect; the two agree bit for bit.
  double LogPmf(double k) const;

  /// The single definition of the acceptance bound, shared by the table
  /// fill and the out-of-table fallback.
  static double LogPmfDirect(double k, double log_lambda, double lambda);

  /// The table covers k in [lambda - 12 sqrt(lambda) - 16,
  /// lambda + 12 sqrt(lambda) + 16] clamped to k >= 0 and to
  /// kMaxTableSize entries centred on lambda; empty below lambda = 10.
  double table_first_k() const { return table_first_k_; }
  size_t table_size() const { return log_pmf_.size(); }

 private:
  double lambda_;
  double knuth_threshold_ = 0.0;  ///< exp(-lambda); lambda < 10 only.
  // PTRS constants (lambda >= 10 only).
  double log_lambda_ = 0.0;
  double b_ = 0.0;
  double a_ = 0.0;
  double v_r_ = 0.0;
  double log_inv_alpha_ = 0.0;
  double table_first_k_ = 0.0;
  std::vector<double> log_pmf_;  ///< LogPmfDirect(table_first_k_ + i).
};

/// Approximate discrete Gaussian N_Z(0, sigma^2): the CKS rejection scheme
/// (discrete Laplace proposal, Gaussian-weight acceptance) evaluated in
/// double precision.
class DiscreteGaussianApprox {
 public:
  /// sigma must be > 0.
  explicit DiscreteGaussianApprox(double sigma);

  int64_t Sample(RandomGenerator& rng) const;

 private:
  int64_t t_;           ///< Laplace proposal scale floor(sigma) + 1.
  double sigma2_;       ///< sigma^2.
  double center_;       ///< sigma^2 / t.
  double geo_success_;  ///< 1 - exp(-1).
};

}  // namespace smm::sampling

#endif  // SMM_SAMPLING_APPROX_SAMPLERS_H_
