#include "sampling/approx_samplers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace smm::sampling {

namespace {

/// log(Gamma(x)) for x > 0.5 via the Lanczos approximation (g = 7, 9
/// terms; ~1e-13 relative accuracy). Self-contained on purpose: glibc's
/// lgamma() writes the process-global `signgam`, a data race when the
/// parallel encode shards sample concurrently.
double LogGammaPositive(double x) {
  static constexpr double kCoeffs[9] = {
      0.99999999999980993,     676.5203681218851,     -1259.1392167224028,
      771.32342877765313,      -176.61502916214059,   12.507343278686905,
      -0.13857109526572012,    9.9843695780195716e-6, 1.5056327351493116e-7};
  constexpr double kHalfLog2Pi = 0.91893853320467274178;
  double series = kCoeffs[0];
  for (int i = 1; i < 9; ++i) {
    series += kCoeffs[i] / (x + static_cast<double>(i) - 1.0);
  }
  const double t = x + 6.5;
  return kHalfLog2Pi + (x - 0.5) * std::log(t) - t + std::log(series);
}

}  // namespace

// Self-contained Poisson sampler (no libstdc++ distribution objects): the
// standard ones route through glibc lgamma(), whose global-signgam write
// races under concurrent EncodeBatch shards, and their internal Gaussian
// caches leak state across draws, breaking stream determinism.
PoissonApprox::PoissonApprox(double lambda) : lambda_(lambda) {
  assert(lambda >= 0.0);
  if (lambda < 10.0) {
    knuth_threshold_ = std::exp(-lambda);
    return;
  }
  log_lambda_ = std::log(lambda);
  b_ = 0.931 + 2.53 * std::sqrt(lambda);
  a_ = -0.059 + 0.02483 * b_;
  const double inv_alpha = 1.1239 + 1.1328 / (b_ - 3.4);
  v_r_ = 0.9277 - 3.6224 / (b_ - 2.0);
  log_inv_alpha_ = std::log(inv_alpha);
  // Proposals that reach the acceptance test concentrate within a few
  // sqrt(lambda) (the target's standard deviation) of lambda. The rare ones
  // outside the table fall back to LogPmfDirect, which every entry equals.
  const double half_width =
      std::min(12.0 * std::sqrt(lambda) + 16.0,
               static_cast<double>(kMaxTableSize / 2 - 1));
  table_first_k_ = std::max(0.0, std::floor(lambda - half_width));
  const double last_k = std::floor(lambda + half_width);
  log_pmf_.resize(static_cast<size_t>(last_k - table_first_k_) + 1);
  for (size_t i = 0; i < log_pmf_.size(); ++i) {
    log_pmf_[i] = LogPmfDirect(table_first_k_ + static_cast<double>(i),
                               log_lambda_, lambda_);
  }
}

double PoissonApprox::LogPmfDirect(double k, double log_lambda,
                                   double lambda) {
  return k * log_lambda - lambda - LogGammaPositive(k + 1.0);
}

double PoissonApprox::LogPmf(double k) const {
  const double offset = k - table_first_k_;
  if (offset >= 0.0 && offset < static_cast<double>(log_pmf_.size())) {
    return log_pmf_[static_cast<size_t>(offset)];
  }
  return LogPmfDirect(k, log_lambda_, lambda_);
}

int64_t PoissonApprox::Sample(RandomGenerator& rng) const {
  if (lambda_ == 0.0) return 0;
  if (lambda_ < 10.0) {
    // Knuth's multiplication method: expected lambda + 1 uniforms.
    int64_t k = 0;
    double product = rng.UniformDouble();
    while (product > knuth_threshold_) {
      ++k;
      product *= rng.UniformDouble();
    }
    return k;
  }
  // Hormann's transformed rejection with squeeze (PTRS), the standard
  // O(1) method for lambda >= 10 (used by NumPy).
  while (true) {
    const double u = rng.UniformDouble() - 0.5;
    const double v = rng.UniformDouble();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a_ / us + b_) * u + lambda_ + 0.43);
    if (us >= 0.07 && v <= v_r_) return static_cast<int64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + log_inv_alpha_ - std::log(a_ / (us * us) + b_) <=
        LogPmf(k)) {
      return static_cast<int64_t>(k);
    }
  }
}

DiscreteGaussianApprox::DiscreteGaussianApprox(double sigma)
    : t_(static_cast<int64_t>(std::floor(sigma)) + 1),
      sigma2_(sigma * sigma),
      center_(sigma2_ / t_),
      geo_success_(1.0 - std::exp(-1.0)) {
  assert(sigma > 0.0);
}

int64_t DiscreteGaussianApprox::Sample(RandomGenerator& rng) const {
  while (true) {
    // Discrete Laplace proposal with scale t, floating-point variant of
    // SampleDiscreteLaplaceExact.
    const int64_t u =
        static_cast<int64_t>(rng.UniformDouble() * static_cast<double>(t_));
    if (!rng.Bernoulli(std::exp(-static_cast<double>(u) / t_))) continue;
    int64_t v = 0;
    while (!rng.Bernoulli(geo_success_)) ++v;
    const int64_t x = u + t_ * v;
    const bool negative = rng.Bernoulli(0.5);
    if (negative && x == 0) continue;
    const int64_t y = negative ? -x : x;
    const double dev = std::abs(static_cast<double>(y)) - center_;
    if (rng.Bernoulli(std::exp(-dev * dev / (2.0 * sigma2_)))) return y;
  }
}

}  // namespace smm::sampling
