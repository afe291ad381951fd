#ifndef SMM_SECAGG_SHAMIR_H_
#define SMM_SECAGG_SHAMIR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace smm::secagg {

/// Shamir secret sharing over the Mersenne prime field GF(2^61 - 1), used by
/// the masked aggregation protocol to recover the pairwise-mask seeds of
/// dropped participants (the dropout-resilience ingredient of Bonawitz et
/// al.'s SecAgg).

/// The field prime 2^61 - 1.
inline constexpr uint64_t kShamirPrime = (1ULL << 61) - 1;

/// One share: the evaluation point x (> 0) and the polynomial value y.
struct ShamirShare {
  uint64_t x = 0;
  uint64_t y = 0;
};

/// Splits `secret` (< kShamirPrime) into `num_shares` shares such that any
/// `threshold` of them reconstruct it and fewer reveal nothing. Shares are
/// issued at evaluation points x = 1..num_shares.
/// Requires 1 <= threshold <= num_shares < kShamirPrime.
StatusOr<std::vector<ShamirShare>> ShamirSplit(uint64_t secret, int threshold,
                                               int num_shares,
                                               RandomGenerator& rng);

/// Reconstructs the secret from >= threshold shares by Lagrange
/// interpolation at x = 0 over the first `threshold` shares: the weights of
/// ShamirLagrangeWeights combined with the share values by ShamirCombine.
/// Every share must lie in the field (1 <= x < kShamirPrime, y <
/// kShamirPrime) and the points used must be distinct; otherwise returns
/// InvalidArgument. The caller must supply shares from the same split.
StatusOr<uint64_t> ShamirReconstruct(const std::vector<ShamirShare>& shares,
                                     int threshold);

/// The Lagrange basis weights at x = 0 for the evaluation points `xs`,
///   w_i = prod_{j != i} x_j / (x_j - x_i)  (mod p),
/// so that any polynomial f of degree < |xs| has f(0) = sum_i w_i f(x_i).
/// The weights depend on the points alone: a caller reconstructing many
/// secrets from shares at the same points computes them once. Requires a
/// non-empty set of pairwise-distinct points in [1, kShamirPrime);
/// otherwise returns InvalidArgument.
StatusOr<std::vector<uint64_t>> ShamirLagrangeWeights(
    const std::vector<uint64_t>& xs);

/// sum_i weights[i] * ys[i] (mod p): the secret whose shares at the
/// weights' points have the values `ys`. Requires ys.size() ==
/// weights.size() and every y < kShamirPrime.
uint64_t ShamirCombine(const std::vector<uint64_t>& weights,
                       const std::vector<uint64_t>& ys);

}  // namespace smm::secagg

#endif  // SMM_SECAGG_SHAMIR_H_
