#include "secagg/shamir.h"

#include <cassert>

namespace smm::secagg {

namespace {

using uint128 = unsigned __int128;

// a * b mod p for a, b < p. The product is below 2^122; since
// 2^61 == 1 (mod p), its high part (bits 61 and up) and its low 61 bits
// add to a congruent value below 2p, and one conditional subtraction
// finishes the reduction — no 128-bit division.
uint64_t MulMod(uint64_t a, uint64_t b) {
  const uint128 product = static_cast<uint128>(a) * b;
  const uint64_t folded = (static_cast<uint64_t>(product) & kShamirPrime) +
                          static_cast<uint64_t>(product >> 61);
  return folded >= kShamirPrime ? folded - kShamirPrime : folded;
}

uint64_t AddModP(uint64_t a, uint64_t b) {
  uint64_t s = a + b;  // < 2^62, no overflow.
  if (s >= kShamirPrime) s -= kShamirPrime;
  return s;
}

uint64_t SubModP(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kShamirPrime - b;
}

// Fermat inverse a^(p-2) mod p, for 0 < a < p.
uint64_t InvMod(uint64_t a) {
  uint64_t result = 1;
  for (uint64_t exp = kShamirPrime - 2; exp > 0; exp >>= 1) {
    if (exp & 1) result = MulMod(result, a);
    a = MulMod(a, a);
  }
  return result;
}

Status CheckPoint(uint64_t x) {
  if (x == 0 || x >= kShamirPrime) {
    return InvalidArgumentError(
        "share evaluation point must lie in [1, 2^61 - 1)");
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::vector<ShamirShare>> ShamirSplit(uint64_t secret, int threshold,
                                               int num_shares,
                                               RandomGenerator& rng) {
  if (secret >= kShamirPrime) {
    return InvalidArgumentError("secret must be < 2^61 - 1");
  }
  if (threshold < 1 || threshold > num_shares) {
    return InvalidArgumentError("need 1 <= threshold <= num_shares");
  }
  // Random polynomial of degree threshold-1 with constant term = secret.
  std::vector<uint64_t> coeffs(threshold);
  coeffs[0] = secret;
  for (int i = 1; i < threshold; ++i) {
    coeffs[i] = rng.UniformUint64(kShamirPrime);
  }
  std::vector<ShamirShare> shares(num_shares);
  for (int i = 0; i < num_shares; ++i) {
    shares[i].x = static_cast<uint64_t>(i) + 1;
  }
  // Horner evaluation at every point at once, coefficient-major: the
  // num_shares chains are independent, so their multiplies overlap instead
  // of running one serial chain per share.
  for (int j = threshold - 1; j >= 0; --j) {
    for (ShamirShare& share : shares) {
      share.y = AddModP(MulMod(share.y, share.x), coeffs[j]);
    }
  }
  return shares;
}

StatusOr<std::vector<uint64_t>> ShamirLagrangeWeights(
    const std::vector<uint64_t>& xs) {
  if (xs.empty()) return InvalidArgumentError("no evaluation points");
  for (uint64_t x : xs) SMM_RETURN_IF_ERROR(CheckPoint(x));
  const size_t t = xs.size();
  // num_i = prod_{j != i} x_j and den_i = prod_{j != i} (x_j - x_i). With
  // every point in [1, p), den_i is zero exactly when two points coincide.
  std::vector<uint64_t> num(t, 1), den(t, 1);
  for (size_t i = 0; i < t; ++i) {
    for (size_t j = 0; j < t; ++j) {
      if (j == i) continue;
      num[i] = MulMod(num[i], xs[j]);
      den[i] = MulMod(den[i], SubModP(xs[j], xs[i]));
    }
    if (den[i] == 0) {
      return InvalidArgumentError("duplicate share evaluation point");
    }
  }
  // Batch inversion: one Fermat inverse of den_0 ... den_{t-1}, then
  // den_i^-1 = (den_0 ... den_i)^-1 * (den_0 ... den_{i-1}), walking down.
  std::vector<uint64_t> prefix(t);
  uint64_t product = 1;
  for (size_t i = 0; i < t; ++i) {
    prefix[i] = product;
    product = MulMod(product, den[i]);
  }
  uint64_t inverse = InvMod(product);
  std::vector<uint64_t> weights(t);
  for (size_t i = t; i > 0; --i) {
    weights[i - 1] = MulMod(num[i - 1], MulMod(inverse, prefix[i - 1]));
    inverse = MulMod(inverse, den[i - 1]);
  }
  return weights;
}

uint64_t ShamirCombine(const std::vector<uint64_t>& weights,
                       const std::vector<uint64_t>& ys) {
  assert(ys.size() == weights.size());
  uint64_t secret = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    secret = AddModP(secret, MulMod(ys[i], weights[i]));
  }
  return secret;
}

StatusOr<uint64_t> ShamirReconstruct(const std::vector<ShamirShare>& shares,
                                     int threshold) {
  if (threshold < 1) return InvalidArgumentError("threshold must be >= 1");
  if (static_cast<int>(shares.size()) < threshold) {
    return FailedPreconditionError("not enough shares to reconstruct");
  }
  for (const ShamirShare& share : shares) {
    SMM_RETURN_IF_ERROR(CheckPoint(share.x));
    if (share.y >= kShamirPrime) {
      return InvalidArgumentError("share value must be < 2^61 - 1");
    }
  }
  std::vector<uint64_t> xs(static_cast<size_t>(threshold));
  std::vector<uint64_t> ys(static_cast<size_t>(threshold));
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = shares[i].x;
    ys[i] = shares[i].y;
  }
  SMM_ASSIGN_OR_RETURN(const std::vector<uint64_t> weights,
                       ShamirLagrangeWeights(xs));
  return ShamirCombine(weights, ys);
}

}  // namespace smm::secagg
