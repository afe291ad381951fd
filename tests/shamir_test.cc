#include "secagg/shamir.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"

namespace smm::secagg {
namespace {

using uint128 = unsigned __int128;

// Test-local oracle: textbook Lagrange interpolation at x = 0 with a
// generic 128-bit `%` reduction and one Fermat inverse per basis term,
// i.e. a direct per-secret reconstruction that shares no code with the
// library's weights-plus-combine path.
uint64_t OracleMulMod(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>((static_cast<uint128>(a) * b) % kShamirPrime);
}

uint64_t OracleInverse(uint64_t a) {
  uint64_t result = 1, base = a % kShamirPrime;
  for (uint64_t e = kShamirPrime - 2; e > 0; e >>= 1) {
    if (e & 1) result = OracleMulMod(result, base);
    base = OracleMulMod(base, base);
  }
  return result;
}

uint64_t OracleReconstruct(const std::vector<ShamirShare>& shares) {
  uint64_t secret = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    uint64_t num = 1, den = 1;
    for (size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      num = OracleMulMod(num, shares[j].x);
      den = OracleMulMod(
          den, (shares[j].x + kShamirPrime - shares[i].x) % kShamirPrime);
    }
    const uint64_t basis = OracleMulMod(num, OracleInverse(den));
    secret = (secret + OracleMulMod(shares[i].y % kShamirPrime, basis)) %
             kShamirPrime;
  }
  return secret;
}

// FNV-1a over the little-endian bytes of each word. It wraps by design;
// the uio CI job instruments this binary with the unsigned-overflow
// sanitizer.
SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t HashWord(uint64_t h, uint64_t w) {
  for (int b = 0; b < 8; ++b) {
    h ^= (w >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ShamirTest, SplitRejectsBadParameters) {
  RandomGenerator rng(1);
  EXPECT_FALSE(ShamirSplit(kShamirPrime, 2, 3, rng).ok());  // Secret too big.
  EXPECT_FALSE(ShamirSplit(5, 0, 3, rng).ok());
  EXPECT_FALSE(ShamirSplit(5, 4, 3, rng).ok());
}

TEST(ShamirTest, RoundTripWithExactThreshold) {
  RandomGenerator rng(2);
  const uint64_t secret = 123456789ULL;
  auto shares = ShamirSplit(secret, 3, 5, rng);
  ASSERT_TRUE(shares.ok());
  ASSERT_EQ(shares->size(), 5u);
  const std::vector<ShamirShare> subset(shares->begin(), shares->begin() + 3);
  auto recovered = ShamirReconstruct(subset, 3);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, secret);
}

TEST(ShamirTest, AnyThresholdSubsetReconstructs) {
  RandomGenerator rng(3);
  const uint64_t secret = 987654321ULL;
  auto shares = ShamirSplit(secret, 2, 4, rng);
  ASSERT_TRUE(shares.ok());
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = i + 1; j < 4; ++j) {
      const std::vector<ShamirShare> subset = {(*shares)[i], (*shares)[j]};
      auto recovered = ShamirReconstruct(subset, 2);
      ASSERT_TRUE(recovered.ok());
      EXPECT_EQ(*recovered, secret) << "subset {" << i << "," << j << "}";
    }
  }
}

TEST(ShamirTest, TooFewSharesFail) {
  RandomGenerator rng(4);
  auto shares = ShamirSplit(42, 3, 5, rng);
  ASSERT_TRUE(shares.ok());
  const std::vector<ShamirShare> subset(shares->begin(), shares->begin() + 2);
  EXPECT_FALSE(ShamirReconstruct(subset, 3).ok());
}

TEST(ShamirTest, DuplicatePointsRejected) {
  RandomGenerator rng(5);
  auto shares = ShamirSplit(42, 2, 3, rng);
  ASSERT_TRUE(shares.ok());
  const std::vector<ShamirShare> dup = {(*shares)[0], (*shares)[0]};
  EXPECT_FALSE(ShamirReconstruct(dup, 2).ok());
}

TEST(ShamirTest, BelowThresholdSharesLookUnrelatedToSecret) {
  // With threshold 2, a single share value should vary wildly across
  // splits of the same secret (information-theoretic hiding).
  RandomGenerator rng(6);
  const uint64_t secret = 7;
  std::vector<uint64_t> first_share_values;
  for (int trial = 0; trial < 8; ++trial) {
    auto shares = ShamirSplit(secret, 2, 3, rng);
    ASSERT_TRUE(shares.ok());
    first_share_values.push_back((*shares)[0].y);
  }
  std::sort(first_share_values.begin(), first_share_values.end());
  first_share_values.erase(
      std::unique(first_share_values.begin(), first_share_values.end()),
      first_share_values.end());
  EXPECT_GE(first_share_values.size(), 7u);
}

TEST(ShamirTest, ThresholdOneIsConstantPolynomial) {
  RandomGenerator rng(7);
  auto shares = ShamirSplit(55, 1, 3, rng);
  ASSERT_TRUE(shares.ok());
  for (const auto& s : *shares) EXPECT_EQ(s.y, 55u);
}

TEST(ShamirTest, OutOfFieldPointsAndValuesRejected) {
  RandomGenerator rng(8);
  auto split = ShamirSplit(42, 2, 3, rng);
  ASSERT_TRUE(split.ok());
  const ShamirShare s1 = (*split)[0];  // x = 1.
  const ShamirShare s2 = (*split)[1];  // x = 2.
  ASSERT_EQ(*ShamirReconstruct({s1, s2}, 2), 42u);
  const auto expect_invalid = [](const std::vector<ShamirShare>& shares) {
    auto r = ShamirReconstruct(shares, 2);
    ASSERT_FALSE(r.ok()) << "returned " << *r;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  };
  // 1 + p is distinct from 1 as an integer but the same field point.
  expect_invalid({s1, {1 + kShamirPrime, s2.y}});
  // x = p is the point 0, where the secret itself lives.
  expect_invalid({s1, {kShamirPrime, s2.y}});
  expect_invalid({s1, {~uint64_t{0}, s2.y}});
  expect_invalid({{0, s1.y}, s2});
  // A value outside the field is not a share of any polynomial over it.
  expect_invalid({s1, {s2.x, s2.y + kShamirPrime}});
  expect_invalid({s1, {s2.x, ~uint64_t{0}}});
  // Shares beyond the first `threshold` are validated too.
  auto r = ShamirReconstruct({s1, s2, {3, kShamirPrime}}, 2);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShamirTest, FieldBoundarySecretsRoundTrip) {
  RandomGenerator rng(9);
  for (uint64_t secret : {uint64_t{0}, uint64_t{1}, kShamirPrime - 2,
                          kShamirPrime - 1}) {
    for (int threshold : {1, 3, 64}) {
      auto shares = ShamirSplit(secret, threshold, 128, rng);
      ASSERT_TRUE(shares.ok());
      for (const auto& s : *shares) ASSERT_LT(s.y, kShamirPrime);
      auto recovered = ShamirReconstruct(*shares, threshold);
      ASSERT_TRUE(recovered.ok());
      EXPECT_EQ(*recovered, secret) << "threshold " << threshold;
    }
  }
}

TEST(ShamirTest, ValuesNearThePrimeInterpolateExactly) {
  // Any `threshold` distinct in-field points define one polynomial of
  // degree < threshold, so arbitrary y's are valid shares of *some*
  // secret. Values at the top of the field stress the reduction: products
  // and sums of near-p operands sit right at the fold boundaries.
  const std::vector<uint64_t> tops = {kShamirPrime - 1, kShamirPrime - 2,
                                      kShamirPrime - 3, kShamirPrime >> 1,
                                      (kShamirPrime >> 1) + 1};
  RandomGenerator rng(10);
  for (int threshold : {2, 5, 64}) {
    std::vector<ShamirShare> shares;
    for (int i = 0; i < threshold; ++i) {
      const uint64_t u = static_cast<uint64_t>(i);
      const uint64_t x = i % 2 == 0 ? u + 1 : kShamirPrime - 1 - u;
      shares.push_back({x, tops[static_cast<size_t>(i) % tops.size()]});
    }
    auto recovered = ShamirReconstruct(shares, threshold);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(*recovered, OracleReconstruct(shares))
        << "threshold " << threshold;
  }
}

TEST(ShamirTest, RoundTripAtBenchmarkScale) {
  // 64-of-128: the masked aggregator's threshold and participant count in
  // the round_masked benchmark workload.
  RandomGenerator rng(11);
  const uint64_t secret = rng.UniformUint64(kShamirPrime);
  auto shares = ShamirSplit(secret, 64, 128, rng);
  ASSERT_TRUE(shares.ok());
  ASSERT_EQ(shares->size(), 128u);
  const std::vector<ShamirShare> first(shares->begin(), shares->begin() + 64);
  const std::vector<ShamirShare> last(shares->end() - 64, shares->end());
  std::vector<ShamirShare> shuffled = *shares;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformUint64(i)]);
  }
  for (const std::vector<ShamirShare>& subset : {first, last, shuffled}) {
    auto recovered = ShamirReconstruct(subset, 64);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(*recovered, secret);
  }
  // 63 shares are one short.
  EXPECT_FALSE(ShamirReconstruct(
                   std::vector<ShamirShare>(first.begin(), first.end() - 1),
                   64)
                   .ok());
}

TEST(ShamirTest, SplitOutputIsPinned) {
  // Digest of every share (x and y) of a 64-of-128 split, plus the next
  // draw of the generator so the number of draws the split consumed is
  // pinned too. Recorded before the field arithmetic was optimised: the
  // shares must not move by one bit.
  RandomGenerator rng(12);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (uint64_t secret : {uint64_t{0}, uint64_t{123456789},
                          kShamirPrime - 1}) {
    auto shares = ShamirSplit(secret, 64, 128, rng);
    ASSERT_TRUE(shares.ok());
    for (const auto& s : *shares) {
      digest = HashWord(HashWord(digest, s.x), s.y);
    }
  }
  digest = HashWord(digest, rng.NextBits());
  EXPECT_EQ(digest, 0x7535aad4232aef92ULL) << std::hex << "0x" << digest;
}

TEST(ShamirTest, SharedWeightsMatchPerSecretReconstruction) {
  // Dropout recovery computes the Lagrange weights of one survivor set once
  // and reuses them for every dropped pair's seed. On random survivor
  // subsets (random order, sizes at and above the threshold), that path
  // must return exactly the secret and what a direct per-secret
  // interpolation over the same first `threshold` shares returns.
  constexpr int kThreshold = 64;
  constexpr int kShares = 128;
  RandomGenerator rng(13);
  std::vector<uint64_t> secrets;
  std::vector<std::vector<ShamirShare>> splits;
  for (int k = 0; k < 6; ++k) {
    secrets.push_back(rng.UniformUint64(kShamirPrime));
    auto shares = ShamirSplit(secrets.back(), kThreshold, kShares, rng);
    ASSERT_TRUE(shares.ok());
    splits.push_back(std::move(*shares));
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> survivors(kShares);
    std::iota(survivors.begin(), survivors.end(), 0);
    for (size_t i = survivors.size(); i > 1; --i) {
      std::swap(survivors[i - 1], survivors[rng.UniformUint64(i)]);
    }
    const uint64_t extra = rng.UniformUint64(kShares - kThreshold + 1);
    survivors.resize(kThreshold + static_cast<size_t>(extra));
    std::vector<uint64_t> xs;
    for (int t = 0; t < kThreshold; ++t) {
      xs.push_back(splits[0][static_cast<size_t>(survivors[t])].x);
    }
    auto weights = ShamirLagrangeWeights(xs);
    ASSERT_TRUE(weights.ok());
    for (size_t k = 0; k < splits.size(); ++k) {
      std::vector<uint64_t> ys;
      std::vector<ShamirShare> used;
      for (int t = 0; t < kThreshold; ++t) {
        const ShamirShare& s = splits[k][static_cast<size_t>(survivors[t])];
        ys.push_back(s.y);
        used.push_back(s);
      }
      const uint64_t combined = ShamirCombine(*weights, ys);
      EXPECT_EQ(combined, OracleReconstruct(used)) << "trial " << trial;
      EXPECT_EQ(combined, secrets[k]) << "trial " << trial;
    }
  }
}

TEST(ShamirTest, LagrangeWeightsRejectBadPoints) {
  EXPECT_FALSE(ShamirLagrangeWeights({}).ok());
  EXPECT_FALSE(ShamirLagrangeWeights({1, 0}).ok());
  EXPECT_FALSE(ShamirLagrangeWeights({1, kShamirPrime}).ok());
  EXPECT_FALSE(ShamirLagrangeWeights({3, 5, 3}).ok());
  auto single = ShamirLagrangeWeights({7});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(*single, std::vector<uint64_t>{1});
}

class ShamirParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShamirParamTest, RoundTripAcrossConfigurations) {
  const auto [threshold, num_shares] = GetParam();
  RandomGenerator rng(static_cast<uint64_t>(threshold * 100 + num_shares));
  const uint64_t secret = rng.UniformUint64(kShamirPrime);
  auto shares = ShamirSplit(secret, threshold, num_shares, rng);
  ASSERT_TRUE(shares.ok());
  // Use the *last* threshold shares (not the first) to vary the points.
  const std::vector<ShamirShare> subset(shares->end() - threshold,
                                        shares->end());
  auto recovered = ShamirReconstruct(subset, threshold);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, secret);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShamirParamTest,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{2, 2},
                      std::pair<int, int>{2, 5}, std::pair<int, int>{5, 8},
                      std::pair<int, int>{10, 20}));

}  // namespace
}  // namespace smm::secagg
