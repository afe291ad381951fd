// Regression tests for the large-modulus regime (m > 2^63), where the old
// `(acc + v) % m` accumulators silently wrapped uint64_t: every aggregation
// and modular-arithmetic path must now be exact against an unsigned
// __int128 reference at m = 2^64 - 59 — the regime the paper's
// communication analysis (Section 5) sweeps. These tests are the payload of
// the unsigned-integer-overflow sanitizer CI job.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "reference_sum.h"
#include "secagg/modular.h"
#include "secagg/secure_aggregator.h"

namespace smm::secagg {
namespace {

constexpr uint64_t kLargePrime = 18446744073709551557ULL;  // 2^64 - 59.

using uint128 = unsigned __int128;

std::vector<std::vector<uint64_t>> RandomInputs(int n, size_t dim, uint64_t m,
                                                uint64_t seed) {
  RandomGenerator rng(seed);
  std::vector<std::vector<uint64_t>> inputs(static_cast<size_t>(n));
  for (auto& v : inputs) {
    v.resize(dim);
    for (auto& x : v) x = rng.UniformUint64(m);
  }
  return inputs;
}

/// Exact sum through 128-bit arithmetic: the check on the shared
/// tests/reference_sum.h oracle in the wrap-prone regime.
std::vector<uint64_t> ExactSum128(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  std::vector<uint64_t> sum(inputs[0].size(), 0);
  for (size_t j = 0; j < sum.size(); ++j) {
    uint128 acc = 0;
    for (const auto& v : inputs) acc += v[j];
    sum[j] = static_cast<uint64_t>(acc % m);
  }
  return sum;
}

/// ReferenceSum of `inputs`, checked against the 128-bit sum.
std::vector<uint64_t> CheckedReferenceSum(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  std::vector<uint64_t> sum = ReferenceSum(inputs, m);
  EXPECT_EQ(sum, ExactSum128(inputs, m));
  return sum;
}

TEST(LargeModulusTest, ScalarAddSubModMatch128BitReference) {
  RandomGenerator rng(2);
  for (uint64_t m : std::vector<uint64_t>{kLargePrime, ~0ULL,
                                          (1ULL << 63) + 1, 1ULL << 63}) {
    for (int trial = 0; trial < 2000; ++trial) {
      const uint64_t a = rng.UniformUint64(m);
      const uint64_t b = rng.UniformUint64(m);
      EXPECT_EQ(smm::AddMod(a, b, m),
                static_cast<uint64_t>((static_cast<uint128>(a) + b) % m));
      EXPECT_EQ(smm::SubMod(a, b, m),
                static_cast<uint64_t>(
                    (static_cast<uint128>(a) + m - b) % m));
    }
    // Boundary values.
    EXPECT_EQ(smm::AddMod(m - 1, m - 1, m),
              static_cast<uint64_t>((static_cast<uint128>(m - 1) * 2) % m));
    EXPECT_EQ(smm::AddMod(m - 1, 1, m), 0ULL);
    EXPECT_EQ(smm::AddMod(0, 0, m), 0ULL);
    EXPECT_EQ(smm::SubMod(0, m - 1, m), 1ULL);
    EXPECT_EQ(smm::SubMod(m - 1, 0, m), m - 1);
  }
}

TEST(LargeModulusTest, VectorAddSubModAreExact) {
  const uint64_t m = kLargePrime;
  const std::vector<uint64_t> a = {m - 1, m - 2, 0, m / 2, m / 2 + 1};
  const std::vector<uint64_t> b = {m - 1, 5, m - 1, m / 2, m / 2 + 3};
  auto add = AddMod(a, b, m);
  ASSERT_TRUE(add.ok());
  auto sub = SubMod(a, b, m);
  ASSERT_TRUE(sub.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ((*add)[i],
              static_cast<uint64_t>((static_cast<uint128>(a[i]) + b[i]) % m));
    EXPECT_EQ((*sub)[i], static_cast<uint64_t>(
                             (static_cast<uint128>(a[i]) + m - b[i]) % m));
  }
}

TEST(LargeModulusTest, ModReduceAndCenterLiftRoundTrip) {
  const uint64_t m = kLargePrime;
  // ModReduce must fold arbitrary signed values into [0, m) without the
  // int64 cast of m (negative for m > 2^63) the old implementation used.
  EXPECT_EQ(ModReduce(0, m), 0ULL);
  EXPECT_EQ(ModReduce(-1, m), m - 1);
  EXPECT_EQ(ModReduce(INT64_MAX, m), static_cast<uint64_t>(INT64_MAX));
  EXPECT_EQ(ModReduce(INT64_MIN, m), m - (1ULL << 63));
  // Centered lift: values inside [-(m-1)/2, (m-1)/2] round-trip (m is odd,
  // so the centered window is symmetric and includes both boundary
  // representatives). INT64_MAX and INT64_MIN fall *outside* that range for
  // m = 2^64 - 59 — its centered representatives stop about 30 short of the
  // int64 limits — so they lift to their congruent in-range representatives
  // instead.
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{123456},
                    int64_t{-123456}, static_cast<int64_t>(m / 2 - 1),
                    static_cast<int64_t>(m / 2),
                    -static_cast<int64_t>(m / 2)}) {
    EXPECT_EQ(CenterLift(ModReduce(v, m), m), v) << v;
  }
  EXPECT_EQ(CenterLift(static_cast<uint64_t>(INT64_MAX), m),
            -static_cast<int64_t>(m - static_cast<uint64_t>(INT64_MAX)));
  EXPECT_EQ(CenterLift(m - 1, m), -1);
  EXPECT_EQ(CenterLift(m / 2 - 1, m), static_cast<int64_t>(m / 2 - 1));
  // The odd-m boundary point floor(m/2) is the *positive* end of the
  // centered window (+(m-1)/2), not a negative wrap — the off-by-one the
  // old `value >= m / 2` condition got wrong.
  EXPECT_EQ(CenterLift(m / 2, m), static_cast<int64_t>(m / 2));
  EXPECT_EQ(CenterLift(m / 2 + 1, m), -static_cast<int64_t>(m / 2));
  // m = 2^64 - 1: the largest magnitude is now floor(m/2) = 2^63 - 1 on
  // both sides, so INT64_MIN is no longer reachable.
  EXPECT_EQ(CenterLift((~0ULL) / 2, ~0ULL), INT64_MAX);
  EXPECT_EQ(CenterLift((~0ULL) / 2 + 1, ~0ULL), -INT64_MAX);
}

TEST(LargeModulusTest, CenterLiftMatches128BitReferenceAtBothParities) {
  // Cross-check CenterLift against a signed 128-bit reference — value, then
  // subtract m iff the value exceeds the centered window's positive end —
  // at odd and even moduli spanning the full range, including the wrap-prone
  // m > 2^63 regime and the odd boundary cases of the ISSUE-4 regression.
  RandomGenerator rng(3);
  for (uint64_t m : std::vector<uint64_t>{3, 5, 8, 1024, (1ULL << 63) - 1,
                                          1ULL << 63, (1ULL << 63) + 1,
                                          kLargePrime, ~0ULL - 1, ~0ULL}) {
    const auto reference = [m](uint64_t value) {
      __int128 lifted = static_cast<__int128>(value);
      if (lifted > static_cast<__int128>((m - 1) / 2)) {
        lifted -= static_cast<__int128>(m);
      }
      return static_cast<int64_t>(lifted);
    };
    // Every boundary-adjacent value plus random probes.
    std::vector<uint64_t> probes = {0, 1, m - 1, m - 2, m / 2, (m - 1) / 2};
    if (m / 2 >= 1) probes.push_back(m / 2 - 1);
    if (m / 2 + 1 < m) probes.push_back(m / 2 + 1);
    for (int trial = 0; trial < 200; ++trial) {
      probes.push_back(rng.UniformUint64(m));
    }
    for (uint64_t value : probes) {
      ASSERT_LT(value, m);
      EXPECT_EQ(CenterLift(value, m), reference(value))
          << "m=" << m << " value=" << value;
      // And the round trip the decode path relies on.
      EXPECT_EQ(ModReduce(CenterLift(value, m), m), value)
          << "m=" << m << " value=" << value;
    }
  }
}

TEST(LargeModulusTest, IdealAggregatorIsExact) {
  const uint64_t m = kLargePrime;
  const size_t dim = 17;
  const auto inputs = RandomInputs(23, dim, m, 6);
  const auto expected = CheckedReferenceSum(inputs, m);
  std::vector<int> ids(inputs.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  IdealAggregator agg;
  // One tile of every input: the sharded per-thread partials and their
  // reduction must stay exact at m > 2^63.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    auto stream = agg.Open(dim, m, &pool);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->AbsorbTile(ids, inputs).ok());
    auto sum = (*stream)->Finalize();
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, expected) << threads << " threads";
  }
}

TEST(LargeModulusTest, MaskedAggregatorIsExact) {
  const int n = 7;
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = 3;
  o.session_seed = 99;
  auto agg = MaskedAggregator::Create(o);
  ASSERT_TRUE(agg.ok());
  const uint64_t m = kLargePrime;
  const size_t dim = 19;
  const auto inputs = RandomInputs(n, dim, m, 8);
  std::vector<std::vector<uint64_t>> masked;
  for (int i = 0; i < n; ++i) {
    auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
    ASSERT_TRUE(mi.ok());
    masked.push_back(std::move(*mi));
  }
  const auto stream_sum = [&](const std::vector<int>& ids)
      -> StatusOr<std::vector<uint64_t>> {
    SMM_ASSIGN_OR_RETURN(auto stream, (*agg)->Open(dim, m));
    for (int i : ids) {
      SMM_RETURN_IF_ERROR(stream->Absorb(i, masked[static_cast<size_t>(i)]));
    }
    return stream->Finalize();
  };
  // Full participation: every pairwise mask must cancel exactly even though
  // individual masked coordinates live right below 2^64.
  auto full = stream_sum({0, 1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, CheckedReferenceSum(inputs, m));

  // Dropout recovery at the same modulus.
  const std::vector<int> survivors = {0, 2, 3, 5, 6};
  std::vector<std::vector<uint64_t>> survivor_inputs;
  for (int i : survivors) {
    survivor_inputs.push_back(inputs[static_cast<size_t>(i)]);
  }
  auto recovered = stream_sum(survivors);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, CheckedReferenceSum(survivor_inputs, m));
}

TEST(LargeModulusTest, StreamingAggregationIsExact) {
  const uint64_t m = kLargePrime;
  const size_t dim = 31;
  const auto inputs = RandomInputs(41, dim, m, 9);
  const auto expected = CheckedReferenceSum(inputs, m);
  IdealAggregator agg;
  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    auto stream = agg.Open(dim, m, &pool);
    ASSERT_TRUE(stream.ok());
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_TRUE((*stream)->Absorb(static_cast<int>(i), inputs[i]).ok());
    }
    auto sum = (*stream)->Finalize();
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace smm::secagg
