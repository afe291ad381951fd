#include "secagg/secure_aggregator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "reference_sum.h"

namespace smm::secagg {
namespace {

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

std::vector<int> Range(int n) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

/// The server path under test: opens a stream over `agg`, absorbs
/// contributions[i] for every i in `participants` as one tile, finalizes.
StatusOr<std::vector<uint64_t>> StreamSum(
    SecureAggregator& agg,
    const std::vector<std::vector<uint64_t>>& contributions,
    const std::vector<int>& participants, uint64_t m) {
  SMM_ASSIGN_OR_RETURN(auto stream,
                       agg.Open(contributions[0].size(), m));
  std::vector<std::vector<uint64_t>> tile;
  for (int i : participants) {
    tile.push_back(contributions[static_cast<size_t>(i)]);
  }
  SMM_RETURN_IF_ERROR(stream->AbsorbTile(participants, tile));
  return stream->Finalize();
}

/// Every participant's masked input, indexed by participant.
std::vector<std::vector<uint64_t>> MaskAll(
    const MaskedAggregator& agg,
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  std::vector<std::vector<uint64_t>> masked;
  for (size_t i = 0; i < inputs.size(); ++i) {
    masked.push_back(agg.MaskInput(static_cast<int>(i), inputs[i], m).value());
  }
  return masked;
}

TEST(IdealAggregatorTest, SumsModM) {
  IdealAggregator agg;
  const auto inputs = RandomInputs(5, 16, 256, 1);
  auto sum = StreamSum(agg, inputs, Range(5), 256);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ReferenceSum(inputs, 256));
}

TEST(IdealAggregatorTest, RejectsBadInputs) {
  IdealAggregator agg;
  EXPECT_FALSE(agg.Open(0, 256).ok());
  EXPECT_FALSE(agg.Open(2, 1).ok());
  auto stream = agg.Open(2, 256);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE((*stream)->AbsorbTile({0, 1}, {{1, 2}, {3}}).ok());
  EXPECT_EQ((*stream)->absorbed(), 0u);
  EXPECT_EQ((*stream)->Finalize().status().code(),
            StatusCode::kFailedPrecondition);
}

MaskedAggregator::Options BasicOptions(int n, int threshold) {
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = threshold;
  o.session_seed = 33;
  return o;
}

TEST(MaskedAggregatorTest, CreateValidates) {
  EXPECT_FALSE(MaskedAggregator::Create(BasicOptions(1, 1)).ok());
  EXPECT_FALSE(MaskedAggregator::Create(BasicOptions(4, 0)).ok());
  EXPECT_FALSE(MaskedAggregator::Create(BasicOptions(4, 5)).ok());
  EXPECT_TRUE(MaskedAggregator::Create(BasicOptions(4, 2)).ok());
}

TEST(MaskedAggregatorTest, MatchesIdealSum) {
  auto agg = MaskedAggregator::Create(BasicOptions(6, 3));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1024;
  const auto inputs = RandomInputs(6, 32, m, 2);
  auto masked_sum = StreamSum(**agg, MaskAll(**agg, inputs, m), Range(6), m);
  ASSERT_TRUE(masked_sum.ok());
  EXPECT_EQ(*masked_sum, ReferenceSum(inputs, m));
}

TEST(MaskedAggregatorTest, MaskedInputsHideRawValues) {
  auto agg = MaskedAggregator::Create(BasicOptions(4, 2));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 16;
  std::vector<uint64_t> zeros(64, 0);
  auto masked = (*agg)->MaskInput(0, zeros, m);
  ASSERT_TRUE(masked.ok());
  // An all-zero input must not come out (near-)zero after masking.
  int nonzero = 0;
  for (uint64_t v : *masked) {
    if (v != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 48);
}

TEST(MaskedAggregatorTest, PairwiseMasksCancelOnlyInFullSum) {
  auto agg = MaskedAggregator::Create(BasicOptions(3, 1));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 12;
  const auto inputs = RandomInputs(3, 8, m, 3);
  std::vector<std::vector<uint64_t>> masked;
  for (int i = 0; i < 3; ++i) {
    auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
    ASSERT_TRUE(mi.ok());
    masked.push_back(std::move(*mi));
  }
  // Sum of any two masked inputs should NOT equal the corresponding exact
  // partial sum (the unmatched masks remain).
  std::vector<uint64_t> partial(8, 0);
  for (size_t j = 0; j < 8; ++j) {
    partial[j] = (masked[0][j] + masked[1][j]) % m;
  }
  std::vector<uint64_t> exact_partial(8, 0);
  for (size_t j = 0; j < 8; ++j) {
    exact_partial[j] = (inputs[0][j] + inputs[1][j]) % m;
  }
  EXPECT_NE(partial, exact_partial);
}

TEST(MaskedAggregatorTest, DropoutRecoveryReconstructsSum) {
  const int n = 5;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 3));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 4096;
  const size_t dim = 16;
  const auto inputs = RandomInputs(n, dim, m, 4);

  // Participants 1 and 3 drop out AFTER masking is configured but before
  // submitting; survivors are 0, 2, 4.
  const std::vector<int> survivors = {0, 2, 4};
  auto sum = StreamSum(**agg, MaskAll(**agg, inputs, m), survivors, m);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ReferenceSumOf(inputs, survivors, m));
}

TEST(MaskedAggregatorTest, TooManyDropoutsFail) {
  auto agg = MaskedAggregator::Create(BasicOptions(5, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 256;
  const auto inputs = RandomInputs(5, 4, m, 5);
  const std::vector<int> survivors = {0, 1};  // Below threshold 4.
  EXPECT_EQ(
      StreamSum(**agg, MaskAll(**agg, inputs, m), survivors, m)
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
}

TEST(MaskedAggregatorTest, MaskInputValidatesArguments) {
  auto agg = MaskedAggregator::Create(BasicOptions(4, 2));
  ASSERT_TRUE(agg.ok());
  const std::vector<uint64_t> input(8, 1);
  // A zero or unit modulus used to reach `% 0` / degenerate masking.
  EXPECT_FALSE((*agg)->MaskInput(0, input, 0).ok());
  EXPECT_FALSE((*agg)->MaskInput(0, input, 1).ok());
  // Empty inputs carry no dimension to mask.
  EXPECT_FALSE((*agg)->MaskInput(0, {}, 256).ok());
  // Out-of-range participants.
  EXPECT_FALSE((*agg)->MaskInput(-1, input, 256).ok());
  EXPECT_FALSE((*agg)->MaskInput(4, input, 256).ok());
  EXPECT_TRUE((*agg)->MaskInput(3, input, 256).ok());
}

// FNV-1a over the little-endian bytes of each word: a fixed, portable
// digest for pinning protocol outputs bit for bit. It wraps by design; the
// uio CI job instruments this binary with the unsigned-overflow sanitizer.
SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t HashWords(uint64_t h, const std::vector<uint64_t>& words) {
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Pins every byte the masked protocol produces: each participant's masked
// vector (pair seeds, mask draws, masking arithmetic) and the dropout-
// recovered stream sum (Shamir recovery of the dropped pairs' seeds and
// their mask removal). The digests were recorded before the Shamir and
// mask-draw arithmetic was optimised, so a change to either that moves one
// output bit fails here. The moduli cover a power of two (the mask-draw
// fast path), an odd prime, and two moduli above 2^63 (rejection-heavy
// bounds near the top of the 64-bit range). d = 300 spans a full 256-draw
// tile plus a partial one; the pool sizes cover sequential and sharded
// masking and recovery.
TEST(MaskedAggregatorTest, MaskedInputsAndRecoveredSumArePinned) {
  constexpr int kParticipants = 24;
  constexpr int kThreshold = 12;
  constexpr size_t kDim = 300;
  const std::vector<int> dropped = {2, 17, 23};
  const struct {
    uint64_t m;
    uint64_t digest;
  } kCases[] = {
      {uint64_t{1} << 16, 0xd6f78ec615f971c2ULL},
      {1000003, 0xe61ebb7a42e6b539ULL},
      {(uint64_t{1} << 63) + 12345, 0x36fab718f707ead4ULL},
      // 2^64 - 59, the largest 64-bit prime.
      {~uint64_t{0} - 58, 0x1e0e0391d5423baaULL},
  };
  for (const auto& c : kCases) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "m=" << c.m << " threads="
                                        << threads);
      ThreadPool pool(threads);
      MaskedAggregator::Options o;
      o.num_participants = kParticipants;
      o.threshold = kThreshold;
      o.session_seed = 20261017;
      auto agg = MaskedAggregator::Create(o);
      ASSERT_TRUE(agg.ok());
      const auto inputs = RandomInputs(kParticipants, kDim, c.m, c.m ^ 77);
      uint64_t digest = 0xcbf29ce484222325ULL;
      std::vector<std::vector<uint64_t>> masked;
      for (int i = 0; i < kParticipants; ++i) {
        auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], c.m,
                                    &pool);
        ASSERT_TRUE(mi.ok());
        digest = HashWords(digest, *mi);
        masked.push_back(std::move(*mi));
      }
      auto stream = (*agg)->Open(kDim, c.m, &pool);
      ASSERT_TRUE(stream.ok());
      std::vector<std::vector<uint64_t>> survivor_inputs;
      for (int i = 0; i < kParticipants; ++i) {
        if (std::find(dropped.begin(), dropped.end(), i) != dropped.end()) {
          continue;
        }
        ASSERT_TRUE(
            (*stream)->Absorb(i, masked[static_cast<size_t>(i)]).ok());
        survivor_inputs.push_back(inputs[static_cast<size_t>(i)]);
      }
      auto sum = (*stream)->Finalize();
      ASSERT_TRUE(sum.ok());
      ASSERT_EQ(*sum, ReferenceSum(survivor_inputs, c.m));
      digest = HashWords(digest, *sum);
      EXPECT_EQ(digest, c.digest) << std::hex << "0x" << digest;
    }
  }
}

class MaskedAggregatorParamTest
    : public ::testing::TestWithParam<std::pair<int, uint64_t>> {};

TEST_P(MaskedAggregatorParamTest, MatchesIdealAcrossSizesAndModuli) {
  const auto [n, m] = GetParam();
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = std::max(1, n / 2);
  o.session_seed = static_cast<uint64_t>(n) * m;
  auto agg = MaskedAggregator::Create(o);
  ASSERT_TRUE(agg.ok());
  const auto inputs = RandomInputs(n, 8, m, static_cast<uint64_t>(n) + m);
  auto sum = StreamSum(**agg, MaskAll(**agg, inputs, m), Range(n), m);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ReferenceSum(inputs, m));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MaskedAggregatorParamTest,
    ::testing::Values(std::pair<int, uint64_t>{2, 64},
                      std::pair<int, uint64_t>{3, 256},
                      std::pair<int, uint64_t>{8, 1024},
                      std::pair<int, uint64_t>{16, 1 << 18}));

}  // namespace
}  // namespace smm::secagg
