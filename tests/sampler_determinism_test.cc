// Golden digests of the noise samplers' output bytes and RNG consumption.
// Each case hashes a 2^16-draw SampleBlock and then the generator's next
// raw NextBits() word, so a change that moves one output value or consumes
// one more or one fewer uniform fails here. The digests were recorded
// before the samplers' per-parameter constants were precomputed at Create.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mechanisms/smm_mechanism.h"
#include "sampling/noise_sampler.h"

namespace smm::sampling {
namespace {

constexpr size_t kDraws = size_t{1} << 16;

// FNV-1a over the little-endian bytes of each word: a fixed, portable
// digest. It wraps by design.
SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t HashWord(uint64_t h, uint64_t w) {
  for (int b = 0; b < 8; ++b) {
    h ^= (w >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

template <typename Sampler>
uint64_t BlockDigest(const Sampler& sampler, uint64_t seed) {
  RandomGenerator rng(seed);
  std::vector<int64_t> out(kDraws);
  sampler.SampleBlock(out.size(), out.data(), rng);
  uint64_t h = kFnvOffset;
  for (int64_t v : out) h = HashWord(h, static_cast<uint64_t>(v));
  return HashWord(h, rng.NextBits());
}

struct Case {
  double param;
  SamplerMode mode;
  uint64_t digest;
};

TEST(SamplerDeterminismTest, SkellamDigestsArePinned) {
  const Case kCases[] = {
      {0.5, SamplerMode::kApproximate, 0x3164345b0ac091a5ULL},
      {9.9, SamplerMode::kApproximate, 0x1a92e4802aaebf1cULL},
      {10.0, SamplerMode::kApproximate, 0x2109516162cfc3d3ULL},
      {365.0, SamplerMode::kApproximate, 0x7a84fbb5d86675aeULL},
      {6103.0, SamplerMode::kApproximate, 0xcd77318d75f7ac1cULL},
      {22843.1, SamplerMode::kApproximate, 0xe52f607483ef1715ULL},
      {0.5, SamplerMode::kExact, 0x158ac49173f83ecdULL},
      {3.0, SamplerMode::kExact, 0x93869626de45b51eULL},
  };
  for (const Case& c : kCases) {
    auto sampler = SkellamSampler::Create(c.param, c.mode);
    ASSERT_TRUE(sampler.ok());
    const uint64_t digest = BlockDigest(*sampler, 101);
    EXPECT_EQ(digest, c.digest)
        << "lambda " << c.param << " mode " << static_cast<int>(c.mode)
        << std::hex << " got 0x" << digest;
  }
}

TEST(SamplerDeterminismTest, DiscreteGaussianDigestsArePinned) {
  const Case kCases[] = {
      {0.7, SamplerMode::kApproximate, 0xa2854b870bb003fcULL},
      {3.0, SamplerMode::kApproximate, 0x9a6606f2c20bdc91ULL},
      {150.0, SamplerMode::kApproximate, 0x21160cda812596bcULL},
  };
  for (const Case& c : kCases) {
    auto sampler = DiscreteGaussianSampler::Create(c.param, c.mode);
    ASSERT_TRUE(sampler.ok());
    const uint64_t digest = BlockDigest(*sampler, 202);
    EXPECT_EQ(digest, c.digest)
        << "sigma " << c.param << std::hex << " got 0x" << digest;
  }
}

// One approximate-mode SMM encode row at fl_train's per-client lambda:
// rotation, clip, stochastic rounding and the Skellam block together.
TEST(SamplerDeterminismTest, SmmEncodeRowDigestIsPinned) {
  mechanisms::SmmMechanism::Options o;
  o.dim = 4096;
  o.gamma = 64.0;
  o.c = 1.0e6;
  o.delta_inf = 1.0e3;
  o.lambda = 6103.0;
  o.modulus = uint64_t{1} << 20;
  o.rotation_seed = 7;
  auto mechanism = mechanisms::SmmMechanism::Create(o);
  ASSERT_TRUE(mechanism.ok());
  RandomGenerator input_rng(99);
  std::vector<double> x(o.dim);
  for (auto& v : x) v = input_rng.Gaussian(0.0, 0.05);
  RandomGenerator rng(303);
  auto row = (*mechanism)->EncodeParticipant(x, rng);
  ASSERT_TRUE(row.ok());
  uint64_t digest = kFnvOffset;
  for (uint64_t v : *row) digest = HashWord(digest, v);
  digest = HashWord(digest, rng.NextBits());
  EXPECT_EQ(digest, 0xb6a5dedc0209002bULL) << std::hex << "got 0x" << digest;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The PTRS acceptance table must equal the out-of-table fallback bit for
// bit, or a draw would depend on whether its k fell inside the table. A
// compile-flag change that contracts one copy of the expression into an
// FMA and not the other shows up here.
TEST(SamplerDeterminismTest, PoissonTableMatchesDirectBound) {
  for (double lambda : {10.0, 365.0, 6103.0, 22843.1, 1.0e6}) {
    const PoissonApprox poisson(lambda);
    const double half_width = 12.0 * std::sqrt(lambda) + 16.0;
    const size_t n = poisson.table_size();
    const double first = poisson.table_first_k();
    ASSERT_GT(n, 0u);
    ASSERT_LE(n, PoissonApprox::kMaxTableSize);
    const double last = first + static_cast<double>(n - 1);
    if (2.0 * half_width + 2.0 <= PoissonApprox::kMaxTableSize) {
      EXPECT_LE(first, std::max(0.0, lambda - half_width));
      EXPECT_GE(last, std::floor(lambda + half_width));
    } else {  // Capped: the table is centred on lambda.
      EXPECT_GE(n, PoissonApprox::kMaxTableSize - 1);
      EXPECT_LE(first, lambda - 4000.0);
      EXPECT_GE(last, lambda + 4000.0);
    }
    const double log_lambda = std::log(lambda);
    for (size_t i = 0; i < n; ++i) {
      const double k = first + static_cast<double>(i);
      ASSERT_EQ(Bits(poisson.LogPmf(k)),
                Bits(PoissonApprox::LogPmfDirect(k, log_lambda, lambda)))
          << "lambda " << lambda << " k " << k;
    }
  }
  EXPECT_EQ(PoissonApprox(9.9).table_size(), 0u);
}

}  // namespace
}  // namespace smm::sampling
