#include "common/random.h"

#include <cassert>
#include <cmath>

// The generators below wrap uint64_t *by design* (splitmix64 and
// xoshiro256++ are defined over arithmetic mod 2^64); the shared
// SMM_NO_SANITIZE_UNSIGNED_WRAP annotation (common/math_util.h) keeps the
// unsigned-overflow sanitizer CI job from flagging the deliberate wraps.
#include "common/math_util.h"

namespace smm {

SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

void Xoshiro256::Jump() {
  static constexpr uint64_t kJump[] = {0x180ec6d33cfd0abaULL,
                                       0xd5a61266f0c9392cULL,
                                       0xa9582618e03fc9aaULL,
                                       0x39abdc4529b1661cULL};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      Next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

int64_t RandomGenerator::RandInt(int64_t n) {
  assert(n >= 1);
  return static_cast<int64_t>(UniformUint64(static_cast<uint64_t>(n))) + 1;
}

double RandomGenerator::Gaussian(double mean, double stddev) {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * UniformDouble() - 1.0;
    v = 2.0 * UniformDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  have_cached_gaussian_ = true;
  return mean + stddev * (u * factor);
}

RandomGenerator RandomGenerator::Fork() {
  // The child consumes the next 2^128 outputs of the current stream; the
  // parent jumps past that block, so parent and children never overlap.
  Xoshiro256 child = gen_;
  gen_.Jump();
  return RandomGenerator(child);
}

std::vector<RandomGenerator> MakeParticipantStreams(RandomGenerator& rng,
                                                    size_t n) {
  std::vector<RandomGenerator> streams;
  streams.reserve(n);
  for (size_t i = 0; i < n; ++i) streams.push_back(rng.Fork());
  return streams;
}

}  // namespace smm
