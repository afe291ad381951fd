#ifndef SMM_COMMON_RANDOM_H_
#define SMM_COMMON_RANDOM_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

// For SMM_NO_SANITIZE_UNSIGNED_WRAP: the PRG core and the bounded block
// draw below wrap uint64_t by design and are defined inline here so the
// per-draw cost in the encode and masking hot loops is a handful of
// instructions, not a cross-TU call.
#include "common/math_util.h"

namespace smm {

/// A deterministic, seedable source of 64 random bits per call.
///
/// All randomness in the library flows through this interface so that
/// experiments are reproducible and the exact samplers (Appendix A of the
/// paper) can be audited: they consume randomness exclusively through
/// RandomGenerator::RandInt, which is built on top of this.
class BitGenerator {
 public:
  virtual ~BitGenerator() = default;

  /// Returns the next 64 uniformly random bits.
  virtual uint64_t Next() = 0;
};

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, 256-bit state.
/// Seeded from a single 64-bit seed via splitmix64, per the authors'
/// recommendation.
class Xoshiro256 final : public BitGenerator {
 public:
  explicit Xoshiro256(uint64_t seed);

  // Defined inline: one draw per coordinate is the serial floor of the
  // fused encode pipeline, so the state transition must compile down to a
  // few ALU ops at the call site rather than a function call.
  SMM_NO_SANITIZE_UNSIGNED_WRAP
  uint64_t Next() override {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Advances the state by 2^128 steps; used to derive independent
  /// per-participant streams from a common seed.
  void Jump();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// splitmix64 step; exposed for seed-derivation in tests and the PRG.
uint64_t SplitMix64(uint64_t* state);

/// Uniform and derived variates on top of a BitGenerator.
///
/// RandInt follows the paper's convention (Appendix A): it is the *only*
/// primitive the exact samplers are allowed to call, and it returns a
/// uniform integer from {1, ..., n} (one-based, matching the pseudo-code).
class RandomGenerator {
 public:
  explicit RandomGenerator(uint64_t seed) : gen_(seed) {}

  /// Uniform integer in {1, ..., n}. Requires n >= 1. Unbiased
  /// (rejection sampling over the 64-bit space).
  int64_t RandInt(int64_t n);

  /// Uniform integer in {0, ..., bound - 1}. Requires bound >= 1. One
  /// element of UniformUint64Block, so both draw the identical stream.
  uint64_t UniformUint64(uint64_t bound) {
    uint64_t v;
    UniformUint64Block(bound, &v, 1);
    return v;
  }

  /// Fills out[0, n) with the next n draws of UniformUint64(bound), in
  /// order: rejection sampling over the 64-bit space, rejecting raw draws
  /// below 2^64 mod bound, then reducing mod bound. Inline and blocked
  /// because it is the per-coordinate cost of pairwise mask expansion: the
  /// rejection threshold (one 64-bit division) is hoisted out of the loop,
  /// and a power-of-two bound, whose threshold is 0, takes a division-free
  /// path that never rejects and reduces with a mask. The negation
  /// `0 - bound` (== 2^64 - bound) wraps by design.
  SMM_NO_SANITIZE_UNSIGNED_WRAP
  void UniformUint64Block(uint64_t bound, uint64_t* out, size_t n) {
    assert(bound >= 1);
    if ((bound & (bound - 1)) == 0) {
      const uint64_t mask = bound - 1;
      for (size_t k = 0; k < n; ++k) out[k] = gen_.Next() & mask;
      return;
    }
    const uint64_t threshold = (0 - bound) % bound;
    for (size_t k = 0; k < n; ++k) {
      uint64_t r = gen_.Next();
      while (r < threshold) r = gen_.Next();
      out[k] = r % bound;
    }
  }

  /// Uniform double in [0, 1) with 53 bits of precision (top 53 bits of
  /// one draw -> [0, 1)). Inline for the same reason as Xoshiro256::Next —
  /// it is the per-coordinate cost of stochastic rounding.
  double UniformDouble() {
    return static_cast<double>(gen_.Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Gaussian variate via the polar (Marsaglia) method. Deterministic given
  /// the seed; does not depend on libstdc++'s distribution implementations.
  double Gaussian(double mean, double stddev);

  /// Uniform random sign in {-1, +1}.
  int Sign() { return (gen_.Next() & 1) ? 1 : -1; }

  /// Raw 64 random bits (pass-through to the underlying generator).
  uint64_t NextBits() { return gen_.Next(); }

  /// Derives an independent generator (jump-ahead stream) for participant i.
  RandomGenerator Fork();

 private:
  explicit RandomGenerator(Xoshiro256 gen) : gen_(gen) {}

  Xoshiro256 gen_;
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Derives n independent jump-ahead streams from `rng`, one per participant
/// (stream i is the i-th Fork). The streams are pairwise non-overlapping and
/// depend only on rng's state and n, never on how (or on which thread) they
/// are later consumed — the foundation of the deterministic parallel encode
/// path.
std::vector<RandomGenerator> MakeParticipantStreams(RandomGenerator& rng,
                                                    size_t n);

}  // namespace smm

#endif  // SMM_COMMON_RANDOM_H_
