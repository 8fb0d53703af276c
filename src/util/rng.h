// Deterministic pseudo-random number generation.
//
// Every source of randomness in the simulator (scheduling jitter, message
// latency, noise log emission) draws from an explicitly seeded Rng so that a
// run is reproducible from (program, workload, seed, injection plan) alone.
// This mirrors the paper's requirement that a successful search emits a
// script that *deterministically* re-triggers the failure (§3 step 4.a).

#ifndef ANDURIL_SRC_UTIL_RNG_H_
#define ANDURIL_SRC_UTIL_RNG_H_

#include <cstdint>

namespace anduril {

// SplitMix64: used to expand a user seed into xoshiro state.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators" (OOPSLA 2014).
inline uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna. Small, fast, high quality; good enough
// for simulation scheduling (not cryptography).
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64Next(&sm);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Uses Lemire-style rejection to
  // avoid modulo bias.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Equal state: the same stream from here on. Rng(seed) == rng tells
  // whether `rng` has drawn anything since it was seeded.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_RNG_H_
