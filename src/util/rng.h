#ifndef QPE_UTIL_RNG_H_
#define QPE_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qpe::util {

// splitmix64 (Steele et al.): Mix64Finalize is its full-avalanche
// finalizer, Mix64(x) its output for state x. Rng seeding, plan
// fingerprints, drift sketch probes and retry jitter share them, and warm
// snapshots and drift baselines persist bits derived from them.
inline constexpr uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

constexpr uint64_t Mix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr uint64_t Mix64(uint64_t x) {
  return Mix64Finalize(x + kSplitMixGamma);
}

// Complete serializable snapshot of an Rng stream, including the Box-Muller
// cache so a restored stream replays *exactly* — checkpoint/resume of a
// training run depends on this being bit-faithful.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

// Deterministic, seedable pseudo-random number generator (xoshiro256**).
// Every stochastic component in the library takes an explicit Rng (or a
// seed) so that datasets, plans, and training runs are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller.
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Lognormal multiplicative noise factor: exp(Normal(0, sigma)).
  double LognormalFactor(double sigma);

  // True with probability p.
  bool Bernoulli(double p);

  // Runs `count` Bernoulli(p) trials — the draws and outcomes of `count`
  // Bernoulli(p) calls, leaving the same state — and writes `hit` for a
  // true trial and `miss` for a false one to dst[0, kept); the trials past
  // `kept` only advance the stream. Requires kept <= count.
  void BernoulliFill(double p, float hit, float miss, float* dst,
                     size_t kept, size_t count);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<int> Permutation(int n);

  // Forks an independent stream seeded from this one (stable given call
  // order). Useful for giving each subsystem its own stream.
  Rng Fork();

  // Snapshot / restore of the full generator state (for checkpointing).
  RngState GetState() const;
  void SetState(const RngState& state);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace qpe::util

#endif  // QPE_UTIL_RNG_H_
