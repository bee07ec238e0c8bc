#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace qpe::util {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256** step over the state s.
inline uint64_t Step(uint64_t* s) {
  const uint64_t result = Rotl(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (auto& s : s_) {
    s = Mix64(seed);
    seed += kSplitMixGamma;
  }
}

uint64_t Rng::NextU64() { return Step(s_); }

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextU64() % span);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LognormalFactor(double sigma) { return std::exp(Normal(0.0, sigma)); }

bool Rng::Bernoulli(double p) { return Uniform() < p; }

void Rng::BernoulliFill(double p, float hit, float miss, float* dst,
                        size_t kept, size_t count) {
  // Uniform() < p is (x >> 11) * 2^-53 < p. Scaling both sides by 2^53 is
  // exact (a power of two; p * 2^53 overflows only to +inf, where both
  // forms are true), so each trial is (x >> 11) < p * 2^53, with the
  // integer below 2^53 converted exactly. The state stays in registers.
  const double threshold = p * 0x1.0p53;
  uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (size_t i = 0; i < kept; ++i) {
    dst[i] = static_cast<double>(Step(s) >> 11) < threshold ? hit : miss;
  }
  for (size_t i = kept; i < count; ++i) Step(s);
  for (int i = 0; i < 4; ++i) s_[i] = s[i];
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(UniformInt(0, i));
    std::swap(p[i], p[j]);
  }
  return p;
}

Rng Rng::Fork() { return Rng(NextU64()); }

RngState Rng::GetState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace qpe::util
