// Deterministic pseudo-random numbers for workload generation and the small
// stochastic elements of the simulation (background activity jitter, match
// placement). Every experiment seeds its own Rng so runs are reproducible.
#ifndef SLEDS_SRC_COMMON_RNG_H_
#define SLEDS_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <random>

namespace sled {

// MT19937-64 (Matsumoto and Nishimura) with std::mt19937_64's seeding
// recurrence, twist and tempering, so it yields std::mt19937_64's output
// stream for every seed. Unlike libstdc++'s, its twist picks the matrix
// constant without a branch and runs as two equal loops over the state, which
// GCC vectorizes at baseline x86-64.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kStateWords) {
      Refill();
    }
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kStateWords = 312;

  // Twists the whole state block and rewinds `next_`.
  void Refill();

  // state_[kStateWords] mirrors the freshly twisted state_[0] during Refill,
  // so the block's last word twists in the same loop as the others.
  uint64_t state_[kStateWords + 1] = {};
  size_t next_ = kStateWords;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform double in [0, 1).
  double UniformDouble() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Exponential with the given mean (mean = 1/lambda).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  // Derive an independent child generator; used to give each run of a
  // repeated experiment its own stream.
  Rng Fork() { return Rng(engine_()); }

 private:
  Mt19937_64 engine_;
};

}  // namespace sled

#endif  // SLEDS_SRC_COMMON_RNG_H_
