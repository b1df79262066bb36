#ifndef FAMTREE_COMMON_RNG_H_
#define FAMTREE_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace famtree {

/// MT19937-64 (Matsumoto & Nishimura), bit-identical to the standard
/// library's 64-bit Mersenne Twister: same seeding recurrence, same twist,
/// same tempering. The twist selects
/// the matrix constant with a mask (`a & (0 - (y & 1))`) instead of a
/// branch on the low bit, which takes the unpredictable branch out of the
/// 312-word state refresh; that is most of the cost of a long serial draw
/// (FASTDC's pair sample). A UniformRandomBitGenerator, so the <random>
/// distributions consume it exactly as they consume the std engine.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateWords) Twist();
    uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr int kStateWords = 312;

  /// Regenerates all 312 state words.
  void Twist();

  uint64_t state_[kStateWords];
  int pos_ = kStateWords;
};

/// Deterministic random source used by generators, sampling-based discovery
/// algorithms and property tests. All randomized behaviour in the library is
/// seeded explicitly so experiments are reproducible. The draws are those
/// of the standard 64-bit Mersenne Twister under the libstdc++
/// distributions (pinned against that engine in tests/common_test.cc), so
/// every seeded sample the library produced before it had its own engine,
/// and every golden file frozen from one, is unchanged.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    std::uniform_real_distribution<double> d(0.0, 1.0);
    return d(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Gaussian sample.
  double Normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Zipf-distributed rank in [0, n): probability of rank k proportional to
  /// 1/(k+1)^theta. Used for skewed categorical domains.
  int64_t Zipf(int64_t n, double theta);

  /// Samples k distinct indices from [0, n) (k <= n), in arbitrary order.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace famtree

#endif  // FAMTREE_COMMON_RNG_H_
