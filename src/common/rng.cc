#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace famtree {

namespace {

constexpr int kShift = 156;  // the recurrence's middle offset m
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;  // the top w - r bits
constexpr uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bits of `hi` joined to the lower bits of
/// `lo`, shifted, and xored with A when the joined word is odd.
inline uint64_t TwistWord(uint64_t far, uint64_t hi, uint64_t lo) {
  uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (int i = 1; i < kStateWords; ++i) {
    uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                static_cast<uint64_t>(i);
  }
}

void Mt19937_64::Twist() {
  // Two runs plus the wrap-around word. Neither run reads a word it wrote
  // itself (reads are kShift words away or one word ahead), so each is a
  // straight, vectorizable loop.
  int k = 0;
  for (; k < kStateWords - kShift; ++k) {
    state_[k] = TwistWord(state_[k + kShift], state_[k], state_[k + 1]);
  }
  for (; k < kStateWords - 1; ++k) {
    state_[k] =
        TwistWord(state_[k + kShift - kStateWords], state_[k], state_[k + 1]);
  }
  state_[kStateWords - 1] =
      TwistWord(state_[kShift - 1], state_[kStateWords - 1], state_[0]);
  pos_ = 0;
}

int64_t Rng::Zipf(int64_t n, double theta) {
  if (n <= 1) return 0;
  // Inverse-CDF sampling over the (unnormalized) harmonic weights. For the
  // sizes used by our generators (n up to ~1e6) a per-call linear scan would
  // be too slow, so use the standard rejection-free approximation by
  // partial-sum bisection over precomputed boundaries is overkill; a simple
  // iterative approach over a capped number of ranks suffices because the
  // head of a Zipf distribution carries almost all the mass.
  double u = NextDouble();
  double norm = 0.0;
  const int64_t cap = std::min<int64_t>(n, 10000);
  for (int64_t k = 0; k < cap; ++k) norm += 1.0 / std::pow(k + 1, theta);
  double target = u * norm;
  double acc = 0.0;
  for (int64_t k = 0; k < cap; ++k) {
    acc += 1.0 / std::pow(k + 1, theta);
    if (acc >= target) return k;
  }
  return cap - 1;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  std::vector<int> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (int i = 0; i < k && i < n; ++i) {
    int j = static_cast<int>(Uniform(i, n - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(std::min(n, k));
  return idx;
}

}  // namespace famtree
