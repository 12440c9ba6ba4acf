// Deterministic pseudo-random number generation.
//
// SplitMix64 seeds Xoshiro256**; both are tiny, fast, and reproducible
// across platforms — important because the virtual-time experiments must
// produce identical event orders on every run.
#pragma once

#include <cstdint>

namespace ccf::util {

/// SplitMix64: used to expand a single seed into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: general-purpose generator.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // bias is negligible for our n << 2^64.
    return mul_high(next(), n);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// High 64 bits of the 128-bit product a * b, from 32-bit halves (ISO
  /// C++ has no 128-bit integer).
  static std::uint64_t mul_high(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t a_lo = a & 0xffffffffu, a_hi = a >> 32;
    const std::uint64_t b_lo = b & 0xffffffffu, b_hi = b >> 32;
    const std::uint64_t lo_lo = a_lo * b_lo;
    const std::uint64_t hi_lo = a_hi * b_lo;
    const std::uint64_t mid = (lo_lo >> 32) + (hi_lo & 0xffffffffu) + a_lo * b_hi;
    return a_hi * b_hi + (hi_lo >> 32) + (mid >> 32);
  }

  std::uint64_t state_[4];
};

}  // namespace ccf::util
