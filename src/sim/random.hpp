#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

namespace dredbox::sim {

/// MT19937-64, the 64-bit Mersenne Twister: the seeding, recurrence and
/// tempering of the standard library's mt19937_64, so both produce the
/// same output sequence (tests/sim/test_random.cpp checks it against the
/// std engine). The refill is branch-free: the twist's conditional xor is
/// a mask. Satisfies UniformRandomBitGenerator with the std engine's
/// min() and max(), so a std distribution draws the same values from it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    if (next_ >= kStateSize) refill();
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  std::array<result_type, kStateSize> state_;
  std::size_t next_ = kStateSize;

  void refill();
};

/// Seeded random source used by every stochastic model: an MT19937-64
/// engine, the distributions the experiments need (each a libstdc++
/// distribution template over that engine), and a `fork()` operation
/// producing decorrelated child streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_{seed} {}

  // dredbox-lint: hot-path-begin — the per-op draws (op kind, address,
  // think time) inline into their callers; their throws stay out of line.

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw_inverted_range();
    std::uniform_int_distribution<std::int64_t> d{lo, hi};
    return d(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d{lo, hi};
    return d(engine_);
  }

  /// Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean) {
    if (mean <= 0) throw_non_positive_mean();
    std::exponential_distribution<double> d{1.0 / mean};
    return d(engine_);
  }

  /// Bernoulli trial.
  bool chance(double probability) {
    if (probability <= 0) return false;
    if (probability >= 1) return true;
    return uniform(0.0, 1.0) < probability;
  }

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Takes a view, so a per-op draw over a fixed mix allocates nothing.
  std::size_t weighted_index(std::span<const double> weights) {
    if (weights.empty()) throw_empty_weights();
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    if (total <= 0) throw_non_positive_total();
    double x = uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0) return i;
    }
    return weights.size() - 1;
  }
  std::size_t weighted_index(std::initializer_list<double> weights) {
    return weighted_index(std::span<const double>{weights.begin(), weights.size()});
  }

  // dredbox-lint: hot-path-end

  /// Standard or parameterised Gaussian.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives a child stream whose draws are decorrelated from this one.
  Rng fork();

 private:
  Mt19937_64 engine_;

  [[noreturn]] static void throw_inverted_range();
  [[noreturn]] static void throw_non_positive_mean();
  [[noreturn]] static void throw_empty_weights();
  [[noreturn]] static void throw_non_positive_total();
};

}  // namespace dredbox::sim
