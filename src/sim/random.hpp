#pragma once

#include <cstdint>
#include <initializer_list>
#include <random>
#include <span>
#include <vector>

namespace dredbox::sim {

/// Seeded random source used by every stochastic model. Thin wrapper over
/// std::mt19937_64 with the distributions the experiments need and a
/// `fork()` operation producing decorrelated child streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_{seed} {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard or parameterised Gaussian.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double probability);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Takes a view, so a per-op draw over a fixed mix allocates nothing.
  std::size_t weighted_index(std::span<const double> weights);
  std::size_t weighted_index(std::initializer_list<double> weights) {
    return weighted_index(std::span<const double>{weights.begin(), weights.size()});
  }

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

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dredbox::sim
