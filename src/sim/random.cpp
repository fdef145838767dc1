#include "sim/random.hpp"

#include <numeric>
#include <stdexcept>

namespace dredbox::sim {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  std::uniform_int_distribution<std::int64_t> d{lo, hi};
  return d(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d{lo, hi};
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d{mean, stddev};
  return d(engine_);
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("Rng::exponential: mean must be positive");
  std::exponential_distribution<double> d{1.0 / mean};
  return d(engine_);
}

bool Rng::chance(double probability) {
  if (probability <= 0) return false;
  if (probability >= 1) return true;
  return uniform(0.0, 1.0) < probability;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("Rng::weighted_index: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0) throw std::invalid_argument("Rng::weighted_index: non-positive total weight");
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() {
  // Two draws give the child a 128-bit-ish distinct seed lineage.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return Rng{a ^ (b * 0x9E3779B97F4A7C15ULL)};
}

}  // namespace dredbox::sim
