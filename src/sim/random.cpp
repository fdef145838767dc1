#include "sim/random.hpp"

#include <stdexcept>

namespace dredbox::sim {

namespace {
constexpr std::size_t kShift = 156;  // the recurrence's middle word offset, m
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One step of the twist: the top bit of `hi` joined to the low 31 of `lo`,
// shifted and xored with A when its low bit is set (a mask, not a branch).
constexpr std::uint64_t twist(std::uint64_t far, std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  constexpr std::size_t n = kStateSize;
  std::size_t k = 0;
  for (; k < n - kShift; ++k) state_[k] = twist(state_[k + kShift], state_[k], state_[k + 1]);
  for (; k < n - 1; ++k) state_[k] = twist(state_[k + kShift - n], state_[k], state_[k + 1]);
  state_[n - 1] = twist(state_[kShift - 1], state_[n - 1], state_[0]);
  next_ = 0;
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d{mean, stddev};
  return d(engine_);
}

Rng Rng::fork() {
  // Two draws give the child a 128-bit-ish distinct seed lineage.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return Rng{a ^ (b * 0x9E3779B97F4A7C15ULL)};
}

void Rng::throw_inverted_range() { throw std::invalid_argument("Rng::uniform_int: lo > hi"); }

void Rng::throw_non_positive_mean() {
  throw std::invalid_argument("Rng::exponential: mean must be positive");
}

void Rng::throw_empty_weights() {
  throw std::invalid_argument("Rng::weighted_index: empty weights");
}

void Rng::throw_non_positive_total() {
  throw std::invalid_argument("Rng::weighted_index: non-positive total weight");
}

}  // namespace dredbox::sim
