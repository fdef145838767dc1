#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/format.hpp"

namespace dredbox::sim {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string BoxPlot::to_string() const {
  return strformat("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g (n=%zu)", minimum, q1, median,
                   q3, maximum, count);
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = samples_.size() <= 1 || (sorted_ && samples_[samples_.size() - 2] <= x);
  running_.add(x);
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("SampleSet::quantile on empty set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("SampleSet::quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (sorted_) {
    if (idx + 1 >= samples_.size()) return samples_.back();
    return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
  }
  // Unsorted: select rank idx, then rank idx + 1 is the least of the tail
  // nth_element leaves above it. O(n) per call instead of an O(n log n) sort.
  const auto at = samples_.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(samples_.begin(), at, samples_.end());
  if (idx + 1 >= samples_.size()) return *at;
  return *at * (1.0 - frac) + *std::min_element(at + 1, samples_.end()) * frac;
}

double SampleSet::standard_error() const {
  if (samples_.size() < 2) return 0.0;
  return running_.stddev() / std::sqrt(static_cast<double>(samples_.size()));
}

BoxPlot SampleSet::box_plot() const {
  BoxPlot b;
  if (samples_.empty()) return b;
  b.minimum = min();
  b.q1 = quantile(0.25);
  b.median = quantile(0.5);
  b.q3 = quantile(0.75);
  b.maximum = max();
  b.count = count();
  return b;
}

}  // namespace dredbox::sim
