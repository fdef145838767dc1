#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dredbox::sim {

/// Streaming mean/variance/min/max (Welford). O(1) memory; no percentiles.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number summary used to render the paper's Fig. 7 box plots.
struct BoxPlot {
  double minimum = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double maximum = 0.0;
  std::size_t count = 0;

  double iqr() const { return q3 - q1; }
  std::string to_string() const;
};

/// Stored-sample statistics: percentiles and box plots on top of the
/// streaming aggregates. Linear-interpolated quantiles (type 7 / NumPy
/// default), so results are stable and comparable across tools.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const { return running_.mean(); }
  double stddev() const { return running_.stddev(); }
  double min() const { return running_.min(); }
  double max() const { return running_.max(); }
  double sum() const { return running_.sum(); }

  /// q in [0, 1]. Requires a non-empty set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double percentile(double p) const { return quantile(p / 100.0); }

  /// Standard error of the mean (0 for fewer than two samples).
  double standard_error() const;
  /// Half-width of the normal-approximation 95% confidence interval on
  /// the mean (1.96 standard errors).
  double ci95_halfwidth() const { return 1.96 * standard_error(); }

  BoxPlot box_plot() const;

  /// Insertion order, until a quantile() on an unsorted set reorders them.
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  /// True while the samples arrived in non-decreasing order; quantile()
  /// then indexes directly, else it selects (reordering the samples).
  bool sorted_ = true;
  RunningStats running_;
};

}  // namespace dredbox::sim
