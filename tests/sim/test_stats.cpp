#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/random.hpp"

namespace dredbox::sim {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  RunningStats a, b, all;
  Rng rng{5};
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-7);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(SampleSetTest, QuantilesOfKnownSet) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 4.0);
}

TEST(SampleSetTest, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.1), 1.0);
}

TEST(SampleSetTest, UnsortedInsertionHandled) {
  SampleSet s;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(SampleSetTest, QuantileValidation) {
  SampleSet s;
  EXPECT_THROW(s.quantile(0.5), std::logic_error);
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.1), std::invalid_argument);
}

TEST(SampleSetTest, BoxPlotFiveNumbers) {
  SampleSet s;
  for (int i = 1; i <= 101; ++i) s.add(static_cast<double>(i));
  const BoxPlot b = s.box_plot();
  EXPECT_DOUBLE_EQ(b.minimum, 1.0);
  EXPECT_DOUBLE_EQ(b.q1, 26.0);
  EXPECT_DOUBLE_EQ(b.median, 51.0);
  EXPECT_DOUBLE_EQ(b.q3, 76.0);
  EXPECT_DOUBLE_EQ(b.maximum, 101.0);
  EXPECT_EQ(b.count, 101u);
  EXPECT_DOUBLE_EQ(b.iqr(), 50.0);
}

TEST(SampleSetTest, BoxPlotOrderingInvariant) {
  Rng rng{77};
  SampleSet s;
  for (int i = 0; i < 500; ++i) s.add(rng.normal(0.0, 1.0));
  const BoxPlot b = s.box_plot();
  EXPECT_LE(b.minimum, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.maximum);
}

// Property coverage for quantile() at the edges the interpolation formula
// is most likely to get wrong: the extremes, a single sample, and
// duplicate-heavy sets where many ranks share one value.

TEST(SampleSetQuantileProperty, ExtremesEqualMinAndMax) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng{seed};
    SampleSet s;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < n; ++i) {
      s.add(static_cast<double>(rng.uniform_int(-1000, 1000)) / 8.0);
    }
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max()) << "seed " << seed;
  }
}

TEST(SampleSetQuantileProperty, SingleSampleIsEveryQuantile) {
  SampleSet s;
  s.add(3.25);
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), 3.25) << "q=" << q;
  }
}

TEST(SampleSetQuantileProperty, AllDuplicatesCollapseToTheValue) {
  SampleSet s;
  for (int i = 0; i < 64; ++i) s.add(-2.5);
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), -2.5) << "q=" << q;
  }
}

TEST(SampleSetQuantileProperty, DuplicateHeavySetsStayMonotoneAndBounded) {
  for (std::uint64_t seed : {3u, 9u, 27u}) {
    Rng rng{seed};
    SampleSet s;
    // ~8 distinct values spread over 300 samples: long runs of equal ranks.
    for (int i = 0; i < 300; ++i) {
      s.add(static_cast<double>(rng.uniform_int(0, 7)));
    }
    double prev = s.quantile(0.0);
    for (int step = 0; step <= 100; ++step) {
      const double q = static_cast<double>(step) / 100.0;
      const double v = s.quantile(q);
      EXPECT_GE(v, s.min()) << "seed " << seed << " q=" << q;
      EXPECT_LE(v, s.max()) << "seed " << seed << " q=" << q;
      EXPECT_GE(v, prev) << "quantile not monotone at seed " << seed << " q=" << q;
      prev = v;
    }
    // With >= 100 samples per distinct value on average, the median of a
    // duplicate-heavy set must itself be one of the sample values.
    const double med = s.quantile(0.5);
    EXPECT_DOUBLE_EQ(med, std::floor(med));
  }
}

TEST(SampleSetQuantileProperty, InterleavedAddsDoNotDisturbQuantiles) {
  // quantile() reorders the samples when it selects; interleaving add() and
  // quantile() must keep answers consistent with a from-scratch sorted copy.
  Rng rng{5};
  SampleSet s;
  std::vector<double> mirror;
  for (int i = 0; i < 120; ++i) {
    const double x = static_cast<double>(rng.uniform_int(-50, 50));
    s.add(x);
    mirror.push_back(x);
    if (i % 10 == 9) {
      std::vector<double> sorted = mirror;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_DOUBLE_EQ(s.quantile(0.0), sorted.front());
      EXPECT_DOUBLE_EQ(s.quantile(1.0), sorted.back());
      const double pos = 0.5 * static_cast<double>(sorted.size() - 1);
      const auto idx = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(idx);
      const double expect = idx + 1 < sorted.size()
                                ? sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac
                                : sorted.back();
      EXPECT_DOUBLE_EQ(s.quantile(0.5), expect);
    }
  }
}

TEST(SampleSetTest, PercentileAliasesQuantile) {
  SampleSet s;
  for (int i = 0; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(95.0), s.quantile(0.95));
}

TEST(SampleSetTest, StandardErrorAndCi95) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.standard_error(), 0.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.standard_error(), 0.0);  // one sample: undefined -> 0
  for (double x : {2.0, 3.0, 4.0, 5.0}) s.add(x);
  // stddev of {1..5} = sqrt(2.5); SE = sqrt(2.5)/sqrt(5) = sqrt(0.5).
  EXPECT_NEAR(s.standard_error(), std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(s.ci95_halfwidth(), 1.96 * std::sqrt(0.5), 1e-12);
}

TEST(SampleSetTest, CiShrinksWithMoreSamples) {
  Rng rng{42};
  SampleSet small, large;
  for (int i = 0; i < 30; ++i) small.add(rng.normal(0.0, 1.0));
  for (int i = 0; i < 3000; ++i) large.add(rng.normal(0.0, 1.0));
  EXPECT_LT(large.ci95_halfwidth(), small.ci95_halfwidth());
}

// quantile() selects instead of sorting. These pin it, bit for bit, to the
// sort-based type-7 formula it replaced.

double sorted_reference_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= v.size()) return v.back();
  return v[idx] * (1.0 - frac) + v[idx + 1] * frac;
}

constexpr double kOracleQs[] = {0.0, 0.25, 0.5, 0.95, 0.999, 1.0};

// ~6 distinct values with a fractional part, so ties are common and the
// interpolation weights matter.
std::vector<double> tie_heavy_samples(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = static_cast<double>(rng.uniform_int(-3, 2)) * 1.375;
  return v;
}

TEST(SampleSetSelectionOracle, MatchesSortedReferenceOnTieHeavySets) {
  for (std::size_t n : {1u, 2u, 3u, 1000u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng{seed};
      const std::vector<double> samples = tie_heavy_samples(rng, n);
      SampleSet s;
      for (double x : samples) s.add(x);
      for (double q : kOracleQs) {
        EXPECT_EQ(s.quantile(q), sorted_reference_quantile(samples, q))
            << "n=" << n << " seed " << seed << " q=" << q;
      }
    }
  }
}

TEST(SampleSetSelectionOracle, RepeatedCallsAgree) {
  Rng rng{11};
  const std::vector<double> samples = tie_heavy_samples(rng, 1000);
  SampleSet s;
  for (double x : samples) s.add(x);
  for (int pass = 0; pass < 3; ++pass) {
    // Descending then ascending q: each selection starts from the order
    // the previous one left.
    for (auto it = std::rbegin(kOracleQs); it != std::rend(kOracleQs); ++it) {
      EXPECT_EQ(s.quantile(*it), sorted_reference_quantile(samples, *it)) << "q=" << *it;
    }
    for (double q : kOracleQs) {
      EXPECT_EQ(s.quantile(q), sorted_reference_quantile(samples, q)) << "q=" << q;
    }
  }
}

TEST(SampleSetSelectionOracle, InterleavedWithAdd) {
  Rng rng{12};
  SampleSet s;
  std::vector<double> mirror;
  for (double x : tie_heavy_samples(rng, 600)) {
    s.add(x);
    mirror.push_back(x);
    for (double q : kOracleQs) {
      ASSERT_EQ(s.quantile(q), sorted_reference_quantile(mirror, q))
          << "n=" << mirror.size() << " q=" << q;
    }
  }
}

TEST(SampleSetSelectionOracle, SortedInsertionIndexesDirectly) {
  SampleSet s;
  std::vector<double> mirror;
  for (int i = 0; i < 257; ++i) {
    const double x = static_cast<double>(i / 4) * 0.5;  // non-decreasing, with ties
    s.add(x);
    mirror.push_back(x);
  }
  for (double q : kOracleQs) EXPECT_EQ(s.quantile(q), sorted_reference_quantile(mirror, q));
  EXPECT_EQ(s.samples(), mirror);  // an in-order set is never reordered
}

TEST(SampleSetSelectionOracle, BoxPlotMatchesSortedReference) {
  Rng rng{13};
  const std::vector<double> samples = tie_heavy_samples(rng, 1000);
  SampleSet s;
  for (double x : samples) s.add(x);
  const BoxPlot b = s.box_plot();
  EXPECT_EQ(b.minimum, sorted_reference_quantile(samples, 0.0));
  EXPECT_EQ(b.q1, sorted_reference_quantile(samples, 0.25));
  EXPECT_EQ(b.median, sorted_reference_quantile(samples, 0.5));
  EXPECT_EQ(b.q3, sorted_reference_quantile(samples, 0.75));
  EXPECT_EQ(b.maximum, sorted_reference_quantile(samples, 1.0));
  EXPECT_EQ(b.count, samples.size());
}

TEST(SampleSetSelectionOracle, MeanMinMaxUnchangedBySelection) {
  Rng rng{14};
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(rng.normal(5.0, 2.0));
  const double mean = s.mean(), min = s.min(), max = s.max(), stddev = s.stddev();
  for (double q : kOracleQs) s.quantile(q);
  EXPECT_EQ(s.mean(), mean);
  EXPECT_EQ(s.min(), min);
  EXPECT_EQ(s.max(), max);
  EXPECT_EQ(s.stddev(), stddev);
  EXPECT_EQ(s.count(), 1000u);
}

}  // namespace
}  // namespace dredbox::sim
