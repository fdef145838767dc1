#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace dredbox::sim {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng{7};
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng{7};
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(1, 8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRealStaysInRange) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasRequestedMoments) {
  Rng rng{13};
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng{17};
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng rng{17};
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng{19};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng{23};
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng{29};
  std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_index(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, WeightedIndexRejectsBadInput) {
  Rng rng{29};
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng{31};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesDecorrelatedStream) {
  Rng parent{37};
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform_int(0, 1 << 30) == child.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

// The engine and every draw are pinned to the standard library: the local
// MT19937-64 must emit std::mt19937_64's sequence, and each Rng method must
// equal the std distribution it wraps over a std engine with the same seed.

constexpr std::uint64_t kOracleSeeds[] = {0, 1, 42, (std::uint64_t{1} << 63) + 1};

TEST(RngEngineOracle, RawOutputsMatchStdMt19937_64AcrossRefills) {
  for (std::uint64_t seed : kOracleSeeds) {
    Mt19937_64 engine{seed};
    std::mt19937_64 oracle{seed};
    for (std::size_t i = 0; i < 4 * Mt19937_64::kStateSize + 7; ++i) {
      ASSERT_EQ(engine(), oracle()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngEngineOracle, DefaultSeededTenThousandthOutput) {
  // The value the C++ standard requires of a default-constructed
  // std::mt19937_64, whose default seed is 5489 ([rand.predef]).
  Mt19937_64 engine{5489};
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(RngEngineOracle, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Mt19937_64>);
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  SUCCEED();
}

TEST(RngDrawOracle, UniformIntMatchesStdDistribution) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 1000000}, {-5, 5}, {3, 3}, {kMin, kMax}, {0, kMax}, {kMin, kMin}, {0, 1}};
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 400; ++i) {
      for (const auto& [lo, hi] : ranges) {
        std::uniform_int_distribution<std::int64_t> d{lo, hi};
        ASSERT_EQ(rng.uniform_int(lo, hi), d(oracle)) << "seed " << seed << " [" << lo << ", "
                                                      << hi << "] draw " << i;
      }
    }
  }
}

TEST(RngDrawOracle, UniformMatchesStdDistribution) {
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) {
      std::uniform_real_distribution<double> d{-2.5, 7.0};
      ASSERT_EQ(rng.uniform(-2.5, 7.0), d(oracle)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngDrawOracle, ExponentialMatchesStdDistribution) {
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) {
      const double mean = 0.5 + (i % 7);
      std::exponential_distribution<double> d{1.0 / mean};
      ASSERT_EQ(rng.exponential(mean), d(oracle)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngDrawOracle, ChanceMatchesStdDistribution) {
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) {
      // 0 and 1 are decided without a draw, so the streams stay aligned.
      ASSERT_FALSE(rng.chance(0.0));
      ASSERT_TRUE(rng.chance(1.0));
      std::uniform_real_distribution<double> d{0.0, 1.0};
      ASSERT_EQ(rng.chance(0.3), d(oracle) < 0.3) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngDrawOracle, WeightedIndexMatchesStdDistribution) {
  const std::vector<double> weights{0.5, 0.0, 2.0, 1.25, 0.25};
  double total = 0.0;
  for (double w : weights) total += w;
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) {
      std::uniform_real_distribution<double> d{0.0, total};
      double x = d(oracle);
      std::size_t expected = weights.size() - 1;
      for (std::size_t k = 0; k < weights.size(); ++k) {
        x -= weights[k];
        if (x < 0) {
          expected = k;
          break;
        }
      }
      ASSERT_EQ(rng.weighted_index(weights), expected) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngDrawOracle, NormalMatchesStdDistribution) {
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) {
      // A fresh distribution per call, as Rng::normal builds one.
      std::normal_distribution<double> d{10.0, 2.0};
      ASSERT_EQ(rng.normal(10.0, 2.0), d(oracle)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngDrawOracle, ShuffleMatchesStdDistribution) {
  for (std::uint64_t seed : kOracleSeeds) {
    Rng rng{seed};
    std::mt19937_64 oracle{seed};
    std::vector<int> v(50);
    std::iota(v.begin(), v.end(), 0);
    std::vector<int> expected = v;
    for (int round = 0; round < 10; ++round) {
      rng.shuffle(v);
      for (std::size_t i = expected.size(); i > 1; --i) {
        std::uniform_int_distribution<std::int64_t> d{0, static_cast<std::int64_t>(i) - 1};
        std::swap(expected[i - 1], expected[static_cast<std::size_t>(d(oracle))]);
      }
      ASSERT_EQ(v, expected) << "seed " << seed << " round " << round;
    }
  }
}

// fork() seeds its child from two parent outputs; the oracle replays that
// on std engines, two generations deep.
std::mt19937_64 oracle_fork(std::mt19937_64& parent) {
  const std::uint64_t a = parent();
  const std::uint64_t b = parent();
  return std::mt19937_64{a ^ (b * 0x9E3779B97F4A7C15ULL)};
}

TEST(RngDrawOracle, TwoLevelsOfForkMatchStdEngines) {
  for (std::uint64_t seed : kOracleSeeds) {
    Rng parent{seed};
    std::mt19937_64 oracle_parent{seed};
    Rng child = parent.fork();
    std::mt19937_64 oracle_child = oracle_fork(oracle_parent);
    Rng grandchild = child.fork();
    std::mt19937_64 oracle_grandchild = oracle_fork(oracle_child);
    std::uniform_int_distribution<std::int64_t> d{0, 1 << 30};
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(parent.uniform_int(0, 1 << 30), d(oracle_parent)) << "seed " << seed;
      ASSERT_EQ(child.uniform_int(0, 1 << 30), d(oracle_child)) << "seed " << seed;
      ASSERT_EQ(grandchild.uniform_int(0, 1 << 30), d(oracle_grandchild)) << "seed " << seed;
    }
  }
}

std::string thrown_message(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(RngDrawOracle, ThrowPathsKeepTheirMessages) {
  Rng rng{3};
  EXPECT_EQ(thrown_message([&] { rng.uniform_int(5, 4); }), "Rng::uniform_int: lo > hi");
  EXPECT_EQ(thrown_message([&] { rng.exponential(0.0); }),
            "Rng::exponential: mean must be positive");
  EXPECT_EQ(thrown_message([&] { rng.weighted_index({}); }),
            "Rng::weighted_index: empty weights");
  EXPECT_EQ(thrown_message([&] { rng.weighted_index({0.0, -1.0}); }),
            "Rng::weighted_index: non-positive total weight");
}

}  // namespace
}  // namespace dredbox::sim
