#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace harmony {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesBatchFormulas) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(3);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to first bucket
  h.add(0.5);
  h.add(9.9);
  h.add(25.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
}

TEST(Histogram, FractionsSumToOne) {
  Rng rng(5);
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform01());
  double sum = 0.0;
  for (double f : h.fractions()) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, BucketLabels) {
  Histogram h(1.0, 51.0, 10);
  EXPECT_EQ(h.bucket_label(0), "1-6");
  EXPECT_EQ(h.bucket_label(9), "46-51");
}

TEST(Histogram, TotalVariation) {
  Histogram a(0.0, 1.0, 2), b(0.0, 1.0, 2);
  a.add(0.1);
  b.add(0.9);
  EXPECT_DOUBLE_EQ(Histogram::total_variation(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::total_variation(a, a), 0.0);
  Histogram c(0.0, 1.0, 3);
  EXPECT_THROW((void)Histogram::total_variation(a, c), Error);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW((void)h.count(2), Error);
}

TEST(Histogram, PercentileInterpolatesWithinBuckets) {
  // 100 buckets of width 1 over [0, 100), one sample per bucket: the
  // percentile estimate should track the underlying uniform values to
  // within one bucket width.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(99.0), 99.0, 1.0);
  EXPECT_NEAR(h.percentile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.percentile(100.0), 100.0, 1.0);
  // Monotone in p.
  EXPECT_LE(h.percentile(25.0), h.percentile(75.0));
}

TEST(Histogram, PercentileSingleBucketAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(3.5);
  h.add(3.5);
  // Both samples sit in bucket [3, 4); every percentile reports that range.
  EXPECT_GE(h.percentile(0.0), 3.0);
  EXPECT_LE(h.percentile(100.0), 4.0);
  // Out-of-range samples clamp to the edge buckets, and the percentile
  // reports the edge bucket's range rather than the raw value.
  Histogram c(0.0, 10.0, 10);
  c.add(-100.0);
  c.add(1e9);
  EXPECT_LE(c.percentile(0.0), 1.0);
  EXPECT_GE(c.percentile(100.0), 9.0);
  EXPECT_THROW((void)Histogram(0.0, 1.0, 4).percentile(50.0), Error);
  EXPECT_THROW((void)h.percentile(-1.0), Error);
  EXPECT_THROW((void)h.percentile(101.0), Error);
}

TEST(Histogram, MergeFoldsCounts) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.5);
  b.add(1.5);
  b.add(8.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.count(8), 1u);
  Histogram mismatched(0.0, 5.0, 10);
  EXPECT_THROW(a.merge(mismatched), Error);
}

TEST(BatchStats, MeanAndStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(BatchStats, Percentile) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_THROW((void)percentile({}, 50.0), Error);
  EXPECT_THROW((void)percentile(xs, 101.0), Error);
}

TEST(BatchStats, PercentileSelectionMatchesSortDefinition) {
  // The sort-based definition: interpolate between the floor- and
  // ceil-rank elements of the sorted sample.
  auto by_sort = [](std::vector<double> xs, double p) {
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
  };
  Rng rng(2024);
  for (std::size_t n = 1; n <= 257; ++n) {
    // Few distinct values force ties at the selected ranks; every third
    // sample is continuous instead.
    std::vector<double> xs(n);
    for (double& x : xs) {
      x = n % 3 == 0 ? rng.uniform(-1e3, 1e3)
                     : 0.25 * static_cast<double>(rng.uniform_int(-8, 8));
    }
    for (const double p : {0.0, 0.5, 50.0, 95.0, 99.0, 100.0}) {
      const double want = by_sort(xs, p);
      const double got = percentile(xs, p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " p=" << p << ": " << got << " vs " << want;
    }
  }
}

TEST(BatchStats, Pearson) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> c = b;
  for (double& x : c) x = -x;
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
  const std::vector<double> flat = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(a, flat), 0.0);
}

}  // namespace
}  // namespace harmony
