// Streaming and batch statistics used by the tuner, benches and simulator.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace harmony {

/// Welford online mean/variance accumulator with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean of the observations; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;
  /// Smallest observation; +inf when empty.
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest observation; -inf when empty.
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi) with `buckets` equal bins.
/// Out-of-range samples are clamped into the first/last bin so that
/// distribution comparisons (paper Fig. 4) always account for every sample.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  /// Folds another histogram's counts into this one (same lo/hi/buckets).
  void merge(const Histogram& other);
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bucket) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// Fraction of samples in `bucket` (0 when the histogram is empty).
  [[nodiscard]] double fraction(std::size_t bucket) const;
  /// All per-bucket fractions, summing to 1 for a non-empty histogram.
  [[nodiscard]] std::vector<double> fractions() const;
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  /// Label "a-b" for the bucket's value range (used by bench table output).
  [[nodiscard]] std::string bucket_label(std::size_t bucket) const;

  /// Percentile estimate from the bucket counts, p in [0, 100]: finds the
  /// bucket holding the rank-p sample and interpolates linearly inside it.
  /// Resolution is one bucket width; clamped samples report the edge
  /// bucket's range. Throws on an empty histogram.
  [[nodiscard]] double percentile(double p) const;

  /// Total-variation distance between two histograms' fractions
  /// (0 = identical distribution, 1 = disjoint). Bucket counts must match.
  [[nodiscard]] static double total_variation(const Histogram& a,
                                              const Histogram& b);

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Batch helpers over a sample vector.
[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);
/// Linear-interpolated percentile, p in [0, 100]. Throws on empty input.
/// Selects rather than sorts (O(n)); callers done with their sample can
/// move it in to skip the copy.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
/// Pearson correlation of two equal-length samples; 0 when degenerate.
[[nodiscard]] double pearson(std::span<const double> a, std::span<const double> b);

}  // namespace harmony
