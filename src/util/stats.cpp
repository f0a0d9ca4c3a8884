#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace harmony {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  HARMONY_REQUIRE(hi > lo, "histogram range must be non-empty");
  HARMONY_REQUIRE(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::add(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  HARMONY_REQUIRE(lo_ == other.lo_ && hi_ == other.hi_ &&
                      counts_.size() == other.counts_.size(),
                  "histogram shapes differ");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::percentile(double p) const {
  HARMONY_REQUIRE(total_ > 0, "percentile of empty histogram");
  HARMONY_REQUIRE(p >= 0.0 && p <= 100.0, "percentile outside [0,100]");
  // Rank in [0, total]: the cumulative count the percentile must reach.
  const double target = p / 100.0 * static_cast<double>(total_);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::size_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::size_t next = cum + counts_[i];
    if (static_cast<double>(next) >= target) {
      const double into =
          std::max(0.0, target - static_cast<double>(cum)) /
          static_cast<double>(counts_[i]);
      return lo_ + width * (static_cast<double>(i) + into);
    }
    cum = next;
  }
  // p == 100 lands past the last occupied bucket's cumulative count.
  for (std::size_t i = counts_.size(); i-- > 0;) {
    if (counts_[i] > 0) return lo_ + width * static_cast<double>(i + 1);
  }
  return hi_;
}

std::size_t Histogram::count(std::size_t bucket) const {
  HARMONY_REQUIRE(bucket < counts_.size(), "histogram bucket out of range");
  return counts_[bucket];
}

double Histogram::fraction(std::size_t bucket) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bucket)) / static_cast<double>(total_);
}

std::vector<double> Histogram::fractions() const {
  std::vector<double> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = fraction(i);
  return out;
}

std::string Histogram::bucket_label(std::size_t bucket) const {
  HARMONY_REQUIRE(bucket < counts_.size(), "histogram bucket out of range");
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  const double a = lo_ + width * static_cast<double>(bucket);
  const double b = a + width;
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  return fmt(a) + "-" + fmt(b);
}

double Histogram::total_variation(const Histogram& a, const Histogram& b) {
  HARMONY_REQUIRE(a.bucket_count() == b.bucket_count(),
                  "histogram bucket counts differ");
  double tv = 0.0;
  for (std::size_t i = 0; i < a.bucket_count(); ++i) {
    tv += std::abs(a.fraction(i) - b.fraction(i));
  }
  return tv / 2.0;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  HARMONY_REQUIRE(!xs.empty(), "percentile of empty sample");
  HARMONY_REQUIRE(p >= 0.0 && p <= 100.0, "percentile outside [0,100]");
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  // Only the two order statistics at lo and hi are needed: select the
  // lo-th, then the hi-th is the minimum of the partition above it. Same
  // values, and so the same interpolation, as after a full sort.
  const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), lo_it, xs.end());
  const double x_lo = *lo_it;
  const double x_hi = hi == lo ? x_lo : *std::min_element(lo_it + 1, xs.end());
  return x_lo + (x_hi - x_lo) * frac;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  HARMONY_REQUIRE(a.size() == b.size(), "pearson sample sizes differ");
  if (a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

}  // namespace harmony
