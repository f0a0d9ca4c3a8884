#include "linalg/qr.hpp"

#include <cmath>

#include "util/error.hpp"

namespace harmony::linalg {

namespace {
constexpr double kRankTolerance = 1e-10;

/// Applies the Householder reflector of column `k` (v = (v0, a(k+1,k), ...,
/// a(m-1,k)), scale `beta`) to the trailing columns c in [k+1, n) of the
/// row-major m x n matrix `a`:
///
///   s_c  = beta * (v0 * a(k,c) + sum_{r=k+1..m-1} a(r,k) * a(r,c))
///   a(k,c) -= s_c * v0
///   a(r,c) -= s_c * a(r,k)      for r in [k+1, m)
void apply_reflector(double* a, std::size_t m, std::size_t n, std::size_t k,
                     double v0, double beta) {
  for (std::size_t c = k + 1; c < n; ++c) {
    double s = v0 * a[k * n + c];
    for (std::size_t r = k + 1; r < m; ++r) s += a[r * n + k] * a[r * n + c];
    s *= beta;
    a[k * n + c] -= s * v0;
    for (std::size_t r = k + 1; r < m; ++r) a[r * n + c] -= s * a[r * n + k];
  }
}
}  // namespace

QrDecomposition::QrDecomposition(const Matrix& a) : a_(a) {
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  HARMONY_REQUIRE(m >= n, "QR requires rows >= cols");
  beta_.assign(n, 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0.0;
    for (std::size_t r = k; r < m; ++r) norm += a_(r, k) * a_(r, k);
    norm = std::sqrt(norm);
    if (norm < kRankTolerance) {
      rank_deficient_ = true;
      continue;
    }
    const double alpha = (a_(k, k) >= 0.0) ? -norm : norm;
    const double v0 = a_(k, k) - alpha;
    // v = (v0, a(k+1,k), ..., a(m-1,k)); beta = 2 / (v^T v)
    double vtv = v0 * v0;
    for (std::size_t r = k + 1; r < m; ++r) vtv += a_(r, k) * a_(r, k);
    if (vtv < kRankTolerance * kRankTolerance) {
      rank_deficient_ = true;
      continue;
    }
    const double beta = 2.0 / vtv;
    // Apply reflector to remaining columns.
    apply_reflector(a_.data(), m, n, k, v0, beta);
    a_(k, k) = alpha;           // R diagonal
    // Store normalized reflector: keep v0 implicitly via beta_ and the
    // below-diagonal entries (already in place); remember v0 by scaling.
    // We store v0 in a separate trick: scale below-diagonal by 1 (unchanged)
    // and keep v0 in beta encoding: beta_[k] holds beta, v0 in v0_ vector.
    beta_[k] = beta;
    v0_.push_back(v0);
    v0_cols_.push_back(k);
  }
}

void QrDecomposition::apply_reflectors(std::vector<double>& v) const {
  const std::size_t m = a_.rows();
  for (std::size_t idx = 0; idx < v0_.size(); ++idx) {
    const std::size_t k = v0_cols_[idx];
    const double v0 = v0_[idx];
    const double beta = beta_[k];
    double s = v0 * v[k];
    for (std::size_t r = k + 1; r < m; ++r) s += a_(r, k) * v[r];
    s *= beta;
    v[k] -= s * v0;
    for (std::size_t r = k + 1; r < m; ++r) v[r] -= s * a_(r, k);
  }
}

std::vector<double> QrDecomposition::solve(const std::vector<double>& b) const {
  HARMONY_REQUIRE(!rank_deficient_, "QR solve on rank-deficient matrix");
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  HARMONY_REQUIRE(b.size() == m, "rhs length mismatch");
  std::vector<double> y = b;
  apply_reflectors(y);  // y := Q^T b
  std::vector<double> x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    double s = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a_(ri, c) * x[c];
    x[ri] = s / a_(ri, ri);
  }
  return x;
}

Matrix QrDecomposition::q() const {
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  Matrix q(m, n);
  // Column j of Q = Q * e_j: apply reflectors in reverse to unit vectors.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> e(m, 0.0);
    e[j] = 1.0;
    for (std::size_t idx = v0_.size(); idx-- > 0;) {
      const std::size_t k = v0_cols_[idx];
      const double v0 = v0_[idx];
      const double beta = beta_[k];
      double s = v0 * e[k];
      for (std::size_t r = k + 1; r < m; ++r) s += a_(r, k) * e[r];
      s *= beta;
      e[k] -= s * v0;
      for (std::size_t r = k + 1; r < m; ++r) e[r] -= s * a_(r, k);
    }
    for (std::size_t r = 0; r < m; ++r) q(r, j) = e[r];
  }
  return q;
}

Matrix QrDecomposition::r() const {
  const std::size_t n = a_.cols();
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) r(i, j) = a_(i, j);
  return r;
}

}  // namespace harmony::linalg
