#include "linalg/matrix.hpp"

#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace harmony::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  HARMONY_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  HARMONY_REQUIRE(rows_ > 0, "empty initializer");
  cols_ = init.begin()->size();
  HARMONY_REQUIRE(cols_ > 0, "empty initializer row");
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    HARMONY_REQUIRE(row.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(const std::vector<double>& data) {
  HARMONY_REQUIRE(!data.empty(), "empty column vector");
  Matrix m(data.size(), 1);
  for (std::size_t i = 0; i < data.size(); ++i) m(i, 0) = data[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  HARMONY_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  HARMONY_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  HARMONY_REQUIRE(cols_ == rhs.rows_, "matmul shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double* out_row = out.data() + r * rhs.cols_;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      // Skip zero contributions (sparse normal-equations rows). The skip is
      // semantic, not just fast: adding a*rhs would differ for inf/nan.
      if (a == 0.0) continue;
      const double* rhs_row = rhs.data() + k * rhs.cols_;
      for (std::size_t c = 0; c < rhs.cols_; ++c) out_row[c] += a * rhs_row[c];
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  HARMONY_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                  "matrix add shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  HARMONY_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                  "matrix sub shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::scaled(double factor) const {
  Matrix out = *this;
  for (double& x : out.data_) x *= factor;
  return out;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
  HARMONY_REQUIRE(v.size() == cols_, "matvec shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += (*this)(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

std::vector<double> Matrix::to_vector() const {
  HARMONY_REQUIRE(cols_ == 1, "to_vector requires a column matrix");
  return data_;
}

double Matrix::frobenius_norm() const noexcept {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  HARMONY_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_,
                  "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << (r + 1 < m.rows() ? ";\n" : "]");
  }
  return os;
}

double norm2(const std::vector<double>& v) noexcept {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  HARMONY_REQUIRE(a.size() == b.size(), "dot length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace harmony::linalg
