#include "ml/matrix.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace vs::ml {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_ && "ragged initializer");
    for (double v : row) data_.push_back(v);
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t r) const {
  assert(r < rows_);
  return Vector(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

vs::Result<Matrix> MatMul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "MatMul shape mismatch: (%zu x %zu) * (%zu x %zu)", a.rows(),
        a.cols(), b.rows(), b.cols()));
  }
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

vs::Result<Vector> MatVec(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "MatVec shape mismatch: (%zu x %zu) * (%zu)", a.rows(), a.cols(),
        x.size()));
  }
  Vector y(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    double acc = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
  return y;
}

Matrix Gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    for (size_t j = 0; j < a.cols(); ++j) {
      const double v = row[j];
      if (v == 0.0) continue;
      for (size_t k = j; k < a.cols(); ++k) {
        g(j, k) += v * row[k];
      }
    }
  }
  for (size_t j = 0; j < a.cols(); ++j) {
    for (size_t k = 0; k < j; ++k) {
      g(j, k) = g(k, j);
    }
  }
  return g;
}

vs::Result<Vector> TransposeVec(const Matrix& a, const Vector& y) {
  if (a.rows() != y.size()) {
    return vs::Status::InvalidArgument(vs::StrFormat(
        "TransposeVec shape mismatch: (%zu x %zu)^T * (%zu)", a.rows(),
        a.cols(), y.size()));
  }
  Vector out(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    const double yi = y[i];
    if (yi == 0.0) continue;
    for (size_t j = 0; j < a.cols(); ++j) out[j] += row[j] * yi;
  }
  return out;
}

vs::Result<double> Dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    return vs::Status::InvalidArgument("Dot over mismatched lengths");
  }
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

}  // namespace vs::ml
