#ifndef VS_ML_MATRIX_H_
#define VS_ML_MATRIX_H_

/// \file matrix.h
/// \brief Small dense linear algebra: the row-major Matrix and free
/// functions over it.  Dimensions here are tiny (features x features), so
/// clarity beats blocking/vectorization tricks.

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/result.h"

namespace vs::ml {

/// Dense vector alias used across the ML layer.
using Vector = std::vector<double>;

/// \brief Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// From nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// The identity of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Element access (debug-asserted bounds).  Inline: the estimators'
  /// Hessian, Gram and Cholesky loops index element by element.
  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row \p r.
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row \p r into a Vector.
  Vector Row(size_t r) const;

  /// The transpose.
  Matrix Transposed() const;

  /// Raw storage (row-major).
  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B; error on inner-dimension mismatch.
vs::Result<Matrix> MatMul(const Matrix& a, const Matrix& b);

/// y = A * x; error on dimension mismatch.
vs::Result<Vector> MatVec(const Matrix& a, const Vector& x);

/// A^T * A (Gram matrix), exploiting symmetry.
Matrix Gram(const Matrix& a);

/// A^T * y; error on dimension mismatch.
vs::Result<Vector> TransposeVec(const Matrix& a, const Vector& y);

/// Dot product; error on length mismatch.
vs::Result<double> Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm(const Vector& v);

}  // namespace vs::ml

#endif  // VS_ML_MATRIX_H_
