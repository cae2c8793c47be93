#ifndef VS_ML_LINEAR_REGRESSION_H_
#define VS_ML_LINEAR_REGRESSION_H_

/// \file linear_regression.h
/// \brief Ridge linear regression — the *view utility estimator* of the
/// paper: after each labeling iteration it is refit on all collected
/// (feature vector, label) pairs and predicts the utility score u*(v) of
/// every view.
///
/// Solved in closed form via the regularized normal equations; an optional
/// non-negativity constraint (active-set projection) reflects the paper's
/// model u*() = Σ βᵢ uᵢ() with βᵢ >= 0.

#include "common/result.h"
#include "ml/matrix.h"

namespace vs::ml {

/// \brief Configuration of a LinearRegression fit.
struct LinearRegressionOptions {
  /// Ridge strength; strictly positive keeps the system solvable with very
  /// few labels (the cold-start regime).
  double l2 = 1e-6;
  /// Whether to learn an intercept term.
  bool fit_intercept = true;
  /// Constrain coefficients (not the intercept) to be >= 0.
  bool nonnegative = false;
  /// Safety cap for the active-set loop of the non-negative solver.
  int max_active_set_rounds = 64;
};

/// \brief Closed-form ridge regression model.
class LinearRegression {
 public:
  LinearRegression() = default;
  explicit LinearRegression(LinearRegressionOptions options)
      : options_(options) {}

  /// Fits on \p x (rows = examples) and targets \p y.  Any previous fit is
  /// replaced; on error the model is left unfitted.
  vs::Status Fit(const Matrix& x, const Vector& y);

  /// Predicted value for one feature row.
  vs::Result<double> Predict(const Vector& features) const;

  /// Predicted values for every row of \p x.
  vs::Result<Vector> PredictBatch(const Matrix& x) const;

  bool fitted() const { return fitted_; }
  /// Learned coefficients (excluding intercept).
  const Vector& coefficients() const { return coef_; }
  /// Learned intercept (0 when fit_intercept is false).
  double intercept() const { return intercept_; }
  const LinearRegressionOptions& options() const { return options_; }

  /// \name Direct parameter injection (tests evaluate a known model).
  /// @{
  void SetParameters(Vector coefficients, double intercept);
  /// @}

 private:
  LinearRegressionOptions options_;
  Vector coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace vs::ml

#endif  // VS_ML_LINEAR_REGRESSION_H_
