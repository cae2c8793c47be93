#ifndef VS_ML_LOGISTIC_REGRESSION_H_
#define VS_ML_LOGISTIC_REGRESSION_H_

/// \file logistic_regression.h
/// \brief L2-regularized logistic regression — the *uncertainty estimator*
/// of the paper: a probabilistic binary classifier over view feature
/// vectors whose predicted probability p(y=1|x) drives least-confidence
/// uncertainty sampling (views with p closest to 0.5 are queried next).
///
/// Trained by Newton/IRLS with a gradient-descent fallback when the Hessian
/// is ill-conditioned (e.g. perfectly separable cold-start label sets).

#include "common/result.h"
#include "ml/matrix.h"

namespace vs::ml {

/// \brief Configuration of a LogisticRegression fit.
struct LogisticRegressionOptions {
  /// L2 penalty; strictly positive keeps separable problems bounded.
  double l2 = 1e-3;
  bool fit_intercept = true;
  int max_newton_iters = 50;
  int max_gd_iters = 2000;
  double gd_learning_rate = 0.5;
  double tolerance = 1e-8;
};

/// \brief Binary logistic regression model.
class LogisticRegression {
 public:
  LogisticRegression() = default;
  explicit LogisticRegression(LogisticRegressionOptions options)
      : options_(options) {}

  /// Fits on \p x and binary labels \p y (each exactly 0.0 or 1.0).  Any
  /// previous fit is replaced; on error the model is left unfitted.
  vs::Status Fit(const Matrix& x, const Vector& y);

  /// p(y = 1 | features).
  vs::Result<double> PredictProba(const Vector& features) const;

  /// p(y = 1 | row) for every row of \p x.
  vs::Result<Vector> PredictProbaBatch(const Matrix& x) const;

  bool fitted() const { return fitted_; }
  const Vector& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  const LogisticRegressionOptions& options() const { return options_; }

  /// Numerically stable sigmoid.
  static double Sigmoid(double z);

 private:
  double Linear(const double* row) const;

  LogisticRegressionOptions options_;
  Vector coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace vs::ml

#endif  // VS_ML_LOGISTIC_REGRESSION_H_
