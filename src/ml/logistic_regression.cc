#include "ml/logistic_regression.h"

#include <cmath>

#include "ml/solve.h"

namespace vs::ml {

double LogisticRegression::Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double LogisticRegression::Linear(const double* row) const {
  double acc = intercept_;
  for (size_t j = 0; j < coef_.size(); ++j) acc += coef_[j] * row[j];
  return acc;
}

namespace {

/// Regularized negative log-likelihood (intercept unpenalized); the
/// augmented weight vector w has the intercept in its last slot.
double Loss(const Matrix& x, const Vector& y, const Vector& w, double l2,
            bool fit_intercept) {
  const size_t d = x.cols();
  double loss = 0.0;
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    double z = fit_intercept ? w[d] : 0.0;
    for (size_t j = 0; j < d; ++j) z += w[j] * row[j];
    // log(1 + exp(-z*ysign)) computed stably.
    const double zy = y[i] > 0.5 ? z : -z;
    loss += zy > 0.0 ? std::log1p(std::exp(-zy)) : -zy + std::log1p(std::exp(zy));
  }
  for (size_t j = 0; j < d; ++j) loss += 0.5 * l2 * w[j] * w[j];
  return loss;
}

}  // namespace

vs::Status LogisticRegression::Fit(const Matrix& x, const Vector& y) {
  fitted_ = false;
  if (x.rows() == 0 || x.cols() == 0) {
    return vs::Status::InvalidArgument("empty design matrix");
  }
  if (x.rows() != y.size()) {
    return vs::Status::InvalidArgument("row count differs from label count");
  }
  if (options_.l2 <= 0.0) {
    return vs::Status::InvalidArgument(
        "l2 must be strictly positive (separable label sets are common in "
        "the cold-start regime)");
  }
  for (double v : y) {
    if (v != 0.0 && v != 1.0) {
      return vs::Status::InvalidArgument(
          "labels must be exactly 0 or 1 for logistic regression");
    }
  }

  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t dim = d + (options_.fit_intercept ? 1 : 0);
  Vector w(dim, 0.0);  // coefficients then optional intercept

  auto predict_all = [&](Vector* p) {
    p->resize(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.RowPtr(i);
      double z = options_.fit_intercept ? w[d] : 0.0;
      for (size_t j = 0; j < d; ++j) z += w[j] * row[j];
      (*p)[i] = Sigmoid(z);
    }
  };

  auto gradient = [&](const Vector& p, Vector* g) {
    g->assign(dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.RowPtr(i);
      const double r = p[i] - y[i];
      for (size_t j = 0; j < d; ++j) (*g)[j] += r * row[j];
      if (options_.fit_intercept) (*g)[d] += r;
    }
    for (size_t j = 0; j < d; ++j) (*g)[j] += options_.l2 * w[j];
  };

  // --- Newton / IRLS ---
  bool newton_ok = true;
  Vector p;
  Vector g;
  // Loss at w: computed once, then carried over from each accepted step.
  double loss_before = Loss(x, y, w, options_.l2, options_.fit_intercept);
  for (int iter = 0; iter < options_.max_newton_iters; ++iter) {
    predict_all(&p);
    gradient(p, &g);
    if (Norm(g) < options_.tolerance) break;

    // Hessian = X~^T diag(p(1-p)) X~ + l2 I (intercept unpenalized), where
    // X~ is x with an appended ones column when fitting an intercept.
    Matrix h(dim, dim);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.RowPtr(i);
      double wgt = p[i] * (1.0 - p[i]);
      if (wgt < 1e-12) wgt = 1e-12;
      for (size_t a = 0; a < d; ++a) {
        const double va = wgt * row[a];
        for (size_t b = a; b < d; ++b) h(a, b) += va * row[b];
        if (options_.fit_intercept) h(a, d) += va;
      }
      if (options_.fit_intercept) h(d, d) += wgt;
    }
    for (size_t a = 0; a < dim; ++a) {
      for (size_t b = 0; b < a; ++b) h(a, b) = h(b, a);
    }
    for (size_t j = 0; j < d; ++j) h(j, j) += options_.l2;

    auto step = CholeskySolve(h, g);
    if (!step.ok()) {
      newton_ok = false;
      break;
    }
    // Backtracking line search on the Newton direction.
    double scale = 1.0;
    Vector w_next = w;
    bool improved = false;
    for (int ls = 0; ls < 30; ++ls) {
      for (size_t j = 0; j < dim; ++j) w_next[j] = w[j] - scale * (*step)[j];
      const double loss_after =
          Loss(x, y, w_next, options_.l2, options_.fit_intercept);
      if (std::isfinite(loss_after) && loss_after <= loss_before) {
        loss_before = loss_after;
        improved = true;
        break;
      }
      scale *= 0.5;
    }
    if (!improved) {
      newton_ok = false;
      break;
    }
    double delta = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      delta = std::max(delta, std::fabs(w_next[j] - w[j]));
    }
    w = std::move(w_next);
    if (delta < options_.tolerance) break;
  }

  // --- Gradient-descent fallback ---
  if (!newton_ok) {
    w.assign(dim, 0.0);
    double lr = options_.gd_learning_rate / static_cast<double>(n);
    for (int iter = 0; iter < options_.max_gd_iters; ++iter) {
      predict_all(&p);
      gradient(p, &g);
      const double gnorm = Norm(g);
      if (gnorm < options_.tolerance) break;
      for (size_t j = 0; j < dim; ++j) w[j] -= lr * g[j];
    }
  }

  coef_.assign(w.begin(), w.begin() + d);
  intercept_ = options_.fit_intercept ? w[d] : 0.0;
  fitted_ = true;
  return vs::Status::OK();
}

vs::Result<double> LogisticRegression::PredictProba(
    const Vector& features) const {
  if (!fitted_) return vs::Status::FailedPrecondition("model not fitted");
  if (features.size() != coef_.size()) {
    return vs::Status::InvalidArgument("feature width differs from fit");
  }
  return Sigmoid(Linear(features.data()));
}

vs::Result<Vector> LogisticRegression::PredictProbaBatch(
    const Matrix& x) const {
  if (!fitted_) return vs::Status::FailedPrecondition("model not fitted");
  if (x.cols() != coef_.size()) {
    return vs::Status::InvalidArgument("feature width differs from fit");
  }
  Vector out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    out[i] = Sigmoid(Linear(x.RowPtr(i)));
  }
  return out;
}

}  // namespace vs::ml
