#ifndef VS_STATS_HISTOGRAM_H_
#define VS_STATS_HISTOGRAM_H_

/// \file histogram.h
/// \brief Probability distributions over view bins (Eq. 5 of the paper).
///
/// A materialized view (one aggregate value per bin) is converted into a
/// normalized probability distribution P(v) = <g1/G, ..., gb/G>.  Aggregate
/// functions like AVG over signed measures can produce negative bin values;
/// since the paper's distance machinery assumes probability vectors, we
/// shift by the minimum before normalizing in that case (documented
/// deviation; the generators produce non-negative measures so the shift is
/// a no-op on the paper's workloads).  An all-zero view normalizes to the
/// uniform distribution.

#include <vector>

#include "common/result.h"

namespace vs::stats {

/// \brief A discrete probability distribution over view bins.
struct Distribution {
  std::vector<double> p;  ///< non-negative, sums to 1 (empty allowed)

  size_t size() const { return p.size(); }
  double operator[](size_t i) const { return p[i]; }
};

/// \brief The map Normalize applies to one view's raw bin values:
/// p_i = (v_i + shift) / total, or 1/n in every bin when uniform.  The
/// default is the identity: x + 0.0 and x / 1.0 return x (a -0.0 becomes
/// +0.0, which compares equal).
struct BinScale {
  double shift = 0.0;
  double total = 1.0;
  bool uniform = false;  ///< degenerate all-zero view
};

/// The scale that normalizes \p values (Eq. 5): the shift is minus the
/// minimum when a value is negative, the total the sum of the shifted
/// values, and a total <= 0 means uniform.  Fails on empty input or
/// non-finite values.
vs::Result<BinScale> ComputeBinScale(const std::vector<double>& values);

/// Normalizes raw bin values into a Distribution (Eq. 5).  Fails on empty
/// input or non-finite values.
vs::Result<Distribution> Normalize(const std::vector<double>& values);

/// Applies \p scale, which must be ComputeBinScale(values), to \p values.
Distribution Normalize(const std::vector<double>& values,
                       const BinScale& scale);

/// True iff \p d is a valid distribution: non-negative entries summing to
/// 1 within \p tolerance.
bool IsValidDistribution(const Distribution& d, double tolerance = 1e-9);

}  // namespace vs::stats

#endif  // VS_STATS_HISTOGRAM_H_
