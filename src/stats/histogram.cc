#include "stats/histogram.h"

#include <cmath>

#include "common/string_util.h"

namespace vs::stats {

vs::Result<BinScale> ComputeBinScale(const std::vector<double>& values) {
  if (values.empty()) {
    return vs::Status::InvalidArgument("cannot normalize an empty view");
  }
  double min_v = values[0];
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (!std::isfinite(v)) {
      return vs::Status::InvalidArgument(vs::StrFormat(
          "cannot normalize non-finite value %g in bin %zu of %zu", v, i,
          values.size()));
    }
    if (v < min_v) min_v = v;
  }
  BinScale scale;
  scale.shift = min_v < 0.0 ? -min_v : 0.0;
  scale.total = 0.0;
  for (double v : values) scale.total += v + scale.shift;
  scale.uniform = scale.total <= 0.0;
  return scale;
}

vs::Result<Distribution> Normalize(const std::vector<double>& values) {
  VS_ASSIGN_OR_RETURN(const BinScale scale, ComputeBinScale(values));
  return Normalize(values, scale);
}

Distribution Normalize(const std::vector<double>& values,
                       const BinScale& scale) {
  Distribution d;
  d.p.resize(values.size());
  if (scale.uniform) {
    const double u = 1.0 / static_cast<double>(values.size());
    for (double& x : d.p) x = u;
    return d;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    d.p[i] = (values[i] + scale.shift) / scale.total;
  }
  return d;
}

bool IsValidDistribution(const Distribution& d, double tolerance) {
  double total = 0.0;
  for (double x : d.p) {
    if (!(x >= 0.0) || !std::isfinite(x)) return false;
    total += x;
  }
  return std::fabs(total - 1.0) <= tolerance;
}

}  // namespace vs::stats
