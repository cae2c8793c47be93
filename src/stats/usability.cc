#include "stats/usability.h"

#include <cmath>

namespace vs::stats {

double UsabilityFromCounts(const std::vector<int64_t>& counts) {
  int64_t nonempty = 0;
  for (int64_t c : counts) {
    if (c > 0) ++nonempty;
  }
  if (nonempty < 1) nonempty = 1;
  return 1.0 / static_cast<double>(nonempty);
}

vs::Result<double> WithinBinSse(const std::vector<double>& sum,
                                const std::vector<double>& sumsq,
                                const std::vector<int64_t>& count) {
  if (sum.size() != sumsq.size() || sum.size() != count.size()) {
    return vs::Status::InvalidArgument("moment arrays differ in length");
  }
  double ssw = 0.0;
  for (size_t b = 0; b < sum.size(); ++b) {
    const int64_t n = count[b];
    if (n <= 0) continue;
    const double contribution =
        sumsq[b] - sum[b] * sum[b] / static_cast<double>(n);
    // Guard against tiny negative residues from cancellation.
    if (contribution > 0.0) ssw += contribution;
  }
  return ssw;
}

vs::Result<double> AccuracyFromMoments(const std::vector<double>& sum,
                                       const std::vector<double>& sumsq,
                                       const std::vector<int64_t>& count) {
  VS_ASSIGN_OR_RETURN(double ssw, WithinBinSse(sum, sumsq, count));
  double total_sum = 0.0;
  double total_sumsq = 0.0;
  int64_t total_n = 0;
  for (size_t b = 0; b < sum.size(); ++b) {
    total_sum += sum[b];
    total_sumsq += sumsq[b];
    total_n += count[b];
  }
  if (total_n == 0) return 1.0;
  const double sst =
      total_sumsq - total_sum * total_sum / static_cast<double>(total_n);
  if (sst <= 0.0) return 1.0;
  double accuracy = 1.0 - ssw / sst;
  if (accuracy < 0.0) accuracy = 0.0;
  if (accuracy > 1.0) accuracy = 1.0;
  return accuracy;
}

}  // namespace vs::stats
