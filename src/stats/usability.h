#ifndef VS_STATS_USABILITY_H_
#define VS_STATS_USABILITY_H_

/// \file usability.h
/// \brief The non-deviation utility components of §3.1, after MuVE [5]:
///
/// *Usability* — "the quality of the visualization in terms of providing an
/// understandable, uncluttered representation, quantified via the relative
/// bin width metric".  We instantiate it as relative bin width over the
/// occupied bins: usability = 1 / max(1, #non-empty bins); a view whose mass
/// spreads across many bins is more cluttered, hence less usable.
///
/// *Accuracy* — "the ability of the view to accurately capture the
/// distribution of the analyzed data, measured in terms of SSE".  We
/// instantiate it as the explained-variance ratio of the grouping:
/// accuracy = 1 - SSW/SST, where SSW is the within-bin sum of squared
/// deviations of the measure from its bin mean and SST the total sum of
/// squared deviations — i.e., how little of the measure's structure the
/// binning destroys (an SSE-based R^2).

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace vs::stats {

/// Relative-bin-width usability from per-bin counts; in (0, 1].
double UsabilityFromCounts(const std::vector<int64_t>& counts);

/// The accuracy metric reads per-bin second-moment sums: Σ x (\p sum),
/// Σ x^2 (\p sumsq) and the row count (\p count) of each bin, three
/// arrays of one length (InvalidArgument otherwise), read in place.

/// Within-bin sum of squared deviations: Σ_b (sumsq_b - sum_b^2 / n_b).
vs::Result<double> WithinBinSse(const std::vector<double>& sum,
                                const std::vector<double>& sumsq,
                                const std::vector<int64_t>& count);

/// Explained-variance accuracy in [0, 1]: 1 - SSW/SST (1 when SST == 0).
vs::Result<double> AccuracyFromMoments(const std::vector<double>& sum,
                                       const std::vector<double>& sumsq,
                                       const std::vector<int64_t>& count);

}  // namespace vs::stats

#endif  // VS_STATS_USABILITY_H_
